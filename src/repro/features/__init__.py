"""Feature extraction from enhanced ASTs (§III-B)."""

from repro.features.extractor import FeatureExtractor, PairedFeatureExtractor
from repro.features.ngrams import ast_ngram_vector, ast_unit_sequence
from repro.features.static_features import compute_static_features

__all__ = [
    "FeatureExtractor",
    "PairedFeatureExtractor",
    "ast_ngram_vector",
    "ast_unit_sequence",
    "compute_static_features",
]
