"""Level-1 detector: regular vs. minified vs. obfuscated (§III-C).

A multi-task classifier-chain of random forests over the level-1 vector
space.  A file counts as *transformed* when flagged obfuscated and/or
minified.
"""

from __future__ import annotations

import numpy as np

from repro.detector.labels import LEVEL1_LABELS
from repro.features.extractor import FeatureExtractor
from repro.ml.forest import ForestSpec
from repro.ml.multilabel import BinaryRelevance, ClassifierChain


class Level1Detector:
    """Pre-filtering layer distinguishing regular from transformed code."""

    def __init__(
        self,
        n_estimators: int = 24,
        max_depth: int = 16,
        random_state: int = 0,
        ngram_dims: int = 256,
        use_chain: bool = True,
        n_jobs: int = 1,
    ) -> None:
        self.extractor = FeatureExtractor(level=1, ngram_dims=ngram_dims)
        factory = ForestSpec(
            n_estimators=n_estimators,
            max_depth=max_depth,
            random_state=random_state,
            n_jobs=n_jobs,
        )
        model_cls = ClassifierChain if use_chain else BinaryRelevance
        self.model = model_cls(n_labels=len(LEVEL1_LABELS), factory=factory)
        self.fitted = False

    # -- training ---------------------------------------------------------------

    def fit(self, sources: list[str], Y: np.ndarray) -> "Level1Detector":
        """Train on sources with multi-hot (regular, minified, obfuscated) rows."""
        X = self.extractor.extract_matrix(sources)
        self.model.fit(X, Y)
        self.fitted = True
        return self

    def fit_features(self, X: np.ndarray, Y: np.ndarray) -> "Level1Detector":
        """Train on pre-extracted features (used by experiment harnesses)."""
        self.model.fit(X, Y)
        self.fitted = True
        return self

    # -- inference ----------------------------------------------------------------

    def predict_proba(self, sources: list[str]) -> np.ndarray:
        """(n, 3) probabilities for (regular, minified, obfuscated)."""
        self._check()
        X = self.extractor.extract_matrix(sources)
        return self.model.predict_proba(X)

    def predict_proba_features(self, X: np.ndarray) -> np.ndarray:
        """Probabilities from pre-extracted feature rows."""
        self._check()
        return self.model.predict_proba(X)

    def predict_labels(self, sources: list[str]) -> list[set[str]]:
        """Per-file label sets; may contain several labels (§III-C)."""
        proba = self.predict_proba(sources)
        return self.labels_from_proba(proba)

    def predict_labels_features(self, X: np.ndarray) -> list[set[str]]:
        """Label sets from pre-extracted feature rows (batch-engine path)."""
        return self.labels_from_proba(self.predict_proba_features(X))

    @staticmethod
    def labels_from_proba(proba: np.ndarray) -> list[set[str]]:
        results: list[set[str]] = []
        for row in proba:
            labels = {name for name, p in zip(LEVEL1_LABELS, row) if p >= 0.5}
            if not labels:
                labels = {LEVEL1_LABELS[int(np.argmax(row))]}
            results.append(labels)
        return results

    def is_transformed(self, sources: list[str]) -> np.ndarray:
        """Boolean vector: flagged obfuscated and/or minified."""
        labels = self.predict_labels(sources)
        return np.array(
            [bool(ls & {"minified", "obfuscated"}) for ls in labels], dtype=bool
        )

    def _check(self) -> None:
        if not self.fitted:
            raise RuntimeError("Level1Detector must be fitted first")
