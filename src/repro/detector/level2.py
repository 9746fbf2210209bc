"""Level-2 detector: the ten transformation techniques (§III-C/E).

A multi-task classifier-chain over the level-2 vector space.  Production
prediction uses the paper's thresholded Top-k rule: emit the at most k
most probable techniques whose confidence exceeds 10%.
"""

from __future__ import annotations

import numpy as np

from repro.detector.labels import LEVEL2_LABELS
from repro.features.extractor import FeatureExtractor
from repro.ml.forest import ForestSpec
from repro.ml.metrics import thresholded_top_k
from repro.ml.multilabel import BinaryRelevance, ClassifierChain

#: The paper's empirically selected confidence threshold (§III-E2).
DEFAULT_THRESHOLD = 0.10
#: Default k for production predictions (§III-E3 uses Top-4).
DEFAULT_K = 4


class Level2Detector:
    """Recognise the specific transformation techniques of a file."""

    def __init__(
        self,
        n_estimators: int = 24,
        max_depth: int = 16,
        random_state: int = 0,
        ngram_dims: int = 256,
        use_chain: bool = True,
        n_jobs: int = 1,
    ) -> None:
        self.extractor = FeatureExtractor(level=2, ngram_dims=ngram_dims)
        factory = ForestSpec(
            n_estimators=n_estimators,
            max_depth=max_depth,
            random_state=random_state,
            n_jobs=n_jobs,
        )
        model_cls = ClassifierChain if use_chain else BinaryRelevance
        self.model = model_cls(n_labels=len(LEVEL2_LABELS), factory=factory)
        self.fitted = False

    def fit(self, sources: list[str], Y: np.ndarray) -> "Level2Detector":
        """Train on sources with multi-hot technique label rows."""
        X = self.extractor.extract_matrix(sources)
        self.model.fit(X, Y)
        self.fitted = True
        return self

    def fit_features(self, X: np.ndarray, Y: np.ndarray) -> "Level2Detector":
        """Train on pre-extracted features (experiment harness path)."""
        self.model.fit(X, Y)
        self.fitted = True
        return self

    def predict_proba(self, sources: list[str]) -> np.ndarray:
        """(n, 10) per-technique confidence matrix."""
        self._check()
        X = self.extractor.extract_matrix(sources)
        return self.model.predict_proba(X)

    def predict_proba_features(self, X: np.ndarray) -> np.ndarray:
        """Confidences from pre-extracted feature rows."""
        self._check()
        return self.model.predict_proba(X)

    def predict_techniques(
        self,
        sources: list[str],
        k: int = DEFAULT_K,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> list[list[tuple[str, float]]]:
        """Per-file ranked (technique, confidence) lists, thresholded Top-k."""
        proba = self.predict_proba(sources)
        return self.techniques_from_proba(proba, k=k, threshold=threshold)

    def predict_techniques_features(
        self,
        X: np.ndarray,
        k: int = DEFAULT_K,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> list[list[tuple[str, float]]]:
        """Thresholded Top-k from pre-extracted feature rows (batch-engine path)."""
        proba = self.predict_proba_features(X)
        return self.techniques_from_proba(proba, k=k, threshold=threshold)

    @staticmethod
    def techniques_from_proba(
        proba: np.ndarray, k: int = DEFAULT_K, threshold: float = DEFAULT_THRESHOLD
    ) -> list[list[tuple[str, float]]]:
        prediction = thresholded_top_k(proba, k=k, threshold=threshold)
        results: list[list[tuple[str, float]]] = []
        for row_pred, row_proba in zip(prediction, proba):
            chosen = [
                (LEVEL2_LABELS[i], float(row_proba[i]))
                for i in np.argsort(-row_proba)
                if row_pred[i]
            ]
            results.append(chosen)
        return results

    def _check(self) -> None:
        if not self.fitted:
            raise RuntimeError("Level2Detector must be fitted first")
