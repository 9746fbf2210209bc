"""The combined two-level detection pipeline (facade).

``TransformationDetector.train()`` reproduces the full §III-D protocol —
regular collection, per-technique transformation, balanced sampling — and
fits both levels.  ``classify()`` then runs a script through level 1 and,
if transformed, level 2; ``batch_engine()`` does the same for batches.
Models pickle cleanly for reuse.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.detector.batch import BatchInferenceEngine
from repro.detector.level1 import Level1Detector
from repro.detector.level2 import Level2Detector
from repro.detector.training import TrainingData
from repro.features.extractor import FeatureExtractor
from repro.outcome import DetectionError
from repro.rules.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deob.engine import DeobResult

#: Bump when the pickled artifact layout (or the feature spaces it embeds)
#: changes incompatibly; ``load()`` refuses other versions up front.
#: v2: the ``RuleFeatures`` block (signature-engine evidence) joined the
#: static feature vector of both levels.
#: v3: the ``FlowFeatures`` block (interprocedural call-graph/decoder
#: signals) joined the static feature vector of both levels.
MODEL_FORMAT = "repro-detector"
MODEL_FORMAT_VERSION = 3


class ModelFormatError(ValueError):
    """A model artifact that cannot be served by this build.

    Raised by :meth:`TransformationDetector.load` (and therefore by the
    serving model registry) when an artifact is not a detector pickle,
    carries a different format version, or records feature-space
    dimensions that this build's extractors no longer produce — instead
    of letting the mismatch surface as a shape error deep inside
    ``predict``.
    """


@dataclass
class DetectionResult:
    """Classification outcome for one script.

    ``error`` is set (and the other fields are empty) when the file could
    not be classified — batch runs isolate per-file failures instead of
    raising.  ``findings`` carries the signature-engine evidence for the
    verdict (rule hits with locations); ``triaged`` marks results decided
    by the rules-only path without model inference.  When the batch ran
    with ``deob=True``, ``deob`` carries the deobfuscation outcome
    (normalized source plus report) and the verdict describes the
    *normalized* script.
    """

    level1: set[str]
    transformed: bool
    techniques: list[tuple[str, float]] = field(default_factory=list)
    error: DetectionError | None = None
    findings: list[Finding] = field(default_factory=list)
    triaged: bool = False
    deob: "DeobResult | None" = None
    #: a flow analysis (DFG pair cap or interproc budget cap) silently
    #: degraded while extracting this file's features
    flow_timeout: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def __str__(self) -> str:
        if self.error is not None:
            return f"error ({self.error})"
        label = "regular"
        if self.transformed:
            tech = ", ".join(f"{name} ({p:.0%})" for name, p in self.techniques)
            label = f"{'/'.join(sorted(self.level1))}: {tech or 'unknown technique'}"
        if self.triaged:
            label += " [triaged]"
        if self.findings:
            label += "".join(f"\n  {finding}" for finding in self.findings)
        return label


class TransformationDetector:
    """Train-once, classify-many facade over both detector levels."""

    def __init__(
        self,
        n_estimators: int = 24,
        max_depth: int = 16,
        random_state: int = 0,
        ngram_dims: int = 256,
        use_chain: bool = True,
        n_jobs: int = 1,
    ) -> None:
        self.level1 = Level1Detector(
            n_estimators=n_estimators,
            max_depth=max_depth,
            random_state=random_state,
            ngram_dims=ngram_dims,
            use_chain=use_chain,
            n_jobs=n_jobs,
        )
        self.level2 = Level2Detector(
            n_estimators=n_estimators,
            max_depth=max_depth,
            random_state=random_state,
            ngram_dims=ngram_dims,
            use_chain=use_chain,
            n_jobs=n_jobs,
        )

    # -- training ------------------------------------------------------------

    def train(
        self,
        n_regular: int = 120,
        seed: int = 0,
        level1_per_class: int | None = None,
        level2_per_technique: int | None = None,
        training_data: TrainingData | None = None,
    ) -> "TransformationDetector":
        """Full §III-D protocol at a configurable scale."""
        data = training_data or TrainingData.build(n_regular=n_regular, seed=seed)
        rng = random.Random(seed + 17)
        per_class = level1_per_class or max(8, len(data.regular) // 2)
        per_technique = level2_per_technique or max(8, len(data.regular) // 2)
        level1_set = data.level1_set(per_class, rng)
        self.level1.fit(level1_set.sources, level1_set.Y)
        level2_set = data.level2_set(per_technique, rng)
        self.level2.fit(level2_set.sources, level2_set.Y)
        return self

    # -- inference -------------------------------------------------------------

    def classify(
        self,
        source: str,
        k: int = 4,
        threshold: float = 0.10,
        deob: bool = False,
    ) -> DetectionResult:
        """Two-stage classification of one script.

        ``deob=True`` normalizes the script through the deobfuscation
        pipeline first; the verdict then describes the normal form and
        ``result.deob`` carries the normalized source and report.  Batches
        go through :meth:`batch_engine`.
        """
        engine = self.batch_engine(cache_size=0)
        return engine.classify([source], k=k, threshold=threshold, deob=deob)[0]

    def batch_engine(self, n_workers: int = 1, **kwargs) -> BatchInferenceEngine:
        """An engine bound to this detector for batches.

        Each source is parsed once (both vector spaces come from one
        enhanced AST), invalid files yield per-file error results instead
        of raising, and ``n_workers > 1`` extracts features across a
        process pool.  The engine keeps an LRU feature cache across
        :meth:`~BatchInferenceEngine.classify` calls.
        """
        return BatchInferenceEngine(self, n_workers=n_workers, **kwargs)

    # -- persistence --------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Pickle the trained detector to ``path``, stamped with the
        artifact format version and both feature-space dimensions."""
        payload = {
            "format": MODEL_FORMAT,
            "format_version": MODEL_FORMAT_VERSION,
            "level1_features": self.level1.extractor.n_features,
            "level2_features": self.level2.extractor.n_features,
            "detector": self,
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

    @staticmethod
    def load(path: str | Path) -> "TransformationDetector":
        """Unpickle a detector, validating the format stamp.

        Raises :class:`ModelFormatError` for non-detector pickles,
        format-version mismatches, and artifacts whose recorded feature
        dimensions disagree with what this build's extractors produce
        (e.g. the static feature list changed since the model was
        trained).  Pre-stamp artifacts (a bare pickled detector) are
        still accepted.
        """
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as error:
            raise ModelFormatError(f"{path} is not a readable detector pickle: {error}")
        if isinstance(payload, TransformationDetector):
            return payload  # legacy pre-stamp artifact
        if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
            raise ModelFormatError(f"{path} does not contain a TransformationDetector")
        version = payload.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"{path} has format version {version!r}; this build expects "
                f"{MODEL_FORMAT_VERSION} — retrain or convert the artifact"
            )
        detector = payload.get("detector")
        if not isinstance(detector, TransformationDetector):
            raise ModelFormatError(f"{path} does not contain a TransformationDetector")
        for level, extractor, recorded in (
            (1, detector.level1.extractor, payload.get("level1_features")),
            (2, detector.level2.extractor, payload.get("level2_features")),
        ):
            expected = FeatureExtractor(
                level=level, ngram_dims=extractor.ngram_dims
            ).n_features
            if recorded != expected:
                raise ModelFormatError(
                    f"{path} records {recorded} level-{level} features but this "
                    f"build extracts {expected} — feature spaces have diverged; "
                    "retrain the model"
                )
        return detector
