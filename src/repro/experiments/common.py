"""Shared experiment infrastructure: scaled training and corpus measurement."""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.corpus.datasets import Script
from repro.detector.batch import BatchInferenceEngine
from repro.detector.labels import LEVEL2_LABELS
from repro.detector.level1 import Level1Detector
from repro.detector.pipeline import ModelFormatError, TransformationDetector
from repro.detector.training import TrainingData


@dataclass
class Scale:
    """One experiment scale (paper-scale ≈ n_regular=21000)."""

    n_regular: int = 60
    level1_per_class: int = 30
    level2_per_technique: int = 30
    n_estimators: int = 16
    seed: int = 0

    @property
    def cache_key(self) -> str:
        return (
            f"s{self.seed}_r{self.n_regular}_l1{self.level1_per_class}"
            f"_l2{self.level2_per_technique}_e{self.n_estimators}"
        )


class ExperimentContext:
    """Caches the trained detector and training pools across experiments.

    All figure/table experiments share one §III-D-trained detector, just as
    the paper trains once (§III-D) and measures everything (§III-E, §IV)
    with the same two models.  ``cache_dir`` optionally persists the
    trained detector between processes (used by the benchmark suite).
    """

    _memory: dict[str, "ExperimentContext"] = {}

    def __init__(self, scale: Scale, n_workers: int = 1, train_jobs: int = 1) -> None:
        self.scale = scale
        self.training_data = TrainingData.build(
            n_regular=scale.n_regular, seed=scale.seed
        )
        self.detector = TransformationDetector(
            n_estimators=scale.n_estimators,
            random_state=scale.seed,
            n_jobs=train_jobs,
        )
        self.detector.train(
            training_data=self.training_data,
            seed=scale.seed,
            level1_per_class=scale.level1_per_class,
            level2_per_technique=scale.level2_per_technique,
        )
        self.engine = self.detector.batch_engine(n_workers=n_workers)

    @classmethod
    def get(
        cls,
        scale: Scale,
        cache_dir: str | Path | None = None,
        n_workers: int = 1,
        train_jobs: int = 1,
    ) -> "ExperimentContext":
        key = scale.cache_key
        if key in cls._memory:
            context = cls._memory[key]
            context.engine.n_workers = max(1, n_workers)
            return context
        if cache_dir is not None:
            path = Path(cache_dir) / f"detector_{key}.pkl"
            if path.exists():
                try:
                    detector = TransformationDetector.load(path)
                except (ModelFormatError, EOFError, pickle.UnpicklingError, AttributeError, TypeError):
                    path.unlink(missing_ok=True)  # corrupt cache: retrain
                else:
                    context = cls.__new__(cls)
                    context.scale = scale
                    context.training_data = TrainingData.build(
                        n_regular=scale.n_regular, seed=scale.seed
                    )
                    context.detector = detector
                    context.engine = detector.batch_engine(n_workers=n_workers)
                    cls._memory[key] = context
                    return context
        context = cls(scale, n_workers=n_workers, train_jobs=train_jobs)
        cls._memory[key] = context
        if cache_dir is not None:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
            context.detector.save(Path(cache_dir) / f"detector_{key}.pkl")
        return context


@dataclass
class CorpusMeasurement:
    """What the detector reports about one corpus (the §IV methodology)."""

    n_scripts: int
    transformed_rate: float
    minified_rate: float
    obfuscated_rate: float
    #: mean level-2 confidence per technique over transformed scripts
    technique_probability: dict[str, float]
    #: per-script transformed verdicts, aligned with the input order
    transformed_mask: np.ndarray
    #: fraction of containers (sites/packages) with ≥1 transformed script
    container_rate: float
    #: scripts that failed extraction (counted as not transformed)
    n_errors: int = 0


def measure_corpus(
    detector: TransformationDetector,
    scripts: list[Script],
    engine: BatchInferenceEngine | None = None,
    n_workers: int = 1,
) -> CorpusMeasurement:
    """Run both detector levels over a corpus, §IV-B style.

    Technique prevalence is "the average probability of a given technique
    being used, based on our detector confidence score" over the scripts
    reported as transformed (the paper's Figure 2/3/5 metric).

    Extraction goes through the batch engine: each script is parsed once
    and projected into both vector spaces, unparseable scripts become
    per-file errors (counted as not transformed) instead of aborting the
    measurement, and a shared ``engine`` carries its LRU feature cache
    across corpora (near-duplicate "waves", longitudinal snapshots).
    """
    sources = [script.source for script in scripts]
    if engine is None:
        engine = detector.batch_engine(n_workers=n_workers)
    features = engine.extract(sources)

    n = len(sources)
    minified = np.zeros(n, dtype=bool)
    obfuscated = np.zeros(n, dtype=bool)
    if features.ok_indices:
        proba1 = detector.level1.predict_proba_features(features.X1)
        for index, labels in zip(
            features.ok_indices, Level1Detector.labels_from_proba(proba1)
        ):
            minified[index] = "minified" in labels
            obfuscated[index] = "obfuscated" in labels
    transformed = minified | obfuscated

    technique_probability = {name: 0.0 for name in LEVEL2_LABELS}
    transformed_rows = np.array(
        [transformed[index] for index in features.ok_indices], dtype=bool
    )
    if transformed_rows.any():
        proba = detector.level2.predict_proba_features(features.X2[transformed_rows])
        means = proba.mean(axis=0)
        technique_probability = {
            name: float(mean) for name, mean in zip(LEVEL2_LABELS, means)
        }

    containers = {}
    for script, is_transformed in zip(scripts, transformed):
        if script.container >= 0:
            containers.setdefault(script.container, False)
            if is_transformed:
                containers[script.container] = True
    container_rate = (
        sum(containers.values()) / len(containers) if containers else 0.0
    )

    return CorpusMeasurement(
        n_scripts=len(scripts),
        transformed_rate=float(transformed.mean()) if n else 0.0,
        minified_rate=float(minified.mean()) if n else 0.0,
        obfuscated_rate=float(obfuscated.mean()) if n else 0.0,
        technique_probability=technique_probability,
        transformed_mask=transformed,
        container_rate=container_rate,
        n_errors=features.stats.errors,
    )
