"""Model ownership for the service: load, lease, hot-reload, drain.

The registry holds exactly one *current* :class:`LoadedModel` (detector +
shared :class:`~repro.detector.batch.BatchInferenceEngine`).  Batches
pin the model they run on through :meth:`ModelRegistry.acquire` /
:meth:`~ModelRegistry.release` leases, so a ``reload`` swaps the current
pointer atomically while in-flight batches finish on the model they
started with — the old model drains and is released when its last lease
drops.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.detector.batch import BatchInferenceEngine
from repro.detector.pipeline import (
    MODEL_FORMAT_VERSION,
    ModelFormatError,
    TransformationDetector,
)
from repro.obs import MetricsRegistry


@dataclass
class LoadedModel:
    """One loaded detector plus its shared inference engine."""

    detector: TransformationDetector
    engine: BatchInferenceEngine
    version: int
    source: str
    loaded_at: float = field(default_factory=time.time)
    refs: int = 0

    def info(self) -> dict:
        return {
            "version": self.version,
            "source": self.source,
            "loaded_at": round(self.loaded_at, 3),
            "format_version": MODEL_FORMAT_VERSION,
            "level1_features": self.detector.level1.extractor.n_features,
            "level2_features": self.detector.level2.extractor.n_features,
        }


class ModelRegistry:
    """Owns the served model; supports atomic hot-reload with drain.

    Parameters
    ----------
    detector:
        An already-trained detector to serve (e.g. the CLI's throwaway
        fallback).  Either this or ``path`` must be given.
    path:
        Artifact to load via :meth:`TransformationDetector.load` — and the
        default artifact for :meth:`reload`.
    engine_factory:
        ``detector -> engine`` override (tests inject instrumented
        engines); the registry wires ``engine.observer`` to the metrics
        registry either way.
    """

    def __init__(
        self,
        detector: TransformationDetector | None = None,
        path: str | None = None,
        engine_factory: Callable[[TransformationDetector], BatchInferenceEngine] | None = None,
        metrics: MetricsRegistry | None = None,
        n_workers: int = 1,
        cache_size: int = 4096,
        triage: str = "off",
    ) -> None:
        if detector is None and path is None:
            raise ValueError("ModelRegistry needs a detector or a path")
        self.metrics = metrics or MetricsRegistry()
        self._engine_factory = engine_factory or (
            lambda det: BatchInferenceEngine(
                det, n_workers=n_workers, cache_size=cache_size, triage=triage
            )
        )
        self._lock = threading.Lock()
        self._reloads = 0
        self.path = path
        if detector is None:
            detector = TransformationDetector.load(path)  # may raise ModelFormatError
        self._current = self._build(detector, path or "<in-memory>", version=1)

    def _build(self, detector: TransformationDetector, source: str, version: int) -> LoadedModel:
        engine = self._engine_factory(detector)
        engine.observer = self.metrics.observe_batch
        self.metrics.set_gauge("model_version", version)
        return LoadedModel(detector=detector, engine=engine, version=version, source=source)

    # -- leases ----------------------------------------------------------------

    def acquire(self) -> LoadedModel:
        """Pin the current model for one batch (pairs with :meth:`release`)."""
        with self._lock:
            model = self._current
            model.refs += 1
            return model

    def release(self, model: LoadedModel) -> None:
        with self._lock:
            model.refs -= 1
            if model.refs == 0 and model is not self._current:
                self.metrics.inc("models_drained_total")

    @property
    def current(self) -> LoadedModel:
        with self._lock:
            return self._current

    # -- reload ---------------------------------------------------------------

    def reload(self, path: str | None = None) -> dict:
        """Atomically swap in a fresh artifact; old model drains.

        Loading and validation happen *outside* the lock (they are slow);
        only the pointer swap is locked.  Raises :class:`ModelFormatError`
        / ``OSError`` on a bad artifact, in which case the current model
        keeps serving untouched.
        """
        target = path or self.path
        if target is None:
            raise ModelFormatError(
                "no artifact path: the served model was trained in-memory and "
                "no 'path' was given to reload from"
            )
        detector = TransformationDetector.load(target)
        with self._lock:
            old = self._current
            self._current = self._build(detector, str(target), version=old.version + 1)
            self.path = str(target)
            self._reloads += 1
            draining = old.refs
        self.metrics.inc("reloads_total")
        return {
            "old": {"version": old.version, "draining_batches": draining},
            "new": self._current.info(),
        }

    def info(self) -> dict:
        """The ``GET /model`` payload."""
        with self._lock:
            payload = self._current.info()
            payload["reloads"] = self._reloads
            payload["active_batches"] = self._current.refs
        return payload
