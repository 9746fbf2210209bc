"""Single-pass, parallel, fault-isolated batch inference engine.

The paper's measurement study (§IV) classifies hundreds of thousands of
scripts; this module provides the substrate for that scale:

- **one-pass extraction** — each source is parsed and flow-enhanced exactly
  once, then projected into both the level-1 and level-2 vector spaces via
  :class:`~repro.features.extractor.PairedFeatureExtractor`;
- **parallel extraction** — feature extraction (the dominant cost) fans out
  across a ``ProcessPoolExecutor``; ``n_workers=1`` is an in-process serial
  fallback with bit-identical output;
- **per-file fault isolation** — parse errors, ``RecursionError``,
  oversize inputs and deob work-budget trips become per-file
  :class:`DetectionError` results instead of aborting the batch;
- **LRU feature cache** — keyed by source hash, so repeated scripts (the
  §IV-C malicious "waves" are near-duplicates) skip extraction entirely;
- **rules-only triage** — the signature engine (``repro.rules``) can
  pre-empt extraction: in ``prefilter`` mode a decisive text/token-stage
  finding short-circuits the full pipeline for that file, and in ``only``
  mode every verdict comes from staged rule evaluation with no model at
  all (the engine then works without a detector).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.corpus.filters import MAX_BYTES
from repro.detector.level1 import Level1Detector
from repro.detector.level2 import DEFAULT_K, DEFAULT_THRESHOLD, Level2Detector
from repro.features.extractor import PairedFeatureExtractor
from repro.outcome import DEOB_WORK_BUDGET, DetectionError, FileOutcome, detection_error
from repro.rules.engine import RuleEngine, TriageResult, default_engine
from repro.rules.findings import Finding, max_confidence_by_technique
from repro.transform.base import OBFUSCATION_TECHNIQUES, Technique

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.detector.pipeline import DetectionResult, TransformationDetector

#: Triage modes accepted by :class:`BatchInferenceEngine`.
TRIAGE_MODES = ("off", "prefilter", "only")


@dataclass
class BatchStats:
    """Summary counters for one batch run."""

    files: int = 0
    ok: int = 0
    errors: int = 0
    cache_hits: int = 0
    df_timeouts: int = 0
    #: files whose flow analysis (DFG pair cap or interproc budget) degraded
    flow_timeouts: int = 0
    wall_time: float = 0.0
    extract_time: float = 0.0
    predict_time: float = 0.0
    n_workers: int = 1
    #: files whose verdict came from the rules-only triage path
    triage_hits: int = 0
    #: wall time spent inside staged rule evaluation
    rules_time: float = 0.0
    #: findings per rule id across the whole batch
    rule_hits: dict[str, int] = field(default_factory=dict)
    #: files normalized through the deobfuscation pipeline (``deob=True``)
    deob_files: int = 0
    #: deob pass applications across the batch (pass fired and changed code)
    deob_passes: int = 0
    #: technique signatures removed by normalization across the batch
    deob_removals: int = 0
    #: wall time spent inside the deobfuscation engine
    deob_time: float = 0.0

    @property
    def triage_rate(self) -> float:
        """Fraction of the batch short-circuited by triage."""
        return self.triage_hits / self.files if self.files else 0.0

    def count_findings(self, findings: list[Finding]) -> None:
        for finding in findings:
            self.rule_hits[finding.rule_id] = self.rule_hits.get(finding.rule_id, 0) + 1

    def __str__(self) -> str:
        extra = ""
        if self.triage_hits:
            extra = f", {self.triage_hits} triaged"
        return (
            f"{self.files} files ({self.ok} ok, {self.errors} errors, "
            f"{self.cache_hits} cache hits, {self.df_timeouts} DF timeouts"
            f"{extra}) in {self.wall_time:.2f}s with {self.n_workers} worker(s)"
        )


@dataclass
class BatchFeatures:
    """Both feature matrices for a batch, plus per-file error records.

    ``X1``/``X2`` rows are aligned with ``ok_indices`` (positions into the
    original source list); files that failed extraction appear in ``errors``
    instead and have no feature rows.  ``findings`` (aligned with
    ``ok_indices``) carries the signature-engine evidence computed during
    the same pass.
    """

    X1: np.ndarray
    X2: np.ndarray
    ok_indices: list[int]
    errors: dict[int, DetectionError]
    df_available: list[bool]
    stats: BatchStats
    findings: list[list[Finding]] = field(default_factory=list)
    #: per-ok-file flag: some flow analysis degraded (aligned with ok_indices)
    flow_timeout: list[bool] = field(default_factory=list)


@dataclass
class BatchResult:
    """Per-file detection results (input order) plus batch statistics."""

    results: list["DetectionResult"]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator["DetectionResult"]:
        return iter(self.results)

    def __getitem__(self, index: int) -> "DetectionResult":
        return self.results[index]


def _extract_one(
    paired: PairedFeatureExtractor, max_bytes: int | None, source: str
) -> FileOutcome:
    """Extract both vectors for one source; never raises (fault isolation)."""
    if max_bytes is not None:
        size = len(source.encode("utf-8", errors="replace"))
        if size > max_bytes:
            return FileOutcome(
                error=DetectionError(
                    "oversize", f"{size} bytes exceeds limit of {max_bytes}"
                )
            )
    try:
        return paired.extract_pair(source)
    except Exception as error:  # noqa: BLE001 - one file must not kill a batch
        return FileOutcome(error=detection_error(error))


#: per-process deob engine for pool workers (built once, reused per file).
_POOL_DEOB_ENGINE = None


def _deob_one(source: str):
    """Pool worker entry point: normalize one source through a process-local engine.

    The engine is constructed lazily inside the worker (the default
    catalog engine — custom rule engines keep the serial path) so the
    expensive pass pipeline never crosses the pickle boundary.
    """
    global _POOL_DEOB_ENGINE
    if _POOL_DEOB_ENGINE is None:
        from repro.deob import DeobEngine

        _POOL_DEOB_ENGINE = DeobEngine()
    return _timed_deob(_POOL_DEOB_ENGINE, source)


def _timed_deob(engine, source: str):
    """``engine.run(source)`` with ``report.wall_time_ms`` measured here:
    the deob engine reads no clock."""
    started = time.perf_counter()
    result = engine.run(source)
    result.report.wall_time_ms = (time.perf_counter() - started) * 1000
    return result


def _map_chunk(function: Callable, chunk: list) -> list:
    return [function(item) for item in chunk]


def pool_map(
    function: Callable, items: list, n_workers: int, chunk_size: int | None = None
) -> list:
    """``[function(item) for item in items]`` across a process pool, in order.

    Items go out in chunks (``None`` sizes them to about four per worker)
    so the per-dispatch pickling cost is paid per chunk, not per item.
    ``function`` must be picklable: module-level, or a ``partial`` of one.
    """
    size = chunk_size or max(1, -(-len(items) // (n_workers * 4)))
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    results: list = []
    with ProcessPoolExecutor(max_workers=n_workers) as executor:
        for chunk_results in executor.map(partial(_map_chunk, function), chunks):
            results.extend(chunk_results)
    return results


class BatchInferenceEngine:
    """Classify many scripts through both detector levels, at corpus scale.

    Parameters
    ----------
    detector:
        A trained :class:`~repro.detector.pipeline.TransformationDetector`,
        or ``None`` for a model-free engine (requires ``triage="only"``).
    n_workers:
        Process-pool width for feature extraction.  ``1`` (the default)
        runs serially in-process and produces bit-identical output.
    cache_size:
        Maximum number of per-source extraction outcomes kept in the LRU
        cache (``0`` disables caching).
    max_source_bytes:
        Inputs larger than this become ``oversize`` error results instead
        of being parsed (defaults to the paper's 2 MB admission bound);
        ``None`` disables the check.
    chunk_size:
        Sources per worker dispatch; ``None`` auto-sizes to roughly four
        chunks per worker.
    observer:
        Optional callable invoked with the final :class:`BatchStats` after
        every :meth:`classify` run (the serving stack wires the metrics
        registry here).  Observer failures never fail a batch.
    triage:
        ``"off"`` (default) runs the full pipeline for every file;
        ``"prefilter"`` runs the cheap text/token rule stages first and
        short-circuits extraction when a decisive signature fires;
        ``"only"`` classifies every file from staged rule evaluation
        alone — no feature extraction, no model inference.
    rule_engine:
        The :class:`~repro.rules.engine.RuleEngine` used for triage
        (defaults to the shared catalog engine).
    """

    def __init__(
        self,
        detector: "TransformationDetector | None",
        n_workers: int = 1,
        cache_size: int = 1024,
        max_source_bytes: int | None = MAX_BYTES,
        chunk_size: int | None = None,
        observer: Any | None = None,
        triage: str = "off",
        rule_engine: RuleEngine | None = None,
    ) -> None:
        if triage not in TRIAGE_MODES:
            raise ValueError(f"triage must be one of {TRIAGE_MODES}, not {triage!r}")
        if detector is None and triage != "only":
            raise ValueError("a model-free engine requires triage='only'")
        self.detector = detector
        self.paired = (
            PairedFeatureExtractor(detector.level1.extractor, detector.level2.extractor)
            if detector is not None
            else None
        )
        self.n_workers = max(1, int(n_workers))
        self.cache_size = max(0, int(cache_size))
        self.max_source_bytes = max_source_bytes
        self.chunk_size = chunk_size
        self.observer = observer
        self.triage = triage
        self._default_rules = rule_engine is None
        self.rules = rule_engine or default_engine()
        self._cache: OrderedDict[str, FileOutcome] = OrderedDict()
        self._deob_engine = None

    @property
    def deob_engine(self):
        """Lazily-built shared :class:`~repro.deob.engine.DeobEngine`."""
        if self._deob_engine is None:
            from repro.deob import DeobEngine

            self._deob_engine = DeobEngine(rules=self.rules)
        return self._deob_engine

    # -- cache ---------------------------------------------------------------

    @staticmethod
    def _key(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8", errors="replace")).hexdigest()

    def _cache_get(self, key: str) -> FileOutcome | None:
        outcome = self._cache.get(key)
        if outcome is not None:
            self._cache.move_to_end(key)
        return outcome

    def _cache_put(self, key: str, outcome: FileOutcome) -> None:
        if self.cache_size <= 0:
            return
        self._cache[key] = outcome
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def cache_clear(self) -> None:
        self._cache.clear()

    # -- extraction ----------------------------------------------------------

    def _parallel(self, sources: list[str]) -> bool:
        return self.n_workers > 1 and len(sources) > 1

    def _run_extraction(self, sources: list[str]) -> list[FileOutcome]:
        """Extract unique cache-miss sources, serially or across workers."""
        extract = partial(_extract_one, self.paired, self.max_source_bytes)
        if not self._parallel(sources):
            return [extract(source) for source in sources]
        return pool_map(extract, sources, self.n_workers, self.chunk_size)

    def extract(self, sources: list[str]) -> BatchFeatures:
        """One-pass feature extraction for a batch (both vector spaces)."""
        if self.paired is None:
            raise ValueError("model-free engine (triage='only') cannot extract features")
        t0 = time.perf_counter()
        stats = BatchStats(files=len(sources), n_workers=self.n_workers)
        outcomes: list[FileOutcome | None] = [None] * len(sources)

        # Dedupe by source hash: each distinct script is extracted at most
        # once per batch, and cached outcomes skip extraction entirely.
        pending: dict[str, list[int]] = {}
        miss_order: list[tuple[str, str]] = []
        for index, source in enumerate(sources):
            key = self._key(source)
            cached = self._cache_get(key)
            if cached is not None:
                outcomes[index] = cached
                stats.cache_hits += 1
                continue
            if key in pending:
                stats.cache_hits += 1  # in-batch duplicate: extracted once
            else:
                miss_order.append((key, source))
            pending.setdefault(key, []).append(index)

        fresh = self._run_extraction([source for _key, source in miss_order])
        for (key, _source), outcome in zip(miss_order, fresh):
            self._cache_put(key, outcome)
            for index in pending[key]:
                outcomes[index] = outcome

        ok_indices: list[int] = []
        errors: dict[int, DetectionError] = {}
        df_available: list[bool] = []
        flow_timeout: list[bool] = []
        findings: list[list[Finding]] = []
        rows1: list[np.ndarray] = []
        rows2: list[np.ndarray] = []
        for index, outcome in enumerate(outcomes):
            if outcome.error is not None:
                errors[index] = outcome.error
                continue
            ok_indices.append(index)
            rows1.append(outcome.vector1)
            rows2.append(outcome.vector2)
            df_available.append(outcome.df_available)
            flow_timeout.append(outcome.flow_timeout)
            findings.append(outcome.findings)
            if not outcome.df_available:
                stats.df_timeouts += 1
            if outcome.flow_timeout:
                stats.flow_timeouts += 1
        stats.ok = len(ok_indices)
        stats.errors = len(errors)

        X1 = (
            np.vstack(rows1)
            if rows1
            else np.zeros((0, self.paired.level1.n_features), dtype=np.float64)
        )
        X2 = (
            np.vstack(rows2)
            if rows2
            else np.zeros((0, self.paired.level2.n_features), dtype=np.float64)
        )
        stats.wall_time = time.perf_counter() - t0
        stats.extract_time = stats.wall_time
        return BatchFeatures(
            X1=X1,
            X2=X2,
            ok_indices=ok_indices,
            errors=errors,
            df_available=df_available,
            stats=stats,
            findings=findings,
            flow_timeout=flow_timeout,
        )

    def _run_deob(self, sources: list[str]) -> list:
        """Normalize a batch, fanning out across the worker pool when it pays.

        With ``n_workers > 1`` deobfuscation runs inside process-pool
        workers, with results bit-identical to the serial path (gated in
        tests).  Engines built with a custom rule engine keep the serial
        path, because pool workers use the shared default catalog.
        """
        if not self._parallel(sources) or not self._default_rules:
            return [_timed_deob(self.deob_engine, source) for source in sources]
        return pool_map(_deob_one, sources, self.n_workers, self.chunk_size)

    # -- rules-only triage ------------------------------------------------------

    def _result_from_triage(
        self, triage: TriageResult, k: int, threshold: float
    ) -> "DetectionResult":
        """Synthesise a :class:`DetectionResult` from rule findings alone."""
        from repro.detector.pipeline import DetectionResult

        if triage.error is not None:
            return DetectionResult(
                level1=set(),
                transformed=False,
                error=triage.error,
                findings=triage.findings,
                triaged=True,
            )
        best = max_confidence_by_technique(triage.findings)
        ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
        techniques = [(name, conf) for name, conf in ranked[:k] if conf >= threshold]
        level1 = {
            "obfuscated" if Technique(name) in OBFUSCATION_TECHNIQUES else "minified"
            for name, _conf in techniques
        }
        return DetectionResult(
            level1=level1,
            transformed=bool(level1),
            techniques=techniques,
            findings=triage.findings,
            triaged=True,
        )

    # -- classification --------------------------------------------------------

    def classify(
        self,
        sources: list[str],
        k: int = DEFAULT_K,
        threshold: float = DEFAULT_THRESHOLD,
        deob: bool = False,
    ) -> BatchResult:
        """Two-level classification of a batch with per-file fault isolation.

        ``deob=True`` first normalizes every script through the
        :class:`~repro.deob.engine.DeobEngine` (never raises; a script the
        deobfuscator cannot improve passes through unchanged), classifies
        the normal forms, and attaches each
        :class:`~repro.deob.engine.DeobResult` to its
        :class:`DetectionResult`.  With ``n_workers > 1`` normalization
        fans out across the process pool instead of serializing on the
        calling thread (bit-identical to the serial path).
        """
        from repro.detector.pipeline import DetectionResult

        t0 = time.perf_counter()
        stats = BatchStats(files=len(sources), n_workers=self.n_workers)
        results: list[Any] = [None] * len(sources)

        deob_results = None
        if deob:
            t_deob = time.perf_counter()
            deob_results = self._run_deob(sources)
            sources = [outcome.source for outcome in deob_results]
            stats.deob_files = len(sources)
            stats.deob_passes = sum(
                len(outcome.report.passes_applied) for outcome in deob_results
            )
            stats.deob_removals = sum(
                len(outcome.report.techniques_removed) for outcome in deob_results
            )
            stats.deob_time = time.perf_counter() - t_deob
            # A work-budget trip or an internal fault is an explicit error,
            # never a verdict on the input the run gave up on.
            for index, outcome in enumerate(deob_results):
                bailed = outcome.report.bailed
                if bailed in ("work-budget", "internal"):
                    error = (
                        DEOB_WORK_BUDGET
                        if bailed == "work-budget"
                        else DetectionError("internal", outcome.report.error)
                    )
                    results[index] = DetectionResult(level1=set(), transformed=False, error=error)

        if self.triage != "off":
            t_rules = time.perf_counter()
            deep = "auto" if self.triage == "only" else False
            for index, source in enumerate(sources):
                if results[index] is not None:
                    continue
                triage = self.rules.triage(source, deep=deep)
                if self.triage == "only" or triage.decided:
                    results[index] = self._result_from_triage(triage, k, threshold)
                    if triage.decided:
                        stats.triage_hits += 1
            stats.rules_time = time.perf_counter() - t_rules

        remaining = [index for index, result in enumerate(results) if result is None]
        if remaining:
            features = self.extract([sources[index] for index in remaining])
            sub = features.stats
            stats.cache_hits += sub.cache_hits
            stats.df_timeouts += sub.df_timeouts
            stats.flow_timeouts += sub.flow_timeouts
            stats.extract_time += sub.extract_time
            for position, error in features.errors.items():
                results[remaining[position]] = DetectionResult(
                    level1=set(), transformed=False, techniques=[], error=error
                )

            t_predict = time.perf_counter()
            if features.ok_indices:
                proba1 = self.detector.level1.predict_proba_features(features.X1)
                label_sets = Level1Detector.labels_from_proba(proba1)
                transformed_mask = np.array(
                    [bool(ls & {"minified", "obfuscated"}) for ls in label_sets],
                    dtype=bool,
                )
                technique_lists: list[list[tuple[str, float]]] = []
                if transformed_mask.any():
                    proba2 = self.detector.level2.predict_proba_features(
                        features.X2[transformed_mask]
                    )
                    technique_lists = Level2Detector.techniques_from_proba(
                        proba2, k=k, threshold=threshold
                    )
                techniques_iter = iter(technique_lists)
                for position, labels, transformed, findings, flow_timeout in zip(
                    features.ok_indices,
                    label_sets,
                    transformed_mask,
                    features.findings,
                    features.flow_timeout,
                ):
                    techniques = next(techniques_iter) if transformed else []
                    results[remaining[position]] = DetectionResult(
                        level1=labels,
                        transformed=bool(transformed),
                        techniques=techniques,
                        findings=findings,
                        flow_timeout=flow_timeout,
                    )
            stats.predict_time = time.perf_counter() - t_predict

        if deob_results is not None:
            for result, outcome in zip(results, deob_results):
                result.deob = outcome

        for result in results:
            if result.ok:
                stats.ok += 1
            else:
                stats.errors += 1
            stats.count_findings(result.findings)
        stats.wall_time = time.perf_counter() - t0
        if self.observer is not None:
            try:
                self.observer(stats)
            except Exception:  # noqa: BLE001 - observability must not fail a batch
                pass
        return BatchResult(results=results, stats=stats)
