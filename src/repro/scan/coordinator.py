"""Scan coordinator: manifest sharding and work-stealing dispatch.

The coordinator drains the ingestion stream exactly once, deduplicates
on content hash as units flow past, probes the content-addressed store
(incremental mode skips every hash an identical engine already
classified), and packs the remaining *miss* units into fixed-size
shards.  Shards go to a process pool through one shared queue — many
more shards than workers, so an idle worker always pulls the next
unclaimed shard (work stealing via global queue) and a straggler shard
never idles the rest of the pool.  ``n_workers=1`` processes shards
in-process through the identical code path.

Memory stays bounded at crawl scale: sources live only inside the
in-flight shard buffers (at most ``n_workers * PIPELINE_DEPTH + 1``
shards), while the global dedupe set holds hashes, not sources.

Crash story: unit durability lives in the store (atomic per-unit puts
by the workers), the manifest streams to disk as ingestion proceeds,
and shard logs carry periodic checkpoint records.  Re-running the same
scan after a kill — or over an unchanged corpus — skips every persisted
hash and completes only the remainder; the merged report is
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.corpus.filters import MAX_BYTES
from repro.detector.level2 import DEFAULT_K, DEFAULT_THRESHOLD
from repro.obs import MetricsRegistry
from repro.scan.manifest import ScanUnit, iter_ingest
from repro.scan.store import ResultStore
from repro.scan.worker import (
    ShardOutcome,
    ShardTask,
    ShardWorker,
    WorkerConfig,
    _init_worker,
    _process_shard,
)

#: in-flight shards per worker before the coordinator back-pressures.
PIPELINE_DEPTH = 4


@dataclass
class ScanConfig:
    """Everything one scan run needs (CLI flags map 1:1 onto this)."""

    roots: list[str]
    store: str
    model_path: str | None = None  #: ``None`` => model-free rules-only scan
    triage: str = "off"  #: engine triage mode when a model is present
    deob: bool = False
    fingerprint: bool = True
    n_workers: int = 1
    shard_size: int = 256
    incremental: bool = True  #: probe the store and skip identical-engine hits
    k: int = DEFAULT_K
    threshold: float = DEFAULT_THRESHOLD
    max_source_bytes: int | None = MAX_BYTES
    checkpoint_every: int = 32
    on_shard: Callable[[ShardOutcome, MetricsRegistry], Any] | None = None


@dataclass
class ScanStats:
    """Aggregate counters for one scan run (progress + acceptance)."""

    units_seen: int = 0  #: manifest unit events, duplicates included
    unique: int = 0  #: distinct content hashes
    duplicates: int = 0
    skipped_store: int = 0  #: unique hashes skipped via the store
    scanned: int = 0  #: unique hashes classified this run
    ok: int = 0
    errors: int = 0
    triaged: int = 0
    deob_changed: int = 0
    external_refs: int = 0
    ingest_errors: int = 0
    shards: int = 0
    wall_time: float = 0.0
    error_kinds: dict[str, int] = field(default_factory=dict)

    @property
    def skip_rate(self) -> float:
        """Fraction of unique hashes the store answered (incremental hit rate)."""
        return self.skipped_store / self.unique if self.unique else 0.0

    @property
    def files_per_sec(self) -> float:
        return self.scanned / self.wall_time if self.wall_time else 0.0

    def __str__(self) -> str:
        return (
            f"{self.units_seen} units ({self.unique} unique, "
            f"{self.skipped_store} skipped via store, {self.scanned} scanned: "
            f"{self.ok} ok / {self.errors} errors) in {self.wall_time:.2f}s "
            f"across {self.shards} shard(s)"
        )


def _digest_file(path: str | Path) -> str:
    """Short content digest of a model artifact (engine-key component)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


class ScanCoordinator:
    """Drive one scan run: ingest → dedupe → probe store → shard → merge-ready."""

    def __init__(self, config: ScanConfig, metrics: MetricsRegistry | None = None) -> None:
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.store = ResultStore(config.store)
        self.worker_config = WorkerConfig(
            store_root=str(config.store),
            model_path=config.model_path,
            model_digest=(
                _digest_file(config.model_path) if config.model_path else ""
            ),
            triage=config.triage if config.model_path else "only",
            deob=config.deob,
            fingerprint=config.fingerprint,
            k=config.k,
            threshold=config.threshold,
            max_source_bytes=config.max_source_bytes,
            checkpoint_every=config.checkpoint_every,
        )

    @property
    def engine_key(self) -> str:
        return self.worker_config.engine_key

    # -- shard plumbing --------------------------------------------------------

    def _fold(self, outcome: ShardOutcome, stats: ScanStats) -> None:
        stats.shards += 1
        stats.scanned += outcome.units
        stats.ok += outcome.ok
        stats.errors += outcome.errors
        stats.triaged += outcome.triaged
        stats.deob_changed += outcome.deob_changed
        for kind, count in outcome.error_kinds.items():
            stats.error_kinds[kind] = stats.error_kinds.get(kind, 0) + count
        metrics = self.metrics
        metrics.inc("scan_shards_done_total")
        metrics.inc("scan_units_scanned_total", outcome.units)
        metrics.inc("scan_units_ok_total", outcome.ok)
        metrics.inc("scan_unit_errors_total", outcome.errors)
        metrics.inc("scan_units_triaged_total", outcome.triaged)
        if self.config.on_shard is not None:
            try:
                self.config.on_shard(outcome, metrics)
            except Exception:  # noqa: BLE001 - observability must not kill a scan
                pass

    def run(self) -> ScanStats:
        """Execute the scan; returns aggregate stats (results are in the store)."""
        config = self.config
        stats = ScanStats()
        t0 = time.perf_counter()
        run_dir = self.store.next_run_dir()
        engine_key = self.engine_key

        seen: set[str] = set()
        buffer: list[ScanUnit] = []
        shard_index = 0

        executor: ProcessPoolExecutor | None = None
        pending: set[Future] = set()
        serial_worker: ShardWorker | None = None
        if config.n_workers > 1:
            executor = ProcessPoolExecutor(
                max_workers=config.n_workers,
                initializer=_init_worker,
                initargs=(self.worker_config,),
            )
        else:
            serial_worker = ShardWorker(self.worker_config)

        def dispatch() -> None:
            nonlocal shard_index
            if not buffer:
                return
            task = ShardTask(
                index=shard_index,
                units=tuple(buffer),
                log_path=str(run_dir / f"shard-{shard_index:04d}.jsonl"),
            )
            shard_index += 1
            buffer.clear()
            self.metrics.inc("scan_shards_total")
            if executor is None:
                assert serial_worker is not None
                self._fold(serial_worker.process(task), stats)
            else:
                pending.add(executor.submit(_process_shard, task))

        def drain(max_pending: int) -> None:
            while len(pending) > max_pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    pending.discard(future)
                    self._fold(future.result(), stats)

        try:
            with self.store.open_manifest_writer() as manifest:
                for event_kind, payload in iter_ingest(
                    config.roots, max_bytes=config.max_source_bytes or MAX_BYTES
                ):
                    manifest.write(payload.provenance())
                    if event_kind == "external":
                        stats.external_refs += 1
                        self.metrics.inc("scan_external_refs_total")
                        continue
                    if event_kind == "error":
                        stats.ingest_errors += 1
                        self.metrics.inc("scan_ingest_errors_total")
                        continue
                    unit = payload
                    stats.units_seen += 1
                    self.metrics.inc("scan_units_total")
                    if unit.sha256 in seen:
                        stats.duplicates += 1
                        continue
                    seen.add(unit.sha256)
                    stats.unique += 1
                    if config.incremental and self.store.has(unit.sha256, engine_key):
                        stats.skipped_store += 1
                        self.metrics.inc("scan_store_hits_total")
                        continue
                    buffer.append(unit)
                    if len(buffer) >= config.shard_size:
                        dispatch()
                        if executor is not None:
                            drain(config.n_workers * PIPELINE_DEPTH)
                dispatch()
                drain(0)
        finally:
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)

        stats.wall_time = time.perf_counter() - t0
        self.metrics.set_gauge("scan_skip_rate", round(stats.skip_rate, 6))
        self.metrics.set_gauge("scan_files_per_sec", round(stats.files_per_sec, 3))
        return stats
