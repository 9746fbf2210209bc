"""Micro-batching bridge between asyncio handlers and the batch engine.

Concurrent ``POST /classify`` requests enqueue individual scripts; a
single collector task gathers them into batches (flushing at
``max_batch`` scripts or after ``max_wait_ms``) and runs each batch
through the registry's shared :class:`BatchInferenceEngine` on a
dedicated one-thread executor.  That serialisation is deliberate: while
one batch is being classified the next one accumulates, so load
naturally deepens batches, and the engine's parse-once / LRU-cache /
worker-pool machinery amortises across every connected client.

Backpressure is a bounded queue: when it is full, :meth:`submit` raises
:class:`QueueFullError` and the server answers ``429`` instead of
buffering without bound.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from repro.detector.level2 import DEFAULT_K, DEFAULT_THRESHOLD
from repro.obs import MetricsRegistry
from repro.outcome import DetectionError
from repro.serve.registry import ModelRegistry


class QueueFullError(Exception):
    """The bounded request queue is at capacity (answer 429)."""


class BatcherClosedError(Exception):
    """The batcher is draining for shutdown (answer 503)."""


@dataclass
class _Item:
    source: str
    future: asyncio.Future
    enqueued_at: float
    deob: bool = False


def _classify_split(engine, plain: list[_Item], deob: list[_Item], k, threshold) -> dict:
    """Run the plain and deob sub-batches; detections keyed by ``id(item)``."""
    detections: dict[int, object] = {}
    for items, normalize in ((plain, False), (deob, True)):
        if not items:
            continue
        batch = engine.classify(
            [item.source for item in items], k=k, threshold=threshold, deob=normalize
        )
        for item, detection in zip(items, batch.results):
            detections[id(item)] = detection
    return detections


class MicroBatcher:
    """Collect concurrent scripts into engine-sized batches."""

    def __init__(
        self,
        registry: ModelRegistry,
        metrics: MetricsRegistry | None = None,
        max_batch: int = 16,
        max_wait_ms: float = 10.0,
        max_queue: int = 512,
        k: int = DEFAULT_K,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        self.registry = registry
        self.metrics = metrics or registry.metrics
        self.max_batch = max(1, int(max_batch))
        self.max_wait_s = max(0.0, float(max_wait_ms)) / 1000.0
        self.max_queue = max(1, int(max_queue))
        self.k = k
        self.threshold = threshold
        self._queue: asyncio.Queue[_Item] = asyncio.Queue(maxsize=self.max_queue)
        # One inference thread: batches run strictly one at a time, which
        # keeps the engine single-threaded and lets the queue back up into
        # larger (cheaper per-script) batches under load.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-infer"
        )
        self._task: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )

    async def drain(self) -> None:
        """Stop accepting, finish everything queued, then stop the task."""
        self._closed = True
        await self._queue.join()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._executor.shutdown(wait=True)

    # -- producer side ---------------------------------------------------------

    def submit(self, source: str, deob: bool = False) -> asyncio.Future:
        """Enqueue one script; resolves to ``(DetectionResult, model_version)``.

        ``deob=True`` scripts are normalized through the deobfuscation
        pipeline before classification (they still share the same queue
        and batches with plain scripts).
        """
        if self._closed:
            raise BatcherClosedError("service is draining")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        try:
            self._queue.put_nowait(_Item(source, future, loop.time(), deob=deob))
        except asyncio.QueueFull:
            self.metrics.inc("queue_rejections_total")
            raise QueueFullError(
                f"request queue is at capacity ({self.max_queue} scripts)"
            )
        self.metrics.set_gauge("queue_depth", self._queue.qsize())
        return future

    # -- collector task ----------------------------------------------------------

    async def _collect(self) -> list[_Item]:
        """One batch: first script blocks, then flush on size or deadline."""
        loop = asyncio.get_running_loop()
        batch = [await self._queue.get()]
        deadline = loop.time() + self.max_wait_s
        while len(batch) < self.max_batch:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            try:
                batch.append(await asyncio.wait_for(self._queue.get(), remaining))
            except asyncio.TimeoutError:
                break
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect()
            self.metrics.set_gauge("queue_depth", self._queue.qsize())
            # Requests that timed out (future cancelled) while queued are
            # not worth classifying — but their queue slots must be freed.
            live = [item for item in batch if not item.future.done()]
            if not live:
                for _ in batch:
                    self._queue.task_done()
                continue
            model = self.registry.acquire()
            self.metrics.set_gauge("inference_busy", 1)
            try:
                # One executor job classifies the whole batch; deob-flagged
                # scripts run as their own sub-batch so the engine only
                # pays for normalization where it was requested.
                plain = [item for item in live if not item.deob]
                deob = [item for item in live if item.deob]
                detections = await loop.run_in_executor(
                    self._executor,
                    partial(
                        _classify_split,
                        model.engine,
                        plain,
                        deob,
                        self.k,
                        self.threshold,
                    ),
                )
                for item in live:
                    if not item.future.done():
                        item.future.set_result((detections[id(item)], model.version))
                        self.metrics.observe(
                            "request_latency_s", loop.time() - item.enqueued_at
                        )
            except Exception as error:  # noqa: BLE001 - engine bug must not kill the loop
                # The engine isolates per-file faults itself, so reaching
                # this means a systemic failure; surface it per-request as
                # a structured error rather than crashing the service.
                from repro.detector.pipeline import DetectionResult

                self.metrics.inc("engine_failures_total")
                failure = DetectionResult(
                    level1=set(),
                    transformed=False,
                    techniques=[],
                    error=DetectionError(
                        kind="internal", message=f"{type(error).__name__}: {error}"
                    ),
                )
                for item in live:
                    if not item.future.done():
                        item.future.set_result((failure, model.version))
            finally:
                self.metrics.set_gauge("inference_busy", 0)
                self.registry.release(model)
                for _ in batch:
                    self._queue.task_done()
