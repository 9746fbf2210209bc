"""Online detection service (``python -m repro serve``).

A stdlib-only asyncio HTTP/1.1 server that keeps a trained
:class:`~repro.detector.pipeline.TransformationDetector` warm and
answers ``POST /classify`` with micro-batched inference.  Counters,
gauges and histograms live in :class:`repro.obs.MetricsRegistry`.

- :mod:`repro.serve.protocol` — hand-rolled HTTP parsing with hard caps,
- :mod:`repro.serve.registry` — model ownership, leases, hot-reload,
- :mod:`repro.serve.batcher` — bounded-queue micro-batching collector,
- :mod:`repro.serve.server` — routing, drain, and the CLI entry point,
- :mod:`repro.serve.client` — a small blocking client helper.
"""

from repro.obs import MetricsRegistry
from repro.serve.batcher import BatcherClosedError, MicroBatcher, QueueFullError
from repro.serve.client import ServeAPIError, ServeClient
from repro.serve.registry import LoadedModel, ModelRegistry
from repro.serve.server import (
    DetectionServer,
    ServeConfig,
    ThreadedServer,
    serve_forever,
)

__all__ = [
    "BatcherClosedError",
    "DetectionServer",
    "LoadedModel",
    "MetricsRegistry",
    "MicroBatcher",
    "ModelRegistry",
    "QueueFullError",
    "ServeAPIError",
    "ServeClient",
    "ServeConfig",
    "ThreadedServer",
    "serve_forever",
]
