"""The online detection service: asyncio HTTP server with micro-batching.

Routes
------

- ``POST /classify`` — ``{"script": "..."}`` or ``{"scripts": [...]}``;
  scripts join the shared micro-batch queue and the response carries one
  structured result (or structured error) per script, in order.
  ``"deob": true`` normalizes each script through the deobfuscation
  pipeline first; results then describe the normal form and carry a
  ``deob`` block with the normalized source and pass report.
- ``GET /model`` — version/provenance of the served model.
- ``POST /admin/reload`` — atomic hot-reload (optional ``{"path": ...}``).
- ``GET /healthz`` — liveness (503 while draining).
- ``GET /metrics`` — JSON counters, gauges, and latency histograms.

Robustness: bounded queue with 429 backpressure, per-request body caps
and timeouts, per-file fault isolation (a bad script is a structured
error inside a 200, never a 500 for the batch), and graceful
SIGTERM/SIGINT drain — stop accepting, finish in-flight batches, exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
import threading
from dataclasses import dataclass

from repro.detector.pipeline import DetectionResult, ModelFormatError
from repro.detector.level2 import DEFAULT_K, DEFAULT_THRESHOLD
from repro.obs import MetricsRegistry
from repro.serve.batcher import BatcherClosedError, MicroBatcher, QueueFullError
from repro.serve.protocol import (
    DEFAULT_MAX_BODY,
    ProtocolError,
    Request,
    error_payload,
    read_request,
    render_response,
)
from repro.serve.registry import ModelRegistry


@dataclass
class ServeConfig:
    """Tunables for one service instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8377
    max_batch: int = 16
    max_wait_ms: float = 10.0
    max_queue: int = 512
    max_body_bytes: int = DEFAULT_MAX_BODY
    max_scripts_per_request: int = 64
    request_timeout: float = 60.0
    keepalive_timeout: float = 75.0
    k: int = DEFAULT_K
    threshold: float = DEFAULT_THRESHOLD


def _result_json(
    result: DetectionResult, model_version: int, explain: bool = False
) -> dict:
    if result.error is not None:
        payload = {
            "ok": False,
            "error": {"kind": result.error.kind, "message": result.error.message},
            "model_version": model_version,
        }
    else:
        payload = {
            "ok": True,
            "level1": sorted(result.level1),
            "transformed": result.transformed,
            "techniques": [
                {"technique": name, "confidence": round(confidence, 4)}
                for name, confidence in result.techniques
            ],
            "model_version": model_version,
        }
        if result.flow_timeout:
            payload["flow_timeout"] = True
    if explain:
        payload["triaged"] = result.triaged
        payload["findings"] = [finding.to_json() for finding in result.findings]
    if result.deob is not None:
        payload["deob"] = {
            "source": result.deob.source,
            "changed": result.deob.changed,
            "report": result.deob.report.to_json(),
        }
    return payload


class DetectionServer:
    """One asyncio service instance bound to a registry and a config."""

    def __init__(self, registry: ModelRegistry, config: ServeConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.metrics: MetricsRegistry = registry.metrics
        self.batcher = MicroBatcher(
            registry,
            metrics=self.metrics,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            max_queue=self.config.max_queue,
            k=self.config.k,
            threshold=self.config.threshold,
        )
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        self._draining = False
        self.port: int | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket (``port=0`` picks a free port) and start batching."""
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, stop."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.drain()
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):  # pragma: no cover
                loop.add_signal_handler(sig, lambda: loop.create_task(self.shutdown()))

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("connections_total")
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, max_body=self.config.max_body_bytes),
                        timeout=self.config.keepalive_timeout,
                    )
                except ProtocolError as error:
                    # Malformed/oversized input: answer and close (the
                    # stream position is no longer trustworthy).
                    self.metrics.inc(f"responses_{error.status}")
                    writer.write(
                        render_response(
                            error.status,
                            error_payload(error.code, error.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                    break  # idle keep-alive or mid-request disconnect
                if request is None:
                    break
                response, keep_alive = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: Request) -> tuple[bytes, bool]:
        """Route one request; returns (response bytes, keep-alive)."""
        self.metrics.inc("requests_total")
        keep_alive = request.keep_alive and not self._draining
        try:
            status, payload, extra = await self._route(request)
        except ProtocolError as error:
            status, payload, extra = error.status, error_payload(error.code, error.message), None
        except Exception as error:  # noqa: BLE001 - handler bug: answer, don't hang up
            status, payload, extra = 500, error_payload("internal", f"{type(error).__name__}: {error}"), None
        self.metrics.inc(f"responses_{status}")
        return (
            render_response(status, payload, keep_alive=keep_alive, extra_headers=extra),
            keep_alive,
        )

    async def _route(self, request: Request) -> tuple[int, dict, dict | None]:
        method, path = request.method, request.path
        if path == "/classify":
            if method != "POST":
                return 405, error_payload("method_not_allowed", "use POST /classify"), None
            return await self._handle_classify(request)
        if path == "/healthz":
            if method != "GET":
                return 405, error_payload("method_not_allowed", "use GET /healthz"), None
            status = 503 if self._draining else 200
            return status, {
                "status": "draining" if self._draining else "ok",
                "model_version": self.registry.current.version,
            }, None
        if path == "/metrics":
            if method != "GET":
                return 405, error_payload("method_not_allowed", "use GET /metrics"), None
            return 200, self.metrics.snapshot(), None
        if path == "/model":
            if method != "GET":
                return 405, error_payload("method_not_allowed", "use GET /model"), None
            return 200, self.registry.info(), None
        if path == "/admin/reload":
            if method != "POST":
                return 405, error_payload("method_not_allowed", "use POST /admin/reload"), None
            return await self._handle_reload(request)
        return 404, error_payload("not_found", f"no route {method} {path}"), None

    # -- handlers --------------------------------------------------------------

    async def _handle_classify(self, request: Request) -> tuple[int, dict, dict | None]:
        payload = request.json()
        if "scripts" in payload:
            scripts = payload["scripts"]
        elif "script" in payload:
            scripts = [payload["script"]]
        else:
            raise ProtocolError(400, "missing_field", "provide 'script' or 'scripts'")
        if not isinstance(scripts, list) or not scripts:
            raise ProtocolError(400, "bad_field", "'scripts' must be a non-empty list")
        if len(scripts) > self.config.max_scripts_per_request:
            raise ProtocolError(
                413,
                "too_many_scripts",
                f"at most {self.config.max_scripts_per_request} scripts per request",
            )
        if not all(isinstance(script, str) for script in scripts):
            raise ProtocolError(400, "bad_field", "every script must be a string")
        explain = payload.get("explain", False)
        if not isinstance(explain, bool):
            raise ProtocolError(400, "bad_field", "'explain' must be a boolean")
        deob = payload.get("deob", False)
        if not isinstance(deob, bool):
            raise ProtocolError(400, "bad_field", "'deob' must be a boolean")

        futures: list[asyncio.Future] = []
        try:
            for script in scripts:
                futures.append(self.batcher.submit(script, deob=deob))
        except QueueFullError as error:
            for future in futures:  # partially enqueued request: withdraw it
                future.cancel()
            return 429, error_payload("queue_full", str(error)), {"Retry-After": "1"}
        except BatcherClosedError as error:
            return 503, error_payload("draining", str(error)), None
        try:
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=self.config.request_timeout
            )
        except asyncio.TimeoutError:
            self.metrics.inc("request_timeouts_total")
            return 503, error_payload(
                "timeout", f"classification exceeded {self.config.request_timeout}s"
            ), None
        self.metrics.inc("scripts_classified_total", len(outcomes))
        return 200, {
            "results": [
                _result_json(result, version, explain=explain)
                for result, version in outcomes
            ]
        }, None

    async def _handle_reload(self, request: Request) -> tuple[int, dict, dict | None]:
        payload = request.json() if request.body else {}
        path = payload.get("path")
        if path is not None and not isinstance(path, str):
            raise ProtocolError(400, "bad_field", "'path' must be a string")
        loop = asyncio.get_running_loop()
        try:
            # Unpickling a forest takes a while — keep the loop responsive.
            info = await loop.run_in_executor(None, self.registry.reload, path)
        except ModelFormatError as error:
            return 409, error_payload("model_format", str(error)), None
        except OSError as error:
            return 409, error_payload("model_unreadable", str(error)), None
        return 200, info, None


class ThreadedServer:
    """Run a :class:`DetectionServer` on a background thread (tests, benches,
    examples).  ``start()`` blocks until the socket is bound; ``stop()``
    performs the graceful drain and joins the thread."""

    def __init__(self, registry: ModelRegistry, config: ServeConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServeConfig(port=0)
        self.server: DetectionServer | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # pragma: no cover - surfaced via start()/stop()
            self._error = error
            self._ready.set()

    async def _serve(self) -> None:
        self.server = DetectionServer(self.registry, self.config)
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self.port = self.server.port
        self._ready.set()
        await self.server.wait_shutdown()

    def start(self, timeout: float = 30.0) -> "ThreadedServer":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not come up in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.server is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.server.shutdown())
            )
        self._thread.join(timeout)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_forever(registry: ModelRegistry, config: ServeConfig) -> None:
    """Blocking entry point used by ``python -m repro serve``."""

    async def _main() -> None:
        server = DetectionServer(registry, config)
        server.install_signal_handlers()
        await server.start()
        model = registry.current
        print(
            f"serving model v{model.version} ({model.source}) on "
            f"http://{config.host}:{server.port} — "
            f"max_batch={config.max_batch} max_wait_ms={config.max_wait_ms} "
            f"queue={config.max_queue}",
            file=sys.stderr,
        )
        await server.wait_shutdown()
        print("drained; bye", file=sys.stderr)

    asyncio.run(_main())
