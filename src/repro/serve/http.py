"""Stdlib HTTP/JSON entry point over a running :class:`~repro.serve.Server`.

No framework, no dependency: :class:`HTTPFrontend` is a
``ThreadingHTTPServer`` whose handler threads block on the programmatic
API — which routes through the micro-batcher, so concurrent HTTP clients
are coalesced into engine batches exactly like programmatic callers.
The replication tier's :class:`~repro.serve.router.Router` is served by
the same frontend with a handler subclass that relays model requests
to a replica instead.

Endpoints
---------
``GET  /healthz``        health model (``ok``/``degraded``/``unhealthy``/
                         ``draining``) + per-shard state + counters;
                         HTTP 200 while traffic is served, 503 otherwise
``GET  /metrics``        Prometheus text exposition of the deployment's
                         metrics registry (see :mod:`repro.obs.metrics`)
``GET  /v1/model``       artifact + deployment description
``POST /v1/predict``     ``{"inputs": <2-D sample or 3-D batch>}`` -> labels
``POST /v1/logits``      same request shape -> per-class logits
``POST /v1/intensity``   same request shape -> detector-plane intensity
``POST /admin/drain``    begin a graceful drain: in-flight work finishes,
                         new requests get 503 + ``Retry-After``

Raw images may be any resolution (they go through the model's amplitude
encoder); pre-encoded complex fields are sent as
``{"inputs": <real part>, "inputs_imag": <imag part>}`` with shape
``(n, n)`` / ``(batch, n, n)``.  A request may carry a deadline —
``"deadline_ms"`` in the JSON body or an ``X-Deadline-Ms`` header (the
header wins) — after which it fails fast with **504** instead of
queueing forever.  Errors come back as ``{"error": "..."}``:

* 400 — malformed request (bad JSON, shapes, types, ``Content-Length``)
* 429 — admission window full (``max_inflight``); honors ``Retry-After``
* 503 — draining, or no healthy shard left; honors ``Retry-After``
* 504 — the request's deadline expired before a result was produced
* 500 — anything else (including injected chaos faults)

``Retry-After`` values are *jittered*: each response draws uniformly
from ``[0.75, 1.25) x`` the error's suggested wait, so N clients that
all hit a 429/503 in the same instant don't come back in lockstep and
re-saturate the admission window (thundering herd).
"""

from __future__ import annotations

import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (
    DeadlineExceeded,
    Draining,
    FaultInjected,
    NoHealthyShards,
    Overloaded,
)

__all__ = ["HTTPFrontend", "jittered_retry_after", "RETRY_AFTER_JITTER"]

#: ``Retry-After`` jitter band: responses draw uniformly from
#: ``[low, high) x suggested``.  Tests enforce this range.
RETRY_AFTER_JITTER = (0.75, 1.25)

# Seeded for reproducible chaos runs; per-call draws still differ, which
# is the whole point — synchronized clients get *different* waits.
_retry_after_rng = random.Random(0x5EED)
_retry_after_lock = threading.Lock()


def jittered_retry_after(suggested: float) -> str:
    """A ``Retry-After`` header value near ``suggested`` seconds.

    Uniform over ``[0.75, 1.25) x max(suggested, 0.05)`` — close enough
    to the server's intent to be honest, spread enough that a herd of
    synchronized clients desynchronizes after one backoff round.
    Formatted as a short decimal (our clients parse floats; integer
    seconds would quantize sub-second waits back into lockstep).
    """
    base = max(float(suggested), 0.05)
    low, high = RETRY_AFTER_JITTER
    with _retry_after_lock:
        factor = low + (high - low) * _retry_after_rng.random()
    return f"{base * factor:.3f}"

#: POST route -> (request kind, response field name).
_ROUTES = {
    "/v1/predict": ("predict", "predictions"),
    "/v1/logits": ("logits", "logits"),
    "/v1/intensity": ("intensity_map", "intensity"),
}

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd request bodies outright


class _BadRequest(ValueError):
    """A client error that should produce a 400, not a 500."""


def _parse_deadline_ms(payload: dict,
                       header: Optional[str]) -> Optional[float]:
    """The request deadline in milliseconds: ``X-Deadline-Ms`` header
    over a ``deadline_ms`` body field, else None."""
    raw = header if header is not None else payload.get("deadline_ms")
    if raw is None:
        return None
    try:
        deadline_ms = float(raw)
    except (TypeError, ValueError) as exc:
        raise _BadRequest(
            f"deadline_ms is not a number: {raw!r}"
        ) from exc
    if not math.isfinite(deadline_ms) or deadline_ms < 0:
        raise _BadRequest(
            f"deadline_ms must be a finite value >= 0, got {deadline_ms}"
        )
    return deadline_ms


def _parse_inputs(payload: dict) -> np.ndarray:
    if not isinstance(payload, dict) or "inputs" not in payload:
        raise _BadRequest('request body must be {"inputs": ...}')
    try:
        inputs = np.asarray(payload["inputs"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise _BadRequest(f"inputs are not a numeric array: {exc}") from exc
    if "inputs_imag" in payload:
        try:
            imag = np.asarray(payload["inputs_imag"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(
                f"inputs_imag is not a numeric array: {exc}"
            ) from exc
        if imag.shape != inputs.shape:
            raise _BadRequest(
                f"inputs_imag shape {imag.shape} does not match inputs "
                f"shape {inputs.shape}"
            )
        inputs = inputs + 1j * imag
    if not np.isfinite(inputs).all():
        raise _BadRequest("inputs contain NaN or infinity")
    if inputs.ndim not in (2, 3):
        raise _BadRequest(
            f"inputs must be a 2-D sample or a 3-D batch, got shape "
            f"{inputs.shape}"
        )
    return inputs


class _Handler(BaseHTTPRequestHandler):
    """One request; the app (a ``Server`` or a ``Router``) hangs off the
    HTTP server.  Subclasses change :meth:`_model_info` (``GET
    /v1/model``) and :meth:`_post` (every POST but ``/admin/drain``)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass  # request logging is the operator's job, not stderr's

    def _send(self, status: int, body: bytes,
              headers: Dict[str, str]) -> None:
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   {"Content-Type": "application/json", **(headers or {})})

    def _app(self):
        return self.server.app

    def _content_length(self) -> int:
        """The request body's length; :class:`_BadRequest` unless it is
        a decimal integer within ``[0, _MAX_BODY]``."""
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise _BadRequest(
                f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        length = int(raw)
        if length > _MAX_BODY:
            raise _BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit"
            )
        return length

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        if self.path == "/healthz":
            health = self._app().health()
            # ok/degraded still serve traffic (200); draining/unhealthy
            # tell load balancers to route elsewhere (503).
            status = 200 if health.get("status") in ("ok", "degraded") \
                else 503
            self._send_json(status, health)
        elif self.path == "/metrics":
            app = self._app()
            self._send(200, app.metrics_text().encode("utf-8"),
                       {"Content-Type": app.metrics.content_type})
        elif self.path == "/v1/model":
            self._model_info()
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        try:
            length = self._content_length()
        except _BadRequest as exc:
            # Refusing without reading the body would leave its bytes
            # on a keep-alive socket to be misparsed as the next
            # request — drop the connection instead.
            self.close_connection = True
            self._send_json(400, {"error": str(exc)})
            return
        body = self.rfile.read(length) if length else b""
        if self.path == "/admin/drain":
            # Graceful drain: the request is a signal, not a payload —
            # its body was drained off the keep-alive socket and is
            # ignored.
            self._app().begin_drain()
            self._send_json(200, {"status": "draining"})
        else:
            self._post(body)

    def _model_info(self) -> None:
        self._send_json(200, self._app().info())

    def _post(self, body: bytes) -> None:
        route = _ROUTES.get(self.path)
        if route is None:
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        kind, field = route
        try:
            if not body:
                raise _BadRequest("empty request body")
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"invalid JSON: {exc}") from exc
            deadline_ms = _parse_deadline_ms(
                payload, self.headers.get("X-Deadline-Ms")
            )
            inputs = _parse_inputs(payload)
            result = getattr(self._app(), kind)(inputs,
                                                deadline_ms=deadline_ms)
        except _BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
        except DeadlineExceeded as exc:
            self._send_json(504, {"error": str(exc)})
        except Overloaded as exc:
            self._send_json(429, {"error": str(exc)},
                            {"Retry-After":
                             jittered_retry_after(exc.retry_after)})
        except Draining as exc:
            self._send_json(503, {"error": str(exc)},
                            {"Retry-After":
                             jittered_retry_after(exc.retry_after)})
        except NoHealthyShards as exc:
            self._send_json(503, {"error": str(exc)})
        except FaultInjected as exc:
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        except ValueError as exc:
            # Shape/validation errors surfaced by the engine.
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — must answer the client
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_json(200, {field: np.asarray(result).tolist()})


class HTTPFrontend:
    """Serve ``app`` over HTTP on a daemon thread.

    ``app`` is a :class:`~repro.serve.Server` with the default
    ``handler``; the router passes its own handler subclass.  ``port=0``
    binds an ephemeral port; read the result from ``.url``.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 8000,
                 handler=_Handler) -> None:
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.httpd.app = app
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HTTPFrontend":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name=f"{self.httpd.RequestHandlerClass.server_version}-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self.httpd.server_close()

    def __repr__(self) -> str:
        return f"HTTPFrontend(url={self.url!r})"
