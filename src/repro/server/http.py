"""Thin HTTP/JSON transport over :class:`repro.server.service.CheckingService`.

Standard-library only (``http.server`` + ``json``): the container this
runs in must not need anything beyond the numerical stack.  The server
is a :class:`~http.server.ThreadingHTTPServer`, so concurrent requests
exercise the service's entry locks and admission control for real; all
interesting behaviour lives in the transport-free service and is tested
there — this module only decodes requests, dispatches and encodes
responses, plus the three transport-level robustness duties the service
cannot do for itself:

- **Client disconnects are survivable.**  A client that hangs up while
  its response is being written raises ``BrokenPipeError`` /
  ``ConnectionResetError`` in the handler thread; both are swallowed
  (counted in ``service_client_disconnects``) instead of unwinding the
  thread through ``socketserver``'s error reporting.
- **Connections carry a timeout.**  Each accepted socket gets
  ``ServerConfig.connection_timeout`` applied, so an idle keep-alive
  client — or a slow-loris body — is disconnected (counted in
  ``service_connection_timeouts``) instead of holding a daemon handler
  thread forever.
- **Shutdown is graceful.**  :meth:`CheckingHTTPServer.drain_and_shutdown`
  flips the service to ``draining`` (new requests answer 503 with a
  ``Retry-After`` header), waits out in-flight requests under the drain
  deadline, lets their responses flush, then stops the accept loop and
  closes the service, which drops every entry.

Endpoints
---------
``POST /query``
    One checking request (see docs/serving.md for the body schema).
    The HTTP status is derived from the CLI exit-code taxonomy
    (:data:`repro.server.service.HTTP_STATUS_BY_EXIT_CODE`).
``POST /batch``
    ``{"queries": [request, ...]}`` — many queries served under one
    admission slot and one shared deadline; item failures stay per
    item (the envelope answers ``200`` with per-item exit codes).
``GET /stats``
    Cache, admission and fault counters plus per-entry summaries.
``GET /health``
    Liveness *and* lifecycle probe: ``200`` while ``starting``/
    ``ready``, ``503`` (with ``Retry-After``) while ``draining`` and
    after close, with the state named in the body.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.server.service import CheckingService, ServerConfig

#: Refuse request bodies beyond this size (a model document plus a
#: formula fits in a small fraction of it).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    server: "CheckingHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------

    def setup(self) -> None:
        # ``StreamRequestHandler.setup`` applies ``self.timeout`` to the
        # socket; the value comes from the service config so ``mfcsl
        # serve --connection-timeout`` reaches every connection.
        self.timeout = self.server.service.config.connection_timeout
        super().setup()

    def handle_one_request(self) -> None:
        """Read, dispatch and answer one request on this connection.

        Reimplements the base loop body (same structure, same
        semantics) because the base class catches ``TimeoutError``
        internally — wrapping it could never *count* idle-connection
        and slow-loris disconnects, and those counters are how an
        operator distinguishes a flaky network from a broken client
        fleet.
        """
        try:
            self.raw_requestline = self.rfile.readline(65537)
            if len(self.raw_requestline) > 65536:
                self.requestline = ""
                self.request_version = ""
                self.command = ""
                self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self.parse_request():
                return
            method_name = "do_" + self.command
            if not hasattr(self, method_name):
                self.send_error(
                    HTTPStatus.NOT_IMPLEMENTED,
                    f"Unsupported method ({self.command!r})",
                )
                return
            self.server.request_started()
            try:
                getattr(self, method_name)()
                self.wfile.flush()
            finally:
                self.server.request_finished()
        except (TimeoutError, socket.timeout) as exc:
            self.server.service.bump("service_connection_timeouts")
            self.log_error("connection timed out: %r", exc)
            self.close_connection = True
        except (BrokenPipeError, ConnectionResetError):
            # The disconnect guard in _send_json covers response
            # writes; this one covers mid-body reads and the flush.
            self.server.service.bump("service_client_disconnects")
            self.close_connection = True

    def _send_json(self, status: int, body: dict) -> None:
        """Encode and write one JSON response.

        A ``retry_after`` field in the body (drain rejections,
        unhealthy probes) also becomes a standard ``Retry-After``
        header so off-the-shelf clients back off correctly.  A client
        that vanished mid-write is counted and ignored — a handler
        thread must never die because its peer hung up.
        """
        data = json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            retry_after = body.get("retry_after")
            if isinstance(retry_after, (int, float)):
                self.send_header(
                    "Retry-After", str(max(1, round(retry_after)))
                )
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            self.server.service.bump("service_client_disconnects")
            self.close_connection = True

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/health":
            status, body = self.server.service.health_payload()
            self._send_json(status, body)
        elif self.path == "/stats":
            self._send_json(200, self.server.service.stats_payload())
        else:
            self._send_json(
                404,
                {
                    "status": "error",
                    "error_class": "NotFound",
                    "message": f"unknown path {self.path!r}; "
                    "GET /health, GET /stats or POST /query",
                },
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path not in ("/query", "/", "/batch"):
            self._send_json(
                404,
                {
                    "status": "error",
                    "error_class": "NotFound",
                    "message": f"unknown path {self.path!r}; "
                    "POST /query or POST /batch",
                },
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(
                400,
                {
                    "status": "error",
                    "error_class": "BadRequest",
                    "message": "missing, malformed or oversized "
                    "Content-Length",
                },
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"null")
        except json.JSONDecodeError as exc:
            self._send_json(
                400,
                {
                    "status": "error",
                    "error_class": "BadRequest",
                    "message": f"invalid JSON body: {exc}",
                },
            )
            return
        if self.path == "/batch":
            status, body = self.server.service.handle_batch(payload)
        else:
            status, body = self.server.service.handle(payload)
        self._send_json(status, body)


class CheckingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`CheckingService`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: Optional[CheckingService] = None,
        verbose: bool = False,
    ):
        super().__init__(address, _Handler)
        self.service = service or CheckingService()
        self.verbose = verbose
        self._http_lock = threading.Lock()
        self._http_cond = threading.Condition(self._http_lock)
        self._active_requests = 0
        # The listening socket is bound and the accept loop is about to
        # start: the service is ready (health flips 200).
        self.service.mark_ready()

    # -- in-flight accounting ------------------------------------------

    def request_started(self) -> None:
        with self._http_lock:
            self._active_requests += 1

    def request_finished(self) -> None:
        with self._http_lock:
            self._active_requests -= 1
            self._http_cond.notify_all()

    def wait_quiescent(self, timeout: float) -> bool:
        """Wait until no handler is mid-request (response fully written).

        The service-level drain returns when the *computations* finish;
        their responses may still be flushing to sockets on daemon
        threads that nothing else joins.  Returns whether quiescence
        was reached within ``timeout``.
        """
        end = time.monotonic() + timeout
        with self._http_lock:
            while self._active_requests > 0:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._http_cond.wait(remaining)
        return True

    # -- lifecycle ------------------------------------------------------

    def shutdown(self) -> None:
        """Immediate stop: halt the accept loop, close the service.

        Must be called from a thread other than the one running
        ``serve_forever`` (a ``ThreadingHTTPServer`` constraint).  For
        a graceful stop use :meth:`drain_and_shutdown`.
        """
        super().shutdown()
        self.service.close()

    def drain_and_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Graceful stop: reject new work, finish old work, then close.

        New requests answer 503 + ``Retry-After`` the moment this is
        called; in-flight requests get up to ``timeout`` (default
        ``ServerConfig.drain_deadline``) to finish and flush their
        responses; then the accept loop stops and the service closes.
        Returns whether the drain fully quiesced (``False`` means
        stragglers were cut off at the deadline).
        """
        if timeout is None:
            timeout = self.service.config.drain_deadline
        start = time.monotonic()
        drained = self.service.drain(timeout)
        if drained:
            # Give the already-computed responses a moment to reach
            # their sockets; bounded by what is left of the deadline.
            leftover = max(0.05, timeout - (time.monotonic() - start))
            drained = self.wait_quiescent(leftover)
        self.shutdown()
        return drained


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServerConfig] = None,
    verbose: bool = False,
) -> CheckingHTTPServer:
    """Bind a checking server (``port=0`` picks a free port)."""
    return CheckingHTTPServer(
        (host, port), CheckingService(config), verbose=verbose
    )
