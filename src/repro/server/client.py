"""A resilient client for the checking server (``mfcsl query``).

Standard-library ``http.client`` only, mirroring the server's
no-new-dependencies rule.  The client posts JSON requests, returns the
decoded JSON response together with the HTTP status, and leaves
interpretation (exit codes, verdict rendering) to the caller — the CLI
and the tests both want the raw body.

The client keeps **one persistent connection** to the server
(HTTP/1.1 keep-alive) and reuses it across requests; a stale keep-alive
socket is replaced transparently.  On top of that sits **bounded retry
with exponential backoff and full jitter**, tuned for a server that
restarts, drains and sheds load as a matter of course: connect errors
and *serving-condition* responses — 429 admission rejections, 503s from
a draining server or a crashed query worker — are retried up to
``retries`` times, sleeping :func:`repro.resilience.full_jitter_backoff`
between attempts (the full-jitter variant keeps a fleet of clients from
retrying in lockstep).  Every one of those attempts reaches the
network, so a server that comes back while the client is still
retrying answers it.  A ``Retry-After`` header, when the server sends
one, is honored (capped at ``backoff_cap``).  Definitive answers are
*never* retried — in particular a 503 carrying ``BudgetExceededError``
means *this request's own deadline expired*, and retrying it would just
burn another deadline.

Retrying a ``POST /query`` is safe by construction: queries are pure
computations, idempotent on the server's warm cache.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
from typing import Callable, Optional, Tuple

from repro.exceptions import CheckingError
from repro.resilience import full_jitter_backoff

#: ``error_class`` values that mark a response as a transient serving
#: condition — the request itself was fine and may well succeed on
#: retry.  Everything else (budget expiries, model errors, numerical
#: failures) is a definitive answer for *this* request.
RETRYABLE_ERROR_CLASSES = frozenset(
    {
        "Draining",
        "AdmissionRejected",
        "WorkerCrashError",
    }
)


def response_is_retryable(status: int, body: dict) -> bool:
    """Whether an HTTP response names a transient serving condition."""
    if status == 429:
        return True
    if status == 503:
        return body.get("error_class") in RETRYABLE_ERROR_CLASSES
    return False


class ServerClient:
    """Talk to a running ``mfcsl serve`` process.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8349"`` (no trailing slash needed).
    timeout:
        Socket timeout per request, seconds.  Should comfortably exceed
        any deadline the requests carry — a client-side timeout means
        *no* response, whereas a server-side deadline produces a
        well-formed 503 with partial progress.
    retries:
        Retry attempts *beyond* the first, spent on connect errors and
        retryable serving conditions; ``0`` restores the historical
        fail-on-first-error behaviour.
    backoff_base / backoff_cap:
        The full-jitter backoff schedule between attempts; the cap also
        bounds how long a ``Retry-After`` header is honored.
    rng / sleep:
        Injectable randomness and sleeping for deterministic tests.

    The client is thread-safe; the persistent connection is guarded by
    a lock, so concurrent callers serialize on it.  Threads that want
    parallel requests should hold one client each.
    """

    def __init__(
        self,
        base_url: str,
        timeout: Optional[float] = 600.0,
        *,
        retries: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 8.0,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", "https"):
            raise CheckingError(
                f"unsupported server URL scheme {parsed.scheme!r} in "
                f"{base_url!r} (use http:// or https://)"
            )
        if retries < 0:
            raise CheckingError(
                f"retries must be non-negative, got {retries}"
            )
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise CheckingError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"base={backoff_base}, cap={backoff_cap}"
            )
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._rng = rng
        self._sleep = sleep
        self._scheme = parsed.scheme
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port
        self._path_prefix = parsed.path.rstrip("/")
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Resilience telemetry: attempts retried, seconds slept.
        self.resilience_stats = {"retries": 0, "retry_sleeps": 0.0}

    # -- connection management -----------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        return cls(self._host, self._port, timeout=self.timeout)

    def close(self) -> None:
        """Drop the persistent connection (reopened on next request)."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                finally:
                    self._conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -----------------------------------------------------

    def _roundtrip(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        data: Optional[bytes],
    ) -> Tuple[int, dict, Optional[float]]:
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, self._path_prefix + path, data, headers)
        resp = conn.getresponse()
        status = resp.status
        retry_after: Optional[float] = None
        header = resp.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        raw = resp.read()  # drain fully so the connection stays reusable
        try:
            body = json.loads(raw.decode("utf-8"))
        except Exception:
            body = {
                "status": "error",
                "error_class": "BadResponse",
                "message": f"non-JSON response (HTTP {status})",
            }
        return status, body, retry_after

    def _attempt(
        self, method: str, path: str, data: Optional[bytes]
    ) -> Tuple[int, dict, Optional[float]]:
        """One request attempt over the persistent connection.

        A dead keep-alive socket is replaced and retried once within
        the attempt (that is connection churn, not server failure); a
        failure on a *fresh* connection means the server is genuinely
        unreachable and raises.
        """
        with self._lock:
            last_exc: Optional[Exception] = None
            for _ in range(2):
                conn = self._conn
                fresh = conn is None
                if fresh:
                    conn = self._connect()
                try:
                    result = self._roundtrip(conn, method, path, data)
                except (http.client.HTTPException, OSError) as exc:
                    try:
                        conn.close()
                    except Exception:
                        pass
                    self._conn = None
                    last_exc = exc
                    if fresh:
                        break
                    continue
                self._conn = conn
                return result
        raise CheckingError(
            f"cannot reach checking server at {self.base_url}: "
            f"{last_exc}"
        ) from last_exc

    def _request(
        self,
        path: str,
        payload: Optional[dict] = None,
        *,
        retry: bool = True,
    ) -> Tuple[int, dict]:
        method = "GET" if payload is None else "POST"
        data = (
            None
            if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        attempts = (1 + self.retries) if retry else 1
        last_error: Optional[CheckingError] = None
        for attempt in range(attempts):
            retry_after: Optional[float] = None
            try:
                status, body, retry_after = self._attempt(
                    method, path, data
                )
            except CheckingError as exc:
                last_error = exc
            else:
                if not (
                    retry and response_is_retryable(status, body)
                ):
                    return status, body
                last_error = None
                last_response = (status, body)
            if attempt + 1 >= attempts:
                break
            if retry_after is None:
                retry_after = body.get("retry_after") if last_error is None else None
            delay = full_jitter_backoff(
                attempt, self.backoff_base, self.backoff_cap, rng=self._rng
            )
            if isinstance(retry_after, (int, float)):
                # Honor the server's hint, but never beyond the cap —
                # an interactive caller should not hang for a full
                # drain window.
                delay = min(max(delay, float(retry_after)), self.backoff_cap)
            self.resilience_stats["retries"] += 1
            self.resilience_stats["retry_sleeps"] += delay
            self._sleep(delay)
        if last_error is not None:
            raise last_error
        return last_response

    # -- public API ----------------------------------------------------

    def query(self, payload: dict) -> Tuple[int, dict]:
        """POST one checking request; returns ``(http_status, body)``."""
        return self._request("/query", payload)

    def query_batch(
        self,
        queries: list,
        *,
        deadline: Optional[float] = None,
        max_solves: Optional[int] = None,
    ) -> Tuple[int, dict]:
        """POST many requests as one ``/batch`` envelope.

        Returns ``(http_status, body)`` where a successful body carries
        ``results`` and ``exit_codes`` lists aligned with ``queries``.
        ``deadline``/``max_solves`` become the shared batch limits.
        """
        payload: dict = {"queries": list(queries)}
        if deadline is not None:
            payload["deadline"] = deadline
        if max_solves is not None:
            payload["max_solves"] = max_solves
        return self._request("/batch", payload)

    def stats(self) -> dict:
        """GET the server's cache/admission counters."""
        status, body = self._request("/stats")
        if status != 200:
            raise CheckingError(f"/stats returned HTTP {status}: {body}")
        return body

    def health(self) -> bool:
        """Whether the server answers its liveness probe right now.

        Deliberately *not* retried: health checks are what polling
        loops are built from, so each probe reports the instantaneous
        truth and returns quickly.
        """
        try:
            status, _ = self._request("/health", retry=False)
        except CheckingError:
            return False
        return status == 200
