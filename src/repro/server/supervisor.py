"""Supervised query execution for the checking service.

A native-code crash — a segfault deep in scipy, an OOM kill while a
dense propagator cell is assembled — takes out the *whole* serving
process and every cached answer with it.  This module confines that
blast radius to one query: with ``ServerConfig(isolate="process")`` the
service runs each computation in a **forked worker process** and the
parent only ever touches the worker through a pipe, so a dead worker
answers its own query with exit code 5 (and a :class:`WorkerCrash`
record in :attr:`QuerySupervisor.crashes`) while the server, its cached
answers and every concurrent request carry on.

Every computation forks a fresh worker, which inherits the parent's
memory snapshot by copy-on-write: the query closure captures the
entry's model, checker and the query's evaluation context, none of
which need cross a pickle boundary; only the *result* (a plain response
core plus the entry's counters) crosses back through the pipe.

A worker that dies without delivering, or outlives its wall-clock
allowance and is reaped, answers only its own query, with
:class:`~repro.exceptions.WorkerCrashError`.  Nothing it was running is
ever re-run in the server: an MF-CSL answer is a pure function of the
occupancy and the formula, so a computation that killed one worker
kills whichever process runs it next.  The next computation forks a
fresh worker as usual, so a client retrying a one-off kill
(``ServerClient`` retries ``WorkerCrashError``) succeeds on a fresh
fork, and a query that always kills its worker costs one worker per
attempt.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import (
    CheckingError,
    ModelError,
    ReproError,
    WorkerCrashError,
)
from repro.parallel import fork_available
from repro.resilience import check_limit

#: Recognized isolation modes (``ServerConfig.isolate``).
ISOLATION_MODES = ("none", "process")

#: Seconds between liveness polls of a running worker.
_POLL_INTERVAL = 0.05

#: How long the parent waits for a worker that already delivered its
#: result to exit on its own before terminating it.
_REAP_GRACE = 5.0


@dataclass
class WorkerCrash:
    """One supervised-worker death, recorded on the supervisor."""

    pid: Optional[int]
    exitcode: Optional[int]
    elapsed: float
    reason: str

    def describe(self) -> str:
        signal_part = ""
        if self.exitcode is not None and self.exitcode < 0:
            try:
                signal_part = f" ({signal.Signals(-self.exitcode).name})"
            except ValueError:
                signal_part = ""
        return (
            f"WorkerCrash: process worker pid={self.pid} "
            f"exitcode={self.exitcode}{signal_part} after "
            f"{self.elapsed:.3f}s — {self.reason}"
        )


def _worker_main(conn, fn: Callable[[], Any]) -> None:
    """Body of a forked query worker: run ``fn``, deliver, exit.

    Library errors travel as themselves (their ``__reduce__`` fixes keep
    the pickle boundary lossless); anything else is wrapped so the
    parent never has to unpickle arbitrary third-party exception state.
    An undeliverable *result* (unpicklable) is downgraded to an error,
    not a crash — the computation succeeded, only the transfer failed.
    """
    try:
        try:
            payload: Tuple[str, Any] = ("ok", fn())
        except ReproError as exc:
            payload = ("error", exc)
        except BaseException as exc:
            payload = (
                "error",
                CheckingError(
                    f"worker raised {type(exc).__name__}: {exc}"
                ),
            )
        try:
            conn.send(payload)
        except Exception as exc:
            conn.send(
                (
                    "error",
                    CheckingError(
                        f"worker result could not be transferred: {exc}"
                    ),
                )
            )
        conn.close()
    except Exception:
        # The pipe itself is gone; exit non-zero so the parent records a
        # crash instead of waiting out the full allowance.
        os._exit(1)


class QuerySupervisor:
    """Runs query closures under the configured isolation mode.

    Parameters
    ----------
    mode:
        ``"none"`` (run inline) or ``"process"`` (forked worker; falls
        back to inline where ``fork`` is unavailable).
    worker_grace:
        Extra wall-clock seconds a worker is allowed beyond the query's
        own deadline before the parent reaps it — covers fork/pickle
        overhead and the budget's own (cooperative, hence slightly
        late) enforcement inside the worker.  A worker whose query
        carries no deadline is never reaped.
    stats:
        Optional :class:`~repro.instrumentation.EvalStats`; receives the
        ``service_supervised`` and ``service_worker_crashes`` counters.

    Thread safety: :meth:`run` may be called from many service threads
    at once — each call owns its private worker; only the crash records,
    the active pids and the counters are shared and lock-guarded.
    """

    def __init__(
        self,
        mode: str = "none",
        *,
        worker_grace: float = 5.0,
        stats=None,
    ):
        if mode not in ISOLATION_MODES:
            raise ModelError(
                f"isolate must be one of {list(ISOLATION_MODES)}, "
                f"got {mode!r}"
            )
        self.mode = mode
        self.worker_grace = float(check_limit("worker_grace", worker_grace))
        self.stats = stats
        self._lock = threading.Lock()
        #: Recent crash records, newest last (bounded).
        self.crashes: "deque[WorkerCrash]" = deque(maxlen=64)
        #: pids of currently-running workers (chaos tests kill these).
        self._active_pids: set = set()

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    def active_pids(self) -> List[int]:
        """pids of workers currently executing a query."""
        with self._lock:
            return sorted(self._active_pids)

    def snapshot(self) -> dict:
        """Plain-data view for ``/stats``."""
        with self._lock:
            return {
                "mode": self.mode,
                "active_workers": len(self._active_pids),
                "recent_crashes": [c.describe() for c in self.crashes],
            }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        fn: Callable[[], Any],
        *,
        deadline: Optional[float] = None,
    ) -> Tuple[Any, bool]:
        """Execute ``fn`` under the configured isolation.

        Returns ``(result, isolated)`` — ``isolated`` is ``True`` only
        when ``fn`` actually ran in a worker process, which is what
        tells the caller whether the counters the worker returned must
        be copied back.  Library exceptions raised by ``fn`` propagate
        unchanged regardless of where it ran; a dead or reaped worker
        raises :class:`~repro.exceptions.WorkerCrashError` instead.
        """
        if self.mode != "process" or not fork_available():
            return fn(), False
        if self.stats is not None:
            with self._lock:
                self.stats.service_supervised += 1
        timeout = (
            None if deadline is None else float(deadline) + self.worker_grace
        )
        return self._run_in_worker(fn, timeout), True

    def _run_in_worker(
        self, fn: Callable[[], Any], timeout: Optional[float]
    ) -> Any:
        """Forked-worker execution with crash detection and reaping."""
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=False)
        worker = context.Process(
            target=_worker_main, args=(child_conn, fn), daemon=True
        )
        start = time.monotonic()
        worker.start()
        child_conn.close()
        with self._lock:
            self._active_pids.add(worker.pid)
        try:
            message, timed_out = self._await_worker(
                worker, parent_conn, timeout, start
            )
        finally:
            with self._lock:
                self._active_pids.discard(worker.pid)
            parent_conn.close()
            self._reap(worker)
        if message is None:
            if timed_out:
                reason = (
                    f"worker exceeded its {timeout:g}s wall-clock "
                    f"allowance and was killed"
                )
            else:
                reason = "worker died before delivering a result"
            crash = WorkerCrash(
                pid=worker.pid,
                exitcode=worker.exitcode,
                elapsed=time.monotonic() - start,
                reason=reason,
            )
            with self._lock:
                self.crashes.append(crash)
                if self.stats is not None:
                    self.stats.service_worker_crashes += 1
            raise WorkerCrashError(
                crash.describe(), pid=worker.pid, exitcode=worker.exitcode
            )
        kind, value = message
        if kind == "error":
            raise value
        return value

    def _await_worker(
        self, worker, conn, timeout: Optional[float], start: float
    ):
        """Poll the result pipe until delivery, death or timeout.

        Returns ``(message, timed_out)``: the ``(kind, value)`` message
        (or ``None`` for a crash) and whether the crash was the parent
        reaping an over-allowance worker rather than the worker dying
        on its own.
        """
        end = None if timeout is None else start + timeout
        while True:
            try:
                if conn.poll(_POLL_INTERVAL):
                    return conn.recv(), False
            except (EOFError, OSError):
                return None, False  # pipe torn down mid-write: worker died
            if not worker.is_alive():
                # Lost the race between delivery and exit? One last
                # non-blocking probe before declaring a crash.
                try:
                    if conn.poll(0):
                        return conn.recv(), False
                except (EOFError, OSError):
                    pass
                return None, False
            if end is not None and time.monotonic() >= end:
                worker.kill()
                worker.join(_REAP_GRACE)
                return None, True

    @staticmethod
    def _reap(worker) -> None:
        worker.join(_REAP_GRACE)
        if worker.is_alive():  # pragma: no cover - defensive
            worker.kill()
            worker.join(_REAP_GRACE)
