"""Supervised query execution for the checking service.

A native-code crash — a segfault deep in scipy, an OOM kill while a
dense propagator cell is assembled — takes out the *whole* serving
process and every warm cache entry with it.  This module confines that
blast radius to one query: with ``ServerConfig(isolate="process")`` the
service runs each computation in a **forked worker process** and the
parent only ever touches the worker through a pipe, so a dead worker
answers its own query with exit code 5 (and a :class:`WorkerCrash`
record in :attr:`QuerySupervisor.crashes`) while the server, its warm
entries and every concurrent request carry on.

The design reuses the three patterns that made
:func:`repro.parallel.run_batches` fault-tolerant:

- **fork inheritance, not pickling** — the query closure captures the
  entry's model, checker and the query's evaluation context, none of
  which need cross a pickle boundary.  Each supervised query forks a
  fresh worker, which inherits the parent's memory snapshot by
  copy-on-write; only the *result* (a plain response core plus the
  entry's counters) crosses back through the pipe.
- **crash detection with restart under capped backoff** — a worker that
  dies without delivering (or outlives its wall-clock allowance and is
  reaped) is recorded as a :class:`WorkerCrash`; the *next* supervised
  query forks a fresh worker ("restart"), but only after a
  capped-exponential cool-down window (:func:`repro.resilience.capped_backoff`)
  during which queries run in-process — the supervisor never sleeps in
  the serving path, it degrades instead.
- **in-process fallback** — after ``crash_loop_threshold`` consecutive
  crashes the crash-loop breaker trips: isolation is suspended for a
  full ``backoff_cap`` window and queries run in-process (exactly the
  ``workers=1`` path), trading isolation for availability the same way
  the parallel executor finishes surviving batches in-process when its
  pool keeps breaking.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import (
    CheckingError,
    ModelError,
    ReproError,
    WorkerCrashError,
)
from repro.parallel import fork_available
from repro.resilience import capped_backoff

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
    mode: str = "process"
    consecutive: int = 1

    def describe(self) -> str:
        signal_part = ""
        if self.exitcode is not None and self.exitcode < 0:
            try:
                signal_part = f" ({signal.Signals(-self.exitcode).name})"
            except ValueError:
                signal_part = ""
        return (
            f"WorkerCrash: {self.mode} worker pid={self.pid} "
            f"exitcode={self.exitcode}{signal_part} after "
            f"{self.elapsed:.3f}s — {self.reason} "
            f"[consecutive={self.consecutive}]"
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
        late) enforcement inside the worker.
    default_timeout:
        Wall-clock allowance for queries that carry no deadline;
        ``None`` leaves them unbounded.
    crash_loop_threshold:
        Consecutive crashes after which the breaker trips and isolation
        is suspended for a full ``backoff_cap`` window.
    backoff_base / backoff_cap:
        The capped-exponential schedule sizing the in-process cool-down
        window after each crash (1 crash → ``base``, then doubling up
        to ``cap``).
    stats:
        Optional :class:`~repro.instrumentation.EvalStats`; receives the
        ``service_supervised`` / ``service_worker_crashes`` /
        ``service_worker_restarts`` / ``service_crash_breaker_trips``
        counters.
    clock / sleep:
        Injectable time sources for deterministic tests.

    Thread safety: :meth:`run` may be called from many service threads
    at once — each call owns its private worker; only the crash
    bookkeeping is shared and lock-guarded.
    """

    def __init__(
        self,
        mode: str = "none",
        *,
        worker_grace: float = 5.0,
        default_timeout: Optional[float] = None,
        crash_loop_threshold: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        stats=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if mode not in ISOLATION_MODES:
            raise ModelError(
                f"isolate must be one of {list(ISOLATION_MODES)}, "
                f"got {mode!r}"
            )
        if worker_grace <= 0:
            raise ModelError(
                f"worker_grace must be positive, got {worker_grace}"
            )
        if default_timeout is not None and default_timeout <= 0:
            raise ModelError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        if crash_loop_threshold < 1:
            raise ModelError(
                f"crash_loop_threshold must be >= 1, "
                f"got {crash_loop_threshold}"
            )
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ModelError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"base={backoff_base}, cap={backoff_cap}"
            )
        self.mode = mode
        self.worker_grace = float(worker_grace)
        self.default_timeout = default_timeout
        self.crash_loop_threshold = int(crash_loop_threshold)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.stats = stats
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive_crashes = 0
        self._degraded_until: Optional[float] = None
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

    def degraded(self) -> bool:
        """Whether isolation is currently suspended (cool-down/breaker)."""
        with self._lock:
            return self._degraded_now()

    def _degraded_now(self) -> bool:
        """Caller holds the lock."""
        if self._degraded_until is None:
            return False
        if self._clock() < self._degraded_until:
            return True
        # Window elapsed: the next supervised query probes a worker
        # again (half-open breaker).
        self._degraded_until = None
        return False

    def snapshot(self) -> dict:
        """Plain-data view for ``/stats``."""
        with self._lock:
            return {
                "mode": self.mode,
                "degraded": self._degraded_now(),
                "consecutive_crashes": self._consecutive_crashes,
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
        timeout = (
            self.default_timeout
            if deadline is None
            else float(deadline) + self.worker_grace
        )
        if self.mode != "process" or not fork_available():
            return fn(), False
        with self._lock:
            if self._degraded_now():
                restarting = False
                isolate = False
            else:
                restarting = self._consecutive_crashes > 0
                isolate = True
        if not isolate:
            return fn(), False
        if self.stats is not None:
            self.stats.service_supervised += 1
            if restarting:
                self.stats.service_worker_restarts += 1
        return self._run_in_process(fn, timeout), True

    # -- process mode --------------------------------------------------

    def _run_in_process(
        self, fn: Callable[[], Any], timeout: Optional[float]
    ) -> Any:
        """Forked-worker execution with crash detection and reaping."""
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=False)
        worker = context.Process(
            target=_worker_main, args=(child_conn, fn), daemon=True
        )
        start = self._clock()
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
            elapsed = self._clock() - start
            if timed_out:
                reason = (
                    f"worker exceeded its {timeout:g}s wall-clock "
                    f"allowance and was killed"
                )
            else:
                reason = "worker died before delivering a result"
            crash = self._record_crash(
                pid=worker.pid,
                exitcode=worker.exitcode,
                elapsed=elapsed,
                reason=reason,
            )
            raise WorkerCrashError(
                crash.describe(), pid=worker.pid, exitcode=worker.exitcode
            )
        self._record_success()
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
            if end is not None and self._clock() >= end:
                worker.kill()
                worker.join(_REAP_GRACE)
                return None, True

    @staticmethod
    def _reap(worker) -> None:
        worker.join(_REAP_GRACE)
        if worker.is_alive():  # pragma: no cover - defensive
            worker.kill()
            worker.join(_REAP_GRACE)

    # ------------------------------------------------------------------
    # Crash bookkeeping
    # ------------------------------------------------------------------

    def _record_success(self) -> None:
        with self._lock:
            self._consecutive_crashes = 0

    def _record_crash(
        self,
        *,
        pid: Optional[int],
        exitcode: Optional[int],
        elapsed: float,
        reason: str,
    ) -> WorkerCrash:
        with self._lock:
            self._consecutive_crashes += 1
            consecutive = self._consecutive_crashes
            tripped = consecutive >= self.crash_loop_threshold
            # Restart under capped backoff: queries inside the window
            # run in-process instead of forking into a crash loop; a
            # tripped breaker opens the full cap at once.
            window = (
                self.backoff_cap
                if tripped
                else capped_backoff(
                    consecutive - 1, self.backoff_base, self.backoff_cap
                )
            )
            self._degraded_until = self._clock() + window
            crash = WorkerCrash(
                pid=pid,
                exitcode=exitcode,
                elapsed=float(elapsed),
                reason=reason,
                consecutive=consecutive,
            )
            self.crashes.append(crash)
        if self.stats is not None:
            self.stats.service_worker_crashes += 1
            if tripped:
                self.stats.service_crash_breaker_trips += 1
        return crash
