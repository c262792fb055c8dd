"""Unit tests for the query supervisor (isolation, crashes, breaker).

These exercise :class:`repro.server.supervisor.QuerySupervisor` in
isolation with plain closures — no checking service, no HTTP.  The
full-stack fault-injection scenarios live in ``test_chaos.py``.
"""

import os
import signal
import time

import pytest

from repro.exceptions import (
    EXIT_BUDGET_EXCEEDED,
    BudgetExceededError,
    ModelError,
    ParseError,
    WorkerCrashError,
    exit_code_for,
)
from repro.instrumentation import EvalStats
from repro.parallel import fork_available
from repro.server.supervisor import QuerySupervisor, WorkerCrash

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)


def _suicide():
    os.kill(os.getpid(), signal.SIGKILL)


class TestModes:
    def test_none_mode_runs_inline(self):
        sup = QuerySupervisor("none")
        value, isolated = sup.run(lambda: 42)
        assert value == 42
        assert isolated is False

    @needs_fork
    def test_process_mode_runs_in_worker(self):
        sup = QuerySupervisor("process")
        value, isolated = sup.run(lambda: 42)
        assert value == 42
        assert isolated is True

    @needs_fork
    def test_worker_inherits_parent_state_and_ships_result(self):
        # The whole point of fork isolation: closures over unpicklable
        # parent state run fine; only the result crosses the pipe.
        unpicklable = lambda x: x * 2  # noqa: E731 - deliberately a lambda
        sup = QuerySupervisor("process")
        value, isolated = sup.run(lambda: unpicklable(21))
        assert value == 42
        assert isolated is True

    def test_invalid_mode_rejected(self):
        with pytest.raises(ModelError, match="isolate"):
            QuerySupervisor("container")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker_grace": 0.0},
            {"default_timeout": -1.0},
            {"crash_loop_threshold": 0},
            {"backoff_base": 0.0},
            {"backoff_base": 2.0, "backoff_cap": 1.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ModelError):
            QuerySupervisor("none", **kwargs)


class TestExceptionTransfer:
    """Library errors cross the pipe as themselves, with their state."""

    @needs_fork
    def test_library_error_propagates_unchanged(self):
        sup = QuerySupervisor("process")

        def raises():
            raise ParseError("bad token", position=7)

        with pytest.raises(ParseError, match="bad token") as excinfo:
            sup.run(raises)
        assert excinfo.value.position == 7

    @needs_fork
    def test_budget_error_keeps_progress(self):
        sup = QuerySupervisor("process")

        def raises():
            raise BudgetExceededError("out of time", {"solves": 3})

        with pytest.raises(BudgetExceededError) as excinfo:
            sup.run(raises)
        assert excinfo.value.progress == {"solves": 3}

    @needs_fork
    def test_foreign_exception_is_wrapped(self):
        sup = QuerySupervisor("process")

        def raises():
            raise ValueError("numpy went sideways")

        with pytest.raises(Exception, match="numpy went sideways"):
            sup.run(raises)


@needs_fork
class TestCrashHandling:
    def fast_supervisor(self, **kwargs):
        kwargs.setdefault("backoff_base", 0.05)
        kwargs.setdefault("backoff_cap", 0.2)
        kwargs.setdefault("stats", EvalStats())
        return QuerySupervisor("process", **kwargs)

    def test_killed_worker_raises_worker_crash(self):
        sup = self.fast_supervisor()
        with pytest.raises(WorkerCrashError) as excinfo:
            sup.run(_suicide)
        assert excinfo.value.exitcode == -signal.SIGKILL
        assert "SIGKILL" in str(excinfo.value)
        assert sup.stats.service_worker_crashes == 1
        assert len(sup.crashes) == 1
        assert isinstance(sup.crashes[0], WorkerCrash)

    def test_crash_maps_to_exit_code_5(self):
        sup = self.fast_supervisor()
        with pytest.raises(WorkerCrashError) as excinfo:
            sup.run(_suicide)
        assert exit_code_for(excinfo.value) == EXIT_BUDGET_EXCEEDED

    def test_crash_noted_in_trace(self):
        """A crash is recorded on the supervisor, where ``/stats`` reads
        it; the error raised to the caller carries the same description."""
        sup = self.fast_supervisor()
        with pytest.raises(WorkerCrashError) as excinfo:
            sup.run(_suicide)
        crash = sup.crashes[-1]
        assert crash.exitcode == -signal.SIGKILL
        assert crash.consecutive == 1
        assert "WorkerCrash" in crash.describe()
        assert "SIGKILL" in crash.describe()
        assert str(excinfo.value) == crash.describe()

    def test_crash_degrades_then_recovers(self):
        sup = self.fast_supervisor()
        with pytest.raises(WorkerCrashError):
            sup.run(_suicide)
        # Inside the cool-down window the supervisor runs in-process
        # instead of forking into a crash loop...
        assert sup.degraded() is True
        value, isolated = sup.run(lambda: "survived")
        assert (value, isolated) == ("survived", False)
        # ...and once the window elapses, workers fork again (restart).
        time.sleep(0.08)
        value, isolated = sup.run(lambda: "forked", deadline=None)
        assert (value, isolated) == ("forked", True)
        assert sup.stats.service_worker_restarts == 1

    def test_crash_loop_breaker_trips(self):
        sup = self.fast_supervisor(crash_loop_threshold=2)
        for _ in range(2):
            with pytest.raises(WorkerCrashError):
                sup.run(_suicide)
            time.sleep(0.25)  # let each cool-down expire to fork again
        assert sup.stats.service_crash_breaker_trips == 1
        assert sup.stats.service_worker_crashes == 2

    def test_worker_exceeding_allowance_is_reaped(self):
        sup = self.fast_supervisor(worker_grace=0.2)
        with pytest.raises(WorkerCrashError, match="wall-clock"):
            sup.run(lambda: time.sleep(30), deadline=0.1)

    def test_success_resets_consecutive_crashes(self):
        sup = self.fast_supervisor(crash_loop_threshold=3)
        with pytest.raises(WorkerCrashError):
            sup.run(_suicide)
        time.sleep(0.08)
        sup.run(lambda: 1)
        assert sup.snapshot()["consecutive_crashes"] == 0

    def test_snapshot_shape(self):
        sup = self.fast_supervisor()
        snap = sup.snapshot()
        assert snap["mode"] == "process"
        assert snap["degraded"] is False
        assert snap["active_workers"] == 0
        assert snap["recent_crashes"] == []

