"""Fault-injection harness for the numerical robustness layer.

These tests wrap drift / generator callables so they raise a
floating-point error or return NaN at chosen call counts, then assert
that each layer of the pipeline *degrades gracefully* (stiff-method
fallback, recorded in the :class:`~repro.diagnostics.DiagnosticTrace`)
or *fails loudly* (:class:`~repro.exceptions.NumericalError` carrying
the attempt history) — never silently corrupting a verdict.

Raise-mode faults are deterministic: scipy does not catch exceptions
from a right-hand side, so one raising call aborts exactly one
``solve_ivp`` attempt.  NaN-mode faults model a rate function going
non-finite for good (e.g. a division blow-up in a user model).
"""

import threading

import numpy as np
import pytest

from repro.checking import CheckOptions, MFModelChecker
from repro.checking.context import EvaluationContext
from repro.checking.statistical import StatisticalChecker
from repro.checking.transform import absorbing_generator_function
from repro.ctmc.inhomogeneous import solve_forward_kolmogorov
from repro.diagnostics import (
    DiagnosticTrace,
    check_transient_residual,
    robust_solve_ivp,
)
from repro.exceptions import (
    BudgetExceededError,
    NumericalError,
)
from repro.instrumentation import EvalStats
from repro.logic.parser import parse_path
from repro.meanfield.ode import OccupancyTrajectory
from repro.models import MODEL_REGISTRY
from repro.models.virus import SETTING_1, overall_ode_matrix
from repro.resilience import Budget


class FaultInjector:
    """Wrap a callable to misbehave at chosen call counts.

    Parameters
    ----------
    fn:
        The wrapped drift ``f(t, m)`` or generator ``q(t)``.
    mode:
        ``"raise"`` — raise :class:`FloatingPointError` (an
        ``ArithmeticError``, as ``np.errstate(all="raise")`` would);
        ``"nan"`` — return the result with every entry set to NaN.
    window:
        Call indices (1-based) at which to misbehave; ``None`` means
        every call.
    """

    def __init__(self, fn, mode="raise", window=None):
        self.fn = fn
        self.mode = mode
        self.window = window
        self.calls = 0

    def _faulty(self) -> bool:
        return self.window is None or self.calls in self.window

    def __call__(self, *args):
        self.calls += 1
        if self._faulty():
            if self.mode == "raise":
                raise FloatingPointError(
                    f"injected fault at call {self.calls}"
                )
            return np.full_like(
                np.asarray(self.fn(*args), dtype=float), np.nan
            )
        return self.fn(*args)


@pytest.fixture
def virus_drift():
    """The Setting-1 virus overall ODE (linear, so easy to cross-check)."""
    a = overall_ode_matrix(SETTING_1)
    return lambda t, m: m @ a


M0 = np.array([0.8, 0.15, 0.05])


class TestOccupancyFallback:
    def test_rk45_failure_retried_on_radau(self, virus_drift):
        """One injected fault kills the primary attempt (DOP853, RK45
        before it); Radau recovers."""
        clean = OccupancyTrajectory(virus_drift, M0, horizon=2.0)
        trace = DiagnosticTrace()
        injector = FaultInjector(virus_drift, mode="raise", window={3})
        traj = OccupancyTrajectory(injector, M0, horizon=2.0, trace=trace)

        assert trace.num_fallbacks == 1
        record = trace.solves[0]
        assert [a.method for a in record.attempts] == ["DOP853", "Radau"]
        assert not record.attempts[0].success
        assert "injected fault" in record.attempts[0].message
        assert record.attempts[1].success
        # Fallback atol is tightened, never loosened.
        assert record.attempts[1].atol < record.attempts[0].atol
        # The degraded solve still gives the right answer.
        assert np.allclose(traj(1.5), clean(1.5), atol=1e-7)
        # The fallback chain is visible in the --diagnose rendering.
        text = trace.format()
        assert "DOP853 FAILED" in text
        assert "Radau ok" in text
        assert "[fallback]" in text

    def test_all_methods_fail_raises_with_history(self, virus_drift):
        """A persistent fault exhausts the chain -> NumericalError."""
        trace = DiagnosticTrace()
        injector = FaultInjector(virus_drift, mode="raise", window=None)
        with pytest.raises(NumericalError) as err:
            OccupancyTrajectory(injector, M0, horizon=2.0, trace=trace)
        message = str(err.value)
        assert "occupancy ODE solve failed" in message
        for method in ("DOP853", "Radau", "LSODA"):
            assert method in message
        # The failed chain is still recorded for post-mortem diagnosis.
        assert len(trace.solves) == 1
        assert not trace.solves[0].success
        assert len(trace.solves[0].attempts) == 3

    def test_nan_drift_fails_loudly(self, virus_drift):
        """A drift gone NaN-for-good never yields a silent NaN answer."""
        injector = FaultInjector(virus_drift, mode="nan", window=None)
        with pytest.raises(NumericalError):
            OccupancyTrajectory(injector, M0, horizon=2.0)

    def test_empty_fallbacks_restores_die_on_first_failure(self, virus_drift):
        """``fallbacks=()`` disables degradation: one attempt, then raise."""
        trace = DiagnosticTrace()
        injector = FaultInjector(virus_drift, mode="raise", window={3})
        with pytest.raises(NumericalError) as err:
            OccupancyTrajectory(
                injector, M0, horizon=2.0, fallbacks=(), trace=trace
            )
        assert "after 1 attempts" in str(err.value)
        assert "[0.0, 2.0]" in str(err.value)
        assert len(trace.solves[0].attempts) == 1

    def test_stats_counters_fed_through_trace(self, virus_drift):
        stats = EvalStats()
        trace = DiagnosticTrace(stats=stats)
        injector = FaultInjector(virus_drift, mode="raise", window={3})
        OccupancyTrajectory(injector, M0, horizon=2.0, trace=trace)
        assert stats.solver_fallbacks == 1
        assert stats.residual_checks >= 1
        assert stats.residual_warnings == 0


class TestKolmogorovFallback:
    def test_forward_solve_falls_back(self, virus1, m_example1):
        """An injected fault in Q(t) degrades the Equation (5) solve."""
        ctx = EvaluationContext(virus1, m_example1)
        q_of_t = ctx.generator_function()
        clean = solve_forward_kolmogorov(q_of_t, 0.0, 1.0)

        trace = DiagnosticTrace()
        # Call 1 probes Q(t_start) outside the solve; fault call 3 so the
        # failure lands inside the RK45 attempt.
        injector = FaultInjector(q_of_t, mode="raise", window={3})
        pi = solve_forward_kolmogorov(injector, 0.0, 1.0, trace=trace)

        assert trace.num_fallbacks == 1
        assert trace.solves[0].attempts[0].method == "RK45"
        assert not trace.solves[0].attempts[0].success
        assert trace.solves[0].success
        assert np.allclose(pi, clean, atol=1e-7)

    def test_context_transient_matrix_falls_back(self, virus1, m_example1):
        """The context-level cache path reports fallbacks in ctx.trace."""
        ctx_clean = EvaluationContext(virus1, m_example1)
        absorbing = frozenset({2})
        signature = ("absorbing", absorbing)
        from repro.checking.transform import absorbing_generator_function

        q_clean = absorbing_generator_function(
            ctx_clean.generator_function(), absorbing
        )
        pi_clean = ctx_clean.transient_matrix(signature, q_clean, 0.0, 1.0)

        ctx = EvaluationContext(virus1, m_example1)
        q_faulty = FaultInjector(
            absorbing_generator_function(ctx.generator_function(), absorbing),
            mode="raise",
            window={3},
        )
        pi = ctx.transient_matrix(signature, q_faulty, 0.0, 1.0)

        assert ctx.trace.num_fallbacks >= 1
        assert ctx.stats.solver_fallbacks >= 1
        assert np.allclose(pi, pi_clean, atol=1e-7)
        # The monotone reachability-CDF residual check ran and passed.
        assert ctx.stats.residual_checks >= 1
        assert ctx.stats.residual_warnings == 0


class TestResidualChecks:
    def test_bad_matrix_recorded_as_warning(self):
        stats = EvalStats()
        trace = DiagnosticTrace(stats=stats)
        bad = np.array([[0.7, 0.2], [0.5, 0.5]])  # first row sums to 0.9
        record = check_transient_residual(bad, label="bad", trace=trace)
        assert not record.ok
        assert record.row_sum_error == pytest.approx(0.1)
        assert trace.warnings and "bad" in trace.warnings[0]
        assert stats.residual_warnings == 1
        assert "WARNING" in trace.format()

    def test_monotone_violation_detected(self):
        trace = DiagnosticTrace()
        pi = np.eye(2)
        # Absorbed mass decreasing between solver steps: 0.4 -> 0.3.
        steps = np.array([[0.2, 0.4], [0.25, 0.3]])
        record = check_transient_residual(
            pi, label="cdf", monotone_trajectory=steps, trace=trace
        )
        assert not record.ok
        assert record.monotone_violation == pytest.approx(0.1)
        assert trace.residual_maxima()["monotone"] == pytest.approx(0.1)


class TestRobustSolveDirect:
    def test_primary_success_records_single_attempt(self):
        trace = DiagnosticTrace()
        sol = robust_solve_ivp(
            lambda t, y: -y,
            (0.0, 1.0),
            np.array([1.0]),
            rtol=1e-8,
            atol=1e-10,
            trace=trace,
        )
        assert sol.success
        assert trace.num_fallbacks == 0
        assert len(trace.solves[0].attempts) == 1

    def test_non_finite_solution_triggers_fallback(self, monkeypatch):
        """A "successful" solve with NaN output is treated as a failure.

        scipy's adaptive error control usually rejects NaN steps, so the
        non-finite branch is exercised directly: the primary attempt is
        made to report success while carrying NaN values, and only the
        fallback attempt delegates to the real solver.
        """
        import repro.diagnostics as diag

        real_solve_ivp = diag.solve_ivp
        seen = []

        def poisoned(rhs, t_span, y0, method, **kw):
            seen.append(method)
            sol = real_solve_ivp(rhs, t_span, y0, method=method, **kw)
            if method == "RK45":
                sol.y = np.full_like(sol.y, np.nan)
            return sol

        monkeypatch.setattr(diag, "solve_ivp", poisoned)
        trace = DiagnosticTrace()
        sol = robust_solve_ivp(
            lambda t, y: -y,
            (0.0, 1.0),
            np.array([1.0]),
            rtol=1e-8,
            atol=1e-10,
            trace=trace,
            label="poisoned",
        )
        assert seen == ["RK45", "Radau"]
        assert np.all(np.isfinite(sol.y))
        attempts = trace.solves[0].attempts
        assert attempts[0].message == "solution contains non-finite values"
        assert attempts[1].success


class FakeClock:
    """Deterministic monotonic clock, advanced from inside a generator."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += float(dt)


class ClockAdvancer:
    """Wrap ``q(t)`` so it jumps a fake clock past a deadline at call N.

    With ``then_raise`` the expired call also raises, so solver attempts
    short enough to finish between budget checkpoints still fail and the
    next checkpoint (the following attempt's ``charge_solve``) fires.
    """

    def __init__(self, fn, clock, after_calls, dt=1e6, then_raise=False):
        self.fn = fn
        self.clock = clock
        self.after_calls = after_calls
        self.dt = dt
        self.then_raise = then_raise
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        if self.calls >= self.after_calls:
            self.clock.advance(self.dt)
            if self.then_raise:
                raise FloatingPointError("injected fault past the deadline")
        return self.fn(t)


def _fail_ode_rung(monkeypatch, reason="injected: ode rung down"):
    """Make the ODE rung fail for real windows (zero windows stay exact)."""
    real = EvaluationContext._transient_ode

    def failing(self, signature, q_of_t, t_start, duration):
        if duration > 0.0:
            raise NumericalError(reason)
        return real(self, signature, q_of_t, t_start, duration)

    monkeypatch.setattr(EvaluationContext, "_transient_ode", failing)


ABSORBING = frozenset({2})
SIGNATURE = ("absorbing", ABSORBING)


def _absorbing_q(ctx):
    return absorbing_generator_function(ctx.generator_function(), ABSORBING)


class TestDegradationLadder:
    """Below the ODE chain there is no rung: failures are loud, not cached."""

    def test_ode_failure_raises_numerical_error(
        self, virus1, m_example1, monkeypatch
    ):
        _fail_ode_rung(monkeypatch)
        ctx = EvaluationContext(virus1, m_example1)
        with pytest.raises(NumericalError, match="injected: ode rung down"):
            ctx.transient_matrix(SIGNATURE, _absorbing_q(ctx), 0.0, 1.0)

        assert ctx.trace.downgrades == []
        assert ctx.stats.ladder_downgrades == 0
        # Nothing was cached for the failed window: once the fault is
        # gone the same key is solved afresh.
        monkeypatch.undo()
        pi = ctx.transient_matrix(SIGNATURE, _absorbing_q(ctx), 0.0, 1.0)
        assert ctx.stats.transient_cache_misses == 2
        assert ctx.stats.transient_cache_hits == 0
        assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-9)

    def test_every_rung_failing_raises_with_history(
        self, virus1, m_example1
    ):
        """A generator gone NaN-for-good exhausts the ODE chain."""
        ctx = EvaluationContext(virus1, m_example1)
        q_nan = FaultInjector(_absorbing_q(ctx), mode="nan", window=None)
        with pytest.raises(NumericalError) as err:
            ctx.transient_matrix(SIGNATURE, q_nan, 0.0, 1.0)
        message = str(err.value)
        for method in ("RK45", "Radau", "LSODA"):
            assert method in message
        assert ctx.trace.downgrades == []
        assert ctx.stats.ladder_downgrades == 0


class TestDeadlineAtEachRung:
    """A deadline hit inside the ODE chain surfaces promptly with progress."""

    def _expect_budget_error(self, ctx, q):
        with pytest.raises(BudgetExceededError) as err:
            ctx.transient_matrix(SIGNATURE, q, 0.0, 1.0)
        assert "execution budget exceeded" in str(err.value)
        assert "elapsed_seconds" in err.value.progress
        return err.value

    def test_deadline_during_ode_rung(self, virus1, m_example1):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock)
        ctx = EvaluationContext(virus1, m_example1, budget=budget)
        # The RK45 attempt both expires the clock and fails; the next
        # attempt's charge_solve surfaces BudgetExceededError instead of
        # the fallback chain retrying on stale time.
        q = ClockAdvancer(
            _absorbing_q(ctx), clock, after_calls=2, then_raise=True
        )
        self._expect_budget_error(ctx, q)

    def test_solver_cap_enforced(self, virus1, m_example1):
        budget = Budget(max_solves=1, clock=FakeClock())
        ctx = EvaluationContext(virus1, m_example1, budget=budget)
        q = _absorbing_q(ctx)
        with pytest.raises(BudgetExceededError, match="cap 1 reached"):
            # Distinct windows so the transient cache cannot serve them.
            ctx.transient_matrix(SIGNATURE, q, 0.0, 1.0)
            ctx.transient_matrix(SIGNATURE, q, 0.0, 2.0)


class TestDeadlineReachesEverySolve:
    """A check that never settles still ends at its deadline: the
    occupancy ODE and the steady-state long run obey the budget too,
    and the next operator's integrals are charged to it.  Each check
    that could run forever runs on a thread joined with a timeout, so a
    regression fails here instead of hanging the suite."""

    @staticmethod
    def _check_by(deadline, model, occupancy, formula):
        outcome = []

        def run():
            checker = MFModelChecker(model, CheckOptions(deadline=deadline))
            try:
                outcome.append(checker.check(formula, np.array(occupancy)))
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(deadline + 1.0)
        assert not thread.is_alive(), "the check outlived its deadline"
        return outcome[0]

    def test_occupancy_ode_obeys_the_deadline(self):
        # From m1 = 0.1 the smart-virus drift reaches its m1 floor near
        # t = 0.77, where RK45's stable step is about 1e-11.
        error = self._check_by(
            3.0,
            MODEL_REGISTRY["virus1"](),
            [0.1, 0.5, 0.4],
            "EP[<0.4](infected U[0,5] not_infected)",
        )
        assert isinstance(error, BudgetExceededError)

    def test_steady_state_long_run_obeys_the_deadline(self):
        # The diurnal rates oscillate, so the long run never settles.
        error = self._check_by(
            2.0, MODEL_REGISTRY["diurnal"](), [0.5, 0.5], "ES[>0.1](tt)"
        )
        assert isinstance(error, BudgetExceededError)

    def test_next_operator_integral_is_charged(self):
        # The occupancy ODE takes the one allowed solve, so the next
        # operator's integral is the second and must be refused.
        checker = MFModelChecker(
            MODEL_REGISTRY["virus1"](), CheckOptions(max_solves=1)
        )
        with pytest.raises(BudgetExceededError):
            checker.check(
                "EP[>0.1](X[0,1] infected)", np.array([0.8, 0.15, 0.05])
            )


class TestStatisticalRateBound:
    def test_nan_rate_bound_fails_loudly(self, virus1, m_example1):
        """A NaN thinning bound must not silently corrupt the estimate."""
        ctx = EvaluationContext(virus1, m_example1)
        checker = StatisticalChecker(ctx, samples=50, seed=0)
        formula = parse_path("not_infected U[0,1] infected")
        with pytest.raises(NumericalError) as err:
            checker.path_probability(formula, "s1", rate_bound=float("nan"))
        assert "rate bound" in str(err.value)
        assert any("invalid thinning rate bound" in n for n in ctx.trace.notes)

    def test_nan_generator_rate_bound_fails_loudly(self, virus1, m_example1):
        """NaN rates poison the probed bound -> loud NumericalError."""
        ctx = EvaluationContext(virus1, m_example1)
        # Replace the memoized generator with a NaN-returning twin before
        # the checker probes it for the thinning bound.
        ctx._generator_fn = FaultInjector(
            ctx.generator_function(), mode="nan", window=None
        )
        checker = StatisticalChecker(ctx, samples=50, seed=0, method="serial")
        formula = parse_path("not_infected U[0,1] infected")
        with pytest.raises(NumericalError):
            checker.path_probability(formula, "s1")
