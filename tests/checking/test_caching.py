"""Solve-level caching in :class:`EvaluationContext` — correctness first.

Caching must be invisible to the numerics: cached Π matrices are
identical to uncached solves, the steady context shares only the
steady-state result, and the instrumentation counters actually count.
"""

import numpy as np
import pytest

from repro.checking.context import EvaluationContext
from repro.checking.global_ import MFModelChecker
from repro.checking.options import CheckOptions
from repro.checking.transform import absorbing_generator_function
from repro.ctmc.inhomogeneous import solve_forward_kolmogorov
from repro.instrumentation import EvalStats
from repro.models.load_balancing import deep_load_balancing_model

INFECTED = frozenset({1, 2})


class TestGeneratorMemo:
    def test_repeated_times_return_cached_array(self, ctx1):
        q_of_t = ctx1.generator_function()
        q1 = q_of_t(1.25)
        q2 = q_of_t(1.25)
        assert q2 is q1  # memoized, not re-assembled
        assert ctx1.stats.generator_cache_hits == 1
        assert ctx1.stats.generator_cache_misses == 1

    def test_memo_matches_direct_assembly(self, ctx1, virus1):
        q_of_t = ctx1.generator_function()
        for t in (0.0, 0.5, 2.0, 3.75):
            direct = virus1.local.generator(ctx1.occupancy(t), t)
            np.testing.assert_allclose(q_of_t(t), direct, rtol=0.0, atol=1e-12)

    def test_clear_caches_forces_reassembly(self, ctx1):
        q_of_t = ctx1.generator_function()
        q1 = q_of_t(0.5)
        ctx1.clear_caches()
        q2 = q_of_t(0.5)
        assert q2 is not q1
        np.testing.assert_array_equal(q1, q2)


class TestTransientCache:
    def test_cached_matrix_identical_to_uncached_solve(self, ctx1):
        q_abs = absorbing_generator_function(
            ctx1.generator_function(), INFECTED
        )
        sig = ("absorbing", INFECTED)
        pi = ctx1.transient_matrix(sig, q_abs, 0.0, 1.0)
        again = ctx1.transient_matrix(sig, q_abs, 0.0, 1.0)
        assert again is pi
        assert ctx1.stats.transient_cache_hits == 1
        # An uncached solve of the same problem (deterministic RK45 over
        # the memoized generator) reproduces the cached matrix exactly.
        fresh = solve_forward_kolmogorov(
            q_abs, 0.0, 1.0, rtol=ctx1.options.ode_rtol, atol=ctx1.options.ode_atol
        )
        np.testing.assert_array_equal(pi, fresh)

    def test_distinct_windows_and_tolerances_miss(self, ctx1):
        """Distinct windows are distinct entries; the tolerances are
        fixed with the context's options, so they need no key of their
        own."""
        q_abs = absorbing_generator_function(
            ctx1.generator_function(), INFECTED
        )
        sig = ("absorbing", INFECTED)
        ctx1.transient_matrix(sig, q_abs, 0.0, 1.0)
        ctx1.transient_matrix(sig, q_abs, 0.0, 2.0)
        ctx1.transient_matrix(sig, q_abs, 1.0, 1.0)
        assert ctx1.stats.transient_cache_hits == 0
        assert ctx1.stats.transient_cache_misses == 3

    def test_formula_result_unchanged_by_warm_cache(self, virus1, m_example1):
        """Checking the same formula twice on one context gives the exact
        same verdict; the shared checker's path-probability memo serves
        the repeat, so it never reaches the transient cache."""
        checker = MFModelChecker(virus1)
        ctx = checker.context(m_example1)
        formula = "EP[<0.3](not_infected U[0,1] infected)"
        first = checker.check(formula, m_example1, ctx=ctx)
        hits_after_first = ctx.stats.transient_cache_hits
        misses_after_first = ctx.stats.transient_cache_misses
        memo_hits_after_first = ctx.stats.formula_memo_hits
        second = checker.check(formula, m_example1, ctx=ctx)
        assert second == first
        assert ctx.stats.transient_cache_hits == hits_after_first
        assert ctx.stats.transient_cache_misses == misses_after_first
        assert ctx.stats.formula_memo_hits > memo_hits_after_first

    def test_formula_result_unchanged_by_warm_transient_cache(
        self, virus1, m_example1
    ):
        """Without the formula optimizations every leaf gets a fresh
        checker, so the repeat is served from the transient cache."""
        checker = MFModelChecker(
            virus1, CheckOptions(formula_optimizations="none")
        )
        ctx = checker.context(m_example1)
        formula = "EP[<0.3](not_infected U[0,1] infected)"
        first = checker.check(formula, m_example1, ctx=ctx)
        misses_after_first = ctx.stats.transient_cache_misses
        second = checker.check(formula, m_example1, ctx=ctx)
        assert second == first
        assert ctx.stats.transient_cache_hits > 0
        assert ctx.stats.transient_cache_misses == misses_after_first


class TestDerivedContexts:
    def test_steady_context_reuses_steady_result(self, ctx1):
        steady = ctx1.steady_state()
        sc = ctx1.steady_context()
        np.testing.assert_array_equal(sc.steady_state(), steady)
        assert sc.stats is ctx1.stats


class TestVectorizedTrajectory:
    def test_eval_many_matches_scalar_calls(self, ctx1):
        ts = np.linspace(0.0, 5.0, 41)
        many = ctx1.occupancy_many(ts)
        assert many.shape == (41, ctx1.num_states)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(
                many[i], ctx1.occupancy(t), rtol=0.0, atol=1e-12
            )

    def test_eval_many_rejects_negative_times(self, ctx1):
        with pytest.raises(Exception):
            ctx1.occupancy_many(np.array([-0.5, 1.0]))


class TestStats:
    def test_counters_accumulate_over_a_check(self, virus1, m_example1):
        stats = EvalStats()
        ctx = EvaluationContext(virus1, m_example1, stats=stats)
        checker = MFModelChecker(virus1)
        checker.check(
            "EP[<0.5](not_infected U[0,1] infected)", m_example1, ctx=ctx
        )
        assert stats.rhs_evaluations > 0
        assert stats.solve_ivp_calls > 0
        assert stats.generator_evals > 0
        d = stats.as_dict()
        assert d["rhs_evaluations"] == stats.rhs_evaluations
        stats.reset()
        assert stats.rhs_evaluations == 0

    def test_fresh_context_has_private_stats(self, virus1, m_example1):
        a = EvaluationContext(virus1, m_example1)
        b = EvaluationContext(virus1, m_example1)
        assert a.stats is not b.stats

    def test_diagnose_reports_the_sparse_engine_counters(self):
        model = deep_load_balancing_model(buffer=40)
        occupancy = 0.7 ** np.arange(model.num_states, dtype=float)
        occupancy /= occupancy.sum()
        ctx = EvaluationContext(
            model, occupancy, CheckOptions(matrix_backend="sparse")
        )
        MFModelChecker(model).value(
            "EP[>=0](busy U[0,1] congested)", occupancy, ctx=ctx
        )
        stats = ctx.stats
        assert stats.sparse_cells_built > 0 and stats.sparse_applies > 0
        line = next(
            line
            for line in ctx.trace.format(stats).splitlines()
            if line.strip().startswith("propagator:")
        )
        assert f"{stats.sparse_cells_built} cells built" in line
        assert f"{stats.sparse_applies} applies" in line
        assert f"{stats.sparse_refinements} refinements" in line


class TestEngineClearInPlace:
    """Regression: :meth:`EvaluationContext.clear_caches` must clear the
    action engines *in place*.  It used to only drop the context's
    lookup dicts, so an engine captured from ``action_engine`` before
    the clear kept serving stale cells."""

    def test_shared_engine_cells_are_cleared_in_place(
        self, virus1, m_example1
    ):
        ctx = EvaluationContext(
            virus1, m_example1, CheckOptions(matrix_backend="sparse")
        )
        sig = ("absorbing", INFECTED)
        engine = ctx.action_engine(sig)
        expected = engine.propagate(0.5, 1.5)
        assert engine.num_cached_cells > 0

        ctx.clear_caches()
        assert engine.num_cached_cells == 0
        assert ctx.action_engine(sig) is engine  # still registered

        # The captured engine observes the invalidation and rebuilds;
        # the rebuilt answer matches the pre-clear one.
        rebuilt = engine.propagate(0.5, 1.5)
        np.testing.assert_allclose(rebuilt, expected, atol=1e-9)
        assert engine.num_cached_cells > 0
