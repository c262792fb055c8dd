"""Tests for the steady-state operator (Section IV-D)."""

import numpy as np
import pytest

from repro.checking.context import EvaluationContext
from repro.checking.steady import (
    expected_steady_state_value,
    occupancy_weighted,
    steady_sat_states,
    steady_state_probability,
)
from repro.logic.ast import Bound
from repro.models.epidemic import SisParameters, sis_model


class TestSteadyStateProbability:
    def test_virus_setting1_dies_out(self, ctx1):
        """Setting 1's fluid limit converges to everyone clean."""
        p_infected = steady_state_probability(ctx1, frozenset({1, 2}))
        assert p_infected == pytest.approx(0.0, abs=1e-6)
        p_clean = steady_state_probability(ctx1, frozenset({0}))
        assert p_clean == pytest.approx(1.0, abs=1e-6)

    def test_independent_of_partition_choice(self, ctx1):
        total = steady_state_probability(ctx1, frozenset({0, 1, 2}))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_sis_endemic_level(self):
        """SIS with R0=2 settles at 50% infected (textbook value)."""
        model = sis_model(SisParameters(beta=2.0, gamma=1.0))
        ctx = EvaluationContext(model, np.array([0.9, 0.1]))
        p = steady_state_probability(ctx, frozenset({1}))
        assert p == pytest.approx(0.5, abs=1e-6)

    def test_basin_selection(self):
        """From zero infection the SIS model stays disease-free, so the
        steady state depends on the starting basin — the context must
        follow its own trajectory."""
        model = sis_model(SisParameters(beta=2.0, gamma=1.0))
        ctx = EvaluationContext(model, np.array([1.0, 0.0]))
        p = steady_state_probability(ctx, frozenset({1}))
        assert p == pytest.approx(0.0, abs=1e-9)


class TestLongRunCounters:
    def test_long_run_work_reaches_the_context_stats(self, virus2):
        """The steady-state long run counts its drift calls and its
        solve into the context's counters, as the trajectory does."""
        calls, drift = [0], virus2.drift

        def counted(t, m):
            calls[0] += 1
            return drift(t, m)

        virus2.drift = counted
        ctx = EvaluationContext(virus2, np.array([0.85, 0.1, 0.05]))
        ctx.steady_state()
        assert calls[0] > 0
        assert ctx.stats.rhs_evaluations == calls[0]
        assert ctx.stats.solve_ivp_calls == 1
        assert ctx.stats.generator_evals == 0


class TestSteadySatStates:
    def test_all_or_nothing(self, ctx1):
        bound_holds = Bound(">", 0.5)
        sat = steady_sat_states(ctx1, frozenset({0}), bound_holds)
        assert sat == frozenset({0, 1, 2})
        bound_fails = Bound(">", 0.5)
        sat2 = steady_sat_states(ctx1, frozenset({1, 2}), bound_fails)
        assert sat2 == frozenset()


class TestExpectedSteadyState:
    def test_equals_plain_steady_probability(self, ctx1):
        """ES collapses to the same number for every occupancy vector
        (Section V-A)."""
        value = expected_steady_state_value(ctx1, frozenset({0}))
        assert value == pytest.approx(
            steady_state_probability(ctx1, frozenset({0}))
        )


class TestOccupancyWeighted:
    def test_weighted_sum(self):
        m = np.array([0.5, 0.3, 0.2])
        values = np.array([1.0, 0.0, 0.5])
        assert occupancy_weighted(m, values) == pytest.approx(0.6)
