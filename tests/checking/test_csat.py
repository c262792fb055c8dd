"""Tests for conditional satisfaction sets (Section V-B, Table I)."""

import numpy as np
import pytest

from repro.checking import MFModelChecker
from repro.checking.csat import threshold_intervals
from repro.checking.intervals import IntervalSet
from repro.exceptions import ModelError
from repro.logic.ast import Bound


class TestThresholdIntervals:
    def test_monotone_function(self):
        result = threshold_intervals(
            lambda t: t / 10.0, 0.0, 10.0, Bound("<", 0.5)
        )
        assert len(result.intervals) == 1
        a, b = result.intervals[0]
        assert a == pytest.approx(0.0)
        assert b == pytest.approx(5.0, abs=1e-8)

    def test_oscillating_function(self):
        result = threshold_intervals(
            lambda t: np.sin(t), 0.0, 2 * np.pi, Bound(">", 0.0),
            grid_points=65,
        )
        assert len(result.intervals) == 1
        a, b = result.intervals[0]
        assert a == pytest.approx(0.0, abs=1e-6)
        assert b == pytest.approx(np.pi, abs=1e-6)

    def test_never_satisfied(self):
        result = threshold_intervals(
            lambda t: 0.9, 0.0, 5.0, Bound("<", 0.5)
        )
        assert result.is_empty

    def test_always_satisfied(self):
        result = threshold_intervals(
            lambda t: 0.1, 0.0, 5.0, Bound("<", 0.5)
        )
        assert result == IntervalSet.whole(5.0)

    def test_zero_at_final_grid_point_becomes_breakpoint(self):
        """Regression: an exact zero of ``g - p`` at the *last* grid point
        of a segment is never ``vals[i]`` in the bracketing scan, so it
        used to be dropped — losing the sliver where the bound flips."""
        # The scan grid for [0, 1] is linspace(eps, 1 - eps, n) with
        # eps = 1e-9; linspace pins its endpoint exactly, so g crosses
        # the threshold *exactly at* the final grid point.
        target = 1.0 - 1e-9
        g = lambda t: 0.5 + (t - target)
        result = threshold_intervals(g, 0.0, 1.0, Bound(">", 0.5))
        assert not result.is_empty
        a, b = result.intervals[-1]
        assert a == pytest.approx(target, abs=1e-12)
        assert b == pytest.approx(1.0)
        # The complementary bound gets everything up to the touch point.
        below = threshold_intervals(g, 0.0, 1.0, Bound("<", 0.5))
        assert below.intervals[0][1] == pytest.approx(target, abs=1e-12)

    def test_interior_grid_zero_still_handled(self):
        """An exact zero at an interior grid point splits the segment."""
        ts = __import__("numpy").linspace(1e-9, 1.0 - 1e-9, 129)
        touch = float(ts[64])
        g = lambda t: 0.5 + (t - touch)
        result = threshold_intervals(g, 0.0, 1.0, Bound(">=", 0.5))
        a, _ = result.intervals[-1]
        assert a == pytest.approx(touch, abs=1e-12)

    def test_jump_handled_via_discontinuities(self):
        g = lambda t: 0.1 if t < 2.0 else 0.9
        result = threshold_intervals(
            g, 0.0, 5.0, Bound("<", 0.5), discontinuities=[2.0]
        )
        assert len(result.intervals) == 1
        assert result.intervals[0][1] == pytest.approx(2.0, abs=1e-6)


class TestConditionalSatBoolean:
    @pytest.fixture
    def checker(self, virus1) -> MFModelChecker:
        return MFModelChecker(virus1)

    def test_tt_whole_horizon(self, checker, m_example1):
        assert checker.conditional_sat("tt", m_example1, 7.0) == IntervalSet.whole(7.0)

    def test_ff_empty(self, checker, m_example1):
        assert checker.conditional_sat("ff", m_example1, 7.0).is_empty

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, checker, m_example1, theta):
        with pytest.raises(ModelError, match="theta"):
            checker.conditional_sat("E[<0.15](infected)", m_example1, theta)

    def test_negation_is_complement(self, checker, m_example1):
        psi = "E[>0.15](infected)"
        pos = checker.conditional_sat(psi, m_example1, 10.0)
        neg = checker.conditional_sat(f"!({psi})", m_example1, 10.0)
        assert pos.intersection(neg).measure() == pytest.approx(0.0, abs=1e-6)
        assert pos.union(neg).measure() == pytest.approx(10.0, abs=1e-6)

    def test_conjunction_is_intersection(self, checker, m_example1):
        a = "E[>0.15](infected)"
        b = "E[<0.19](infected)"
        sat_a = checker.conditional_sat(a, m_example1, 10.0)
        sat_b = checker.conditional_sat(b, m_example1, 10.0)
        sat_ab = checker.conditional_sat(f"{a} & {b}", m_example1, 10.0)
        assert sat_ab.approx_equal(sat_a.intersection(sat_b), tol=1e-6)

    def test_disjunction_is_union(self, checker, m_example1):
        a = "E[>0.19](infected)"
        b = "E[<0.05](infected)"
        sat_a = checker.conditional_sat(a, m_example1, 40.0)
        sat_b = checker.conditional_sat(b, m_example1, 40.0)
        sat_ab = checker.conditional_sat(f"{a} | {b}", m_example1, 40.0)
        assert sat_ab.approx_equal(sat_a.union(sat_b), tol=1e-5)


class TestConditionalSatLeaves:
    @pytest.fixture
    def checker(self, virus1) -> MFModelChecker:
        return MFModelChecker(virus1)

    def test_expectation_crossing_time(self, checker, m_example1):
        """Infected fraction decays from 0.2 through 0.15; cSat boundary
        must sit exactly where the trajectory crosses the threshold."""
        psi = "E[>=0.15](infected)"
        result = checker.conditional_sat(psi, m_example1, 30.0)
        assert len(result.intervals) == 1
        a, b = result.intervals[0]
        assert a == pytest.approx(0.0)
        traj = checker.model.trajectory(m_example1, horizon=30.0)
        m_at_boundary = traj(b)
        assert m_at_boundary[1] + m_at_boundary[2] == pytest.approx(
            0.15, abs=1e-6
        )

    def test_expected_steady_state_constant(self, checker, m_example1):
        # The ES value is time-independent: whole horizon or empty.
        assert checker.conditional_sat(
            "ES[>0.9](not_infected)", m_example1, 12.0
        ) == IntervalSet.whole(12.0)
        assert checker.conditional_sat(
            "ES[>0.1](infected)", m_example1, 12.0
        ).is_empty

    def test_expected_probability_monotone_decay(self, checker, m_example1):
        """EP of infection shrinks in Setting 1, so an upper bound that
        starts violated becomes satisfied at a unique crossing."""
        value0 = checker.value(
            "EP[<0.1](not_infected U[0,1] infected)", m_example1
        )
        assert value0 > 0.1  # violated at time zero (standard semantics)
        result = checker.conditional_sat(
            "EP[<0.1](not_infected U[0,1] infected)", m_example1, 40.0
        )
        assert len(result.intervals) == 1
        a, b = result.intervals[0]
        assert a > 0.0
        assert b == pytest.approx(40.0)
        # At the boundary the EP value equals the threshold.
        g = checker.expected_probability_curve(
            "not_infected U[0,1] infected", m_example1, 40.0
        )
        assert g(a) == pytest.approx(0.1, abs=1e-6)

    def test_nested_formula_goes_through(self, virus2, m_example2):
        checker = MFModelChecker(virus2)
        psi = (
            "E[>0.8](P[>0.9](infected U[0,3] "
            "(P[>0.8](tt U[0,0.5] infected))))"
        )
        result = checker.conditional_sat(psi, m_example2, 2.0)
        # Under printed Setting 2 the inner formula never crosses 0.8, the
        # outer until holds only in infected states (fraction 0.15): the
        # expectation bound >0.8 is never met.
        assert result.is_empty
