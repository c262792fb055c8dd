"""Tests for OccupancyTrajectory (Equation (1) solutions)."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from repro.checking import EvaluationContext, MFModelChecker
from repro.exceptions import ModelError, NumericalError
from repro.meanfield.ode import OccupancyTrajectory
from repro.models.virus import (
    SETTING_1,
    SETTING_2,
    overall_ode_matrix,
    virus_model,
)


@pytest.fixture
def linear_drift():
    """The Setting-1 virus overall ODE, which is linear: ṁ = m A."""
    a = overall_ode_matrix(SETTING_1)
    return a, (lambda t, m: m @ a)


class TestAgainstClosedForm:
    def test_matches_matrix_exponential(self, linear_drift):
        a, drift = linear_drift
        m0 = np.array([0.8, 0.15, 0.05])
        traj = OccupancyTrajectory(drift, m0, horizon=10.0)
        for t in (0.5, 2.0, 7.5, 10.0):
            exact = m0 @ expm(a * t)
            assert np.allclose(traj(t), exact, atol=1e-8), f"t={t}"

    def test_initial_returned_exactly(self, linear_drift):
        _, drift = linear_drift
        m0 = np.array([0.5, 0.25, 0.25])
        traj = OccupancyTrajectory(drift, m0, horizon=1.0)
        assert np.allclose(traj(0.0), m0)

    def test_model_trajectory_matches_closed_form(self):
        """Full-stack check: MeanFieldModel -> trajectory vs expm."""
        a = overall_ode_matrix(SETTING_1)
        model = virus_model(SETTING_1)
        m0 = np.array([0.8, 0.15, 0.05])
        traj = model.trajectory(m0, horizon=20.0)
        for t in (1.0, 5.0, 14.0, 20.0):
            exact = m0 @ expm(a * t)
            assert np.allclose(traj(t), exact, atol=1e-7), f"t={t}"


class TestContextTrajectoryClosedForm:
    """The context's trajectory (DOP853 at rtol 1e-9, atol 1e-11) over the
    horizons ``paper-cold`` names, against ``m̄(0)·expm(At)`` of Eq. (21).
    At step ends DOP853 lands within about 1e-11; between its steps (about
    twenty over these spans) the interpolant is off by up to 2e-10, still
    five times under the trajectory's rtol."""

    @pytest.mark.parametrize(
        "setting, start, horizon",
        [
            (SETTING_1, (0.8, 0.15, 0.05), 22.0),
            (SETTING_2, (0.85, 0.1, 0.05), 16.5),
        ],
        ids=("virus1", "virus2"),
    )
    def test_within_1e_9_at_step_ends_and_on_a_grid(
        self, setting, start, horizon
    ):
        m0 = np.array(start)
        a = overall_ode_matrix(setting)
        ctx = EvaluationContext(virus_model(setting), m0)
        ctx.trajectory.cover(horizon)
        (segment,) = ctx.trajectory._segments
        step_ends = segment.interpolant.ode_solution.ts
        grid = np.linspace(0.0, horizon, 2201)
        for t in np.concatenate([step_ends, grid]):
            exact = m0 @ expm(a * t)
            assert np.max(np.abs(ctx.occupancy(t) - exact)) <= 1e-9, t

    def test_csat_crossing_within_1e_9_of_closed_form(self):
        """``cSat(E[<0.15](infected), 20)`` starts where the closed-form
        infected mass falls through 0.15 (t ≈ 6.2668)."""
        m0 = np.array([0.8, 0.15, 0.05])
        a = overall_ode_matrix(SETTING_1)
        crossing = brentq(
            lambda t: (m0 @ expm(a * t))[1:].sum() - 0.15, 5.0, 8.0,
            xtol=1e-15,
        )
        checker = MFModelChecker(virus_model(SETTING_1))
        result = checker.conditional_sat("E[<0.15](infected)", m0, 20.0)
        (start, end), = result.intervals
        assert end == 20.0
        assert abs(start - crossing) <= 1e-9


class TestLazyExtension:
    def test_extends_past_horizon(self, linear_drift):
        a, drift = linear_drift
        m0 = np.array([0.8, 0.15, 0.05])
        traj = OccupancyTrajectory(drift, m0, horizon=1.0)
        value = traj(8.0)  # requires two extensions
        exact = m0 @ expm(a * 8.0)
        assert np.allclose(value, exact, atol=1e-7)
        assert traj.horizon >= 8.0

    def test_max_horizon_enforced(self, linear_drift):
        _, drift = linear_drift
        traj = OccupancyTrajectory(
            drift, np.array([1.0, 0.0, 0.0]), horizon=1.0, max_horizon=5.0
        )
        with pytest.raises(ModelError):
            traj(100.0)

    def test_negative_time_rejected(self, linear_drift):
        _, drift = linear_drift
        traj = OccupancyTrajectory(drift, np.array([1.0, 0.0, 0.0]), horizon=1.0)
        with pytest.raises(ModelError):
            traj(-0.5)


class TestSimplexInvariance:
    def test_stays_normalized(self, linear_drift):
        _, drift = linear_drift
        m0 = np.array([0.34, 0.33, 0.33])
        traj = OccupancyTrajectory(drift, m0, horizon=30.0)
        for t in np.linspace(0, 30, 13):
            m = traj(t)
            assert m.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(m >= 0.0)


class TestGrid:
    def test_grid_shape(self, linear_drift):
        _, drift = linear_drift
        traj = OccupancyTrajectory(drift, np.array([1.0, 0.0, 0.0]), horizon=5.0)
        times, values = traj.grid(5.0, num=11)
        assert times.shape == (11,)
        assert values.shape == (11, 3)
        assert np.allclose(values[0], [1.0, 0.0, 0.0])

    def test_grid_rejects_tiny_num(self, linear_drift):
        _, drift = linear_drift
        traj = OccupancyTrajectory(drift, np.array([1.0, 0.0, 0.0]), horizon=5.0)
        with pytest.raises(ModelError):
            traj.grid(5.0, num=1)


class TestFailurePaths:
    def test_zero_mass_rejected_scalar(self):
        """Renormalization must fail loudly when all mass is clipped away."""
        drift = lambda t, m: np.zeros_like(m)
        traj = OccupancyTrajectory(drift, np.zeros(3), horizon=1.0)
        with pytest.raises(NumericalError, match="zero mass"):
            traj(0.5)

    def test_zero_mass_rejected_vectorized(self):
        drift = lambda t, m: np.zeros_like(m)
        traj = OccupancyTrajectory(drift, np.zeros(3), horizon=1.0)
        with pytest.raises(NumericalError, match="zero mass"):
            traj.eval_many(np.array([0.25, 0.75]))

    def test_extend_failure_names_interval(self, linear_drift):
        """The _extend_to wrapper must say *which* window failed."""
        _, drift = linear_drift

        def bad_drift(t, m):
            raise FloatingPointError("boom")

        with pytest.raises(NumericalError, match=r"\[0.0, 2.0\]"):
            OccupancyTrajectory(
                bad_drift, np.array([1.0, 0.0, 0.0]), horizon=2.0,
                fallbacks=(),
            )
