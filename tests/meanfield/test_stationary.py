"""Tests for mean-field fixed points (Equation (2))."""

import threading

import numpy as np
import pytest

from repro.exceptions import ModelError, SteadyStateError
from repro.meanfield import MeanFieldModel
from repro.meanfield.local_model import LocalModelBuilder
from repro.meanfield.stationary import (
    classify_stability,
    find_fixed_point,
    find_fixed_points,
    stationary_from_long_run,
)
from repro.models.epidemic import SisParameters, sis_model


class TestVirusFixedPoint:
    def test_virus_free_point(self, virus1):
        fp = find_fixed_point(virus1, np.array([0.9, 0.05, 0.05]))
        assert np.allclose(fp.occupancy, [1.0, 0.0, 0.0], atol=1e-6)
        assert fp.residual < 1e-9

    def test_long_run_agrees(self, virus1):
        m = stationary_from_long_run(virus1, np.array([0.8, 0.15, 0.05]))
        assert np.allclose(m, [1.0, 0.0, 0.0], atol=1e-5)


class TestLongRunHorizons:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0.0},
            {"horizon": float("nan")},
            {"max_horizon": 0.0},
            {"max_horizon": float("inf")},
        ],
    )
    def test_rejects_a_horizon_it_cannot_double(self, virus1, kwargs):
        """A zero horizon never doubles, so the run would never end.
        The call runs on a thread joined with a timeout, so a regression
        fails here instead of hanging the suite."""
        outcome = []

        def run():
            try:
                outcome.append(
                    stationary_from_long_run(
                        virus1, np.array([0.8, 0.15, 0.05]), **kwargs
                    )
                )
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(10.0)
        assert not thread.is_alive(), "the long run did not return"
        assert isinstance(outcome[0], ModelError)
        assert "horizon" in str(outcome[0])


class TestSisFixedPoints:
    """SIS has a known threshold structure: textbook material."""

    def test_endemic_point_above_threshold(self):
        params = SisParameters(beta=2.0, gamma=1.0)  # R0 = 2
        model = sis_model(params)
        points = find_fixed_points(model, num_starts=16)
        infected_levels = sorted(fp.occupancy[1] for fp in points)
        # Disease-free (0) and endemic (1 - 1/R0 = 0.5).
        assert len(points) == 2
        assert infected_levels[0] == pytest.approx(0.0, abs=1e-8)
        assert infected_levels[1] == pytest.approx(0.5, abs=1e-8)

    def test_endemic_point_is_stable(self):
        model = sis_model(SisParameters(beta=2.0, gamma=1.0))
        endemic = find_fixed_point(model, np.array([0.5, 0.5]))
        assert endemic.occupancy[1] == pytest.approx(0.5, abs=1e-8)
        assert endemic.stable is True

    def test_disease_free_unstable_above_threshold(self):
        model = sis_model(SisParameters(beta=2.0, gamma=1.0))
        stability = classify_stability(model, np.array([1.0, 0.0]))
        assert stability is False

    def test_disease_free_stable_below_threshold(self):
        model = sis_model(SisParameters(beta=0.5, gamma=1.0))  # R0 = 0.5
        stability = classify_stability(model, np.array([1.0, 0.0]))
        assert stability is True

    def test_long_run_reaches_endemic(self):
        model = sis_model(SisParameters(beta=2.0, gamma=1.0))
        m = stationary_from_long_run(model, np.array([0.99, 0.01]))
        assert m[1] == pytest.approx(0.5, abs=1e-6)


class TestHomogeneousConsistency:
    def test_matches_ctmc_stationary(self, homogeneous_model):
        """With constant rates the mean-field fixed point equals the
        CTMC stationary distribution."""
        from repro.ctmc.stationary import stationary_distribution

        q = homogeneous_model.local.constant_generator()
        pi = stationary_distribution(q)
        fp = find_fixed_point(homogeneous_model, np.full(3, 1.0 / 3.0))
        assert np.allclose(fp.occupancy, pi, atol=1e-8)
        assert fp.stable is True


class TestFailureModes:
    def test_oscillatory_model_long_run_fails(self):
        """A rotational drift never settles: long-run must raise."""
        eps = 0.05
        builder = (
            LocalModelBuilder()
            .state("a")
            .state("b")
            .state("c")
            # Strong cyclic pumping sustained by occupancy feedback.
            .transition("a", "b", lambda m: 1.0 + 10.0 * m[2])
            .transition("b", "c", lambda m: 1.0 + 10.0 * m[0])
            .transition("c", "a", lambda m: 1.0 + 10.0 * m[1])
        )
        model = MeanFieldModel(builder.build())
        # This cyclic model actually converges to the uniform point, so
        # use a tight drift tolerance with a tiny max horizon to exercise
        # the failure path deterministically.
        with pytest.raises(SteadyStateError):
            stationary_from_long_run(
                model,
                np.array([1.0, 0.0, 0.0]),
                horizon=1e-3,
                drift_tol=1e-30,
                max_horizon=2e-3,
            )
