"""Tests for the power-of-d load-balancing model."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.meanfield.stationary import stationary_from_long_run
from repro.models.load_balancing import (
    LoadBalancingParameters,
    deep_load_balancing_model,
    load_balancing_model,
    theoretical_tail,
)


class TestParameters:
    def test_rho(self):
        assert LoadBalancingParameters(lam=0.5, mu=2.0).rho == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"mu": 0.0},
            {"d": 0},
            {"buffer": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ModelError):
            LoadBalancingParameters(**kwargs)


class TestStructure:
    def test_state_count(self):
        model = load_balancing_model(LoadBalancingParameters(buffer=6))
        assert model.num_states == 7

    def test_labels(self):
        model = load_balancing_model(LoadBalancingParameters(buffer=4))
        local = model.local
        assert local.states_with_label("idle") == frozenset({0})
        assert local.states_with_label("full") == frozenset({4})
        assert 4 in local.states_with_label("congested")


class TestDynamics:
    def test_mass_conserved(self):
        model = load_balancing_model()
        k = model.num_states
        m0 = np.zeros(k)
        m0[0] = 1.0
        traj = model.trajectory(m0, horizon=20.0)
        for t in (5.0, 20.0):
            assert traj(t).sum() == pytest.approx(1.0)

    def test_d1_reduces_to_mm1_tail(self):
        """d = 1 is plain random routing: geometric stationary queue."""
        params = LoadBalancingParameters(lam=0.5, mu=1.0, d=1, buffer=10)
        model = load_balancing_model(params)
        k = model.num_states
        m0 = np.full(k, 1.0 / k)
        steady = stationary_from_long_run(model, m0, drift_tol=1e-10)
        # M/M/1 with buffer: m_k ∝ rho^k.
        rho = 0.5
        expected = rho ** np.arange(k)
        expected /= expected.sum()
        assert np.allclose(steady, expected, atol=1e-4)

    def test_power_of_two_tail_decays_doubly_exponentially(self):
        params = LoadBalancingParameters(lam=0.7, mu=1.0, d=2, buffer=8)
        model = load_balancing_model(params)
        k = model.num_states
        m0 = np.zeros(k)
        m0[0] = 1.0
        steady = stationary_from_long_run(model, m0, drift_tol=1e-10)
        tails = np.array([steady[i:].sum() for i in range(k)])
        for level in (1, 2, 3):
            assert tails[level] == pytest.approx(
                theoretical_tail(params, level), abs=0.02
            )
        # d=2 beats d=1 dramatically at deeper levels.
        assert tails[3] < theoretical_tail(
            LoadBalancingParameters(lam=0.7, mu=1.0, d=1, buffer=8), 3
        )

    def test_theoretical_tail_d1(self):
        params = LoadBalancingParameters(lam=0.7, mu=1.0, d=1)
        assert theoretical_tail(params, 3) == pytest.approx(0.7**3)


class TestVectorizedRates:
    """The declared-vectorized arrival rates serve scalar and batch."""

    def test_batch_rows_match_scalar_calls(self):
        model = load_balancing_model(LoadBalancingParameters(buffer=9))
        local = model.local
        rng = np.random.default_rng(7)
        batch = rng.dirichlet(np.ones(model.num_states), size=5)
        for transition in local.transitions:
            if transition.constant:
                continue  # service rates mu stay plain constants
            rate = transition.rate
            assert getattr(rate, "vectorized", False)
            batched = rate(batch, 0.0)
            assert batched.shape == (len(batch),)
            for row, value in zip(batch, batched):
                assert rate(row, 0.0) == pytest.approx(value)

    def test_generator_rows_sum_to_zero_on_batch_path(self):
        model = load_balancing_model(LoadBalancingParameters(buffer=9))
        rng = np.random.default_rng(11)
        occ = rng.dirichlet(np.ones(model.num_states))
        q = model.local.generator(occ)
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-9)


class TestDeepModel:
    def test_structure_matches_shallow_dynamics(self):
        deep = deep_load_balancing_model(buffer=40, lam=0.7)
        shallow = load_balancing_model(
            LoadBalancingParameters(lam=0.7, mu=1.0, d=2, buffer=40)
        )
        assert deep.num_states == shallow.num_states == 41
        occ = 0.5 ** np.arange(41)
        occ /= occ.sum()
        np.testing.assert_allclose(
            deep.local.generator(occ), shallow.local.generator(occ)
        )

    def test_deep_buffer_is_structurally_sparse(self):
        model = deep_load_balancing_model(buffer=500)
        compiled = model.local.compiled_generator()
        k = model.num_states
        assert k == 501
        assert compiled.structural_density <= 3.0 / k + 1e-12


def _holed_geometric(ratio: float, holes, k: int = 1001) -> np.ndarray:
    """Geometric occupancy ``m_k ∝ ratio^k`` with the ``holes`` emptied."""
    occ = ratio ** np.arange(k, dtype=float)
    occ[list(holes)] = 0.0
    return occ / occ.sum()


def _holed_occupancies():
    """20 seeded geometric occupancies with 1-3 empty interior levels."""
    rng = np.random.default_rng(0)
    cases = []
    for ratio in (0.6, 0.7, 0.8, 0.9, 0.95):
        for _ in range(4):
            count = int(rng.integers(1, 4))
            holes = sorted(
                int(h) for h in rng.choice(np.arange(1, 40), count, False)
            )
            cases.append((ratio, holes))
    return cases


class TestEmptyInteriorLevels:
    """An empty queue level has arrival rate exactly 0, never a
    rounding-level negative that rate validation would reject."""

    def test_rates_non_negative_and_zero_at_empty_levels(self):
        local = deep_load_balancing_model().local
        compiled = local.compiled_generator()
        arrivals = [
            j for j, tr in enumerate(local.transitions) if not tr.constant
        ]
        for ratio, holes in _holed_occupancies():
            occ = _holed_geometric(ratio, holes)
            # Raw rate values, before the assemblers' round-off clamp.
            raw = np.array(
                [local.transitions[j].rate(occ, 0.0) for j in arrivals]
            )
            assert np.all(raw >= 0.0), (ratio, holes)
            assert np.all(raw[holes] == 0.0), (ratio, holes)
            rates = compiled.transition_rates(occ[None, :])[0]
            assert np.all(rates[arrivals][holes] == 0.0), (ratio, holes)

    def test_service_answers_with_empty_levels(self):
        from repro.server.service import CheckingService, ServerConfig

        service = CheckingService(ServerConfig())
        try:
            status, body = service.handle(
                {
                    "command": "value",
                    "model": "loadbalance-deep",
                    "occupancy": _holed_geometric(0.95, (10, 20)).tolist(),
                    "formula": "EP[>=0](busy U[0,0.5] idle)",
                }
            )
        finally:
            service.close()
        assert status == 200, body
        assert body["value"] == pytest.approx(0.0702, abs=5e-4)
