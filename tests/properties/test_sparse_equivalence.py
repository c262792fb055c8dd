"""Dense ↔ sparse backend equivalence across the model zoo.

The sparse matrix backend (``CheckOptions.matrix_backend="sparse"``)
must be a *drop-in* replacement: every transient question answered
through CSR action kernels has to agree with the dense Kolmogorov
reference to far better than the solver tolerances.  This suite forces
both backends on every zoo model small enough to afford dense solves
(``K ≤ 50``) and checks:

- cached transient matrices (``("absorbing", ·)`` and goal-chain
  signatures) agree entrywise to :data:`TOL`;
- vector actions (``transient_apply``, both sides) agree;
- full until probability vectors and curves agree;
- the degradation ladder preserves the answers: a sparse engine driven
  into its refinement cap falls back to the ODE chain, records exactly
  one downgrade per failed window, and still produces the dense answer;
- randomized occupancies and windows (hypothesis) keep the equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checking.context import EvaluationContext
from repro.checking.options import CheckOptions
from repro.checking.reachability import (
    SimpleUntilCurve,
    until_probabilities_simple,
)
from repro.checking.transform import (
    UntilPartition,
    absorbing_generator_function,
    goal_generator_function,
)
from repro.logic.ast import TimeInterval
from repro.models import (
    PopulationParameters,
    botnet_model,
    diurnal_virus_model,
    gossip_model,
    load_balancing_model,
    population_model,
    sir_model,
    sis_model,
    virus_model,
)
from repro.models.load_balancing import LoadBalancingParameters
from repro.models.virus import SETTING_1, SETTING_2

#: Equivalence bound — far below the 1e-8 acceptance criterion so any
#: structural disagreement (not mere solver noise) is caught.
TOL = 1e-10

ZOO = {
    "virus1": lambda: virus_model(SETTING_1),
    "virus2": lambda: virus_model(SETTING_2),
    "botnet": botnet_model,
    "sis": sis_model,
    "sir": sir_model,
    "gossip": gossip_model,
    "diurnal": diurnal_virus_model,
    "loadbalance": load_balancing_model,
    "loadbalance31": lambda: load_balancing_model(
        LoadBalancingParameters(buffer=30)
    ),
    "population41": lambda: population_model(
        PopulationParameters(lam=20.0, mu=1.0, capacity=40)
    ),
}

ZOO_NAMES = sorted(ZOO)


def _model(name):
    model = ZOO[name]()
    assert model.num_states <= 50
    return model


def _occupancy(k: int) -> np.ndarray:
    # Geometric decay, mass concentrated on low states: realistic for
    # every zoo model, and it keeps virus2's epidemiological variant
    # (whose infection rate divides by an occupancy) away from the
    # near-zero-occupancy regime where its trajectory turns stiff.
    occ = 0.25 ** np.arange(k, dtype=float)
    return occ / occ.sum()


#: Solver settings tight enough that backend disagreement — not solver
#: noise — is the only thing that can break the 1e-10 equivalence bound.
TIGHT = dict(ode_rtol=1e-11, ode_atol=1e-13, propagator_tol=1e-11)


def _contexts(model, **sparse_options):
    occupancy = _occupancy(model.num_states)
    dense = EvaluationContext(
        model, occupancy, options=CheckOptions(matrix_backend="dense", **TIGHT)
    )
    options = dict(TIGHT)
    options.update(sparse_options)
    sparse = EvaluationContext(
        model,
        occupancy,
        options=CheckOptions(matrix_backend="sparse", **options),
    )
    return dense, sparse


def _absorbed(model) -> frozenset:
    return frozenset({model.num_states - 1})


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_absorbing_transient_matrix_equivalence(name):
    model = _model(name)
    dense_ctx, sparse_ctx = _contexts(model)
    absorbed = _absorbed(model)
    signature = ("absorbing", absorbed)
    for t_start, duration in ((0.0, 0.8), (0.3, 0.5)):
        q = absorbing_generator_function(
            dense_ctx.generator_function(), absorbed
        )
        pi_dense = dense_ctx.transient_matrix(signature, q, t_start, duration)
        q_s = absorbing_generator_function(
            sparse_ctx.generator_function(), absorbed
        )
        pi_sparse = sparse_ctx.transient_matrix(
            signature, q_s, t_start, duration
        )
        assert float(np.max(np.abs(pi_sparse - pi_dense))) <= TOL


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_goal_chain_transient_matrix_equivalence(name):
    model = _model(name)
    k = model.num_states
    dense_ctx, sparse_ctx = _contexts(model)
    gamma2 = frozenset({k - 1})
    gamma1 = frozenset(range(k - 1))
    partition = UntilPartition.from_sets(k, gamma1, gamma2)
    signature = ("goal", partition)
    q_dense = goal_generator_function(
        dense_ctx.generator_function(), partition
    )
    q_sparse = goal_generator_function(
        sparse_ctx.generator_function(), partition
    )
    pi_dense = dense_ctx.transient_matrix(signature, q_dense, 0.0, 0.7)
    pi_sparse = sparse_ctx.transient_matrix(signature, q_sparse, 0.0, 0.7)
    assert pi_dense.shape == (k + 1, k + 1)
    assert float(np.max(np.abs(pi_sparse - pi_dense))) <= TOL


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_transient_apply_equivalence(name, side):
    model = _model(name)
    k = model.num_states
    dense_ctx, sparse_ctx = _contexts(model)
    absorbed = _absorbed(model)
    signature = ("absorbing", absorbed)
    vector = np.linspace(0.5, 1.5, k)
    q_dense = absorbing_generator_function(
        dense_ctx.generator_function(), absorbed
    )
    q_sparse = absorbing_generator_function(
        sparse_ctx.generator_function(), absorbed
    )
    expected = dense_ctx.transient_apply(
        signature, q_dense, 0.1, 0.9, vector, side=side
    )
    actual = sparse_ctx.transient_apply(
        signature, q_sparse, 0.1, 0.9, vector, side=side
    )
    assert float(np.max(np.abs(actual - expected))) <= TOL
    # The sparse context must have answered through an action engine.
    assert sparse_ctx.stats.propagator_engines >= 1


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_until_probabilities_equivalence(name):
    model = _model(name)
    k = model.num_states
    dense_ctx, sparse_ctx = _contexts(model)
    gamma2 = frozenset({k - 1})
    gamma1 = frozenset(range(k - 1))
    interval = TimeInterval(0.25, 1.0)
    expected = until_probabilities_simple(
        dense_ctx, gamma1, gamma2, interval
    )
    actual = until_probabilities_simple(
        sparse_ctx, gamma1, gamma2, interval
    )
    assert float(np.max(np.abs(actual - expected))) <= TOL


def test_until_curve_equivalence():
    model = _model("loadbalance31")
    k = model.num_states
    gamma2 = frozenset(range(k // 2, k))
    gamma1 = frozenset(range(k))
    interval = TimeInterval(0.2, 1.2)
    theta = 3.0
    dense_ctx, sparse_ctx = _contexts(model)
    dense_curve = SimpleUntilCurve(
        dense_ctx, gamma1, gamma2, interval, theta, method="propagate"
    )
    sparse_curve = SimpleUntilCurve(
        sparse_ctx, gamma1, gamma2, interval, theta, method="propagate"
    )
    ts = np.linspace(0.0, theta, 13)
    dense_values = dense_curve.values_many(ts)
    sparse_values = sparse_curve.values_many(ts)
    assert float(np.max(np.abs(sparse_values - dense_values))) <= 1e-8
    state = k // 2 - 1
    threshold = float(dense_values[:, state].mean())
    assert sparse_curve.crossing_times(state, threshold) == pytest.approx(
        dense_curve.crossing_times(state, threshold), abs=1e-6
    )


class TestDegradationLadder:
    """A failing sparse engine degrades to dense — same answers."""

    def _strangled(self, model):
        """Sparse context whose action engine can never meet its tol."""
        occupancy = _occupancy(model.num_states)
        return EvaluationContext(
            model,
            occupancy,
            options=CheckOptions(
                matrix_backend="sparse",
                propagator_tol=1e-15,
                max_refinements=0,
                ode_rtol=TIGHT["ode_rtol"],
                ode_atol=TIGHT["ode_atol"],
            ),
        )

    @pytest.mark.parametrize("name", ["virus2", "loadbalance"])
    def test_transient_apply_falls_back_dense(self, name):
        model = _model(name)
        k = model.num_states
        dense_ctx, _ = _contexts(model)
        strangled = self._strangled(model)
        absorbed = _absorbed(model)
        signature = ("absorbing", absorbed)
        vector = np.linspace(0.5, 1.5, k)
        q_dense = absorbing_generator_function(
            dense_ctx.generator_function(), absorbed
        )
        q_sparse = absorbing_generator_function(
            strangled.generator_function(), absorbed
        )
        expected = dense_ctx.transient_apply(
            signature, q_dense, 0.0, 2.0, vector, side="right"
        )
        actual = strangled.transient_apply(
            signature, q_sparse, 0.0, 2.0, vector, side="right"
        )
        assert float(np.max(np.abs(actual - expected))) <= TOL
        # The fall-back must be on the record, not silent — once: the
        # failed window is served by the ODE chain without a second
        # engine attempt.
        assert [
            (d.from_rung, d.to_rung) for d in strangled.trace.downgrades
        ] == [("sparse", "ode")]
        assert strangled.stats.ladder_downgrades == 1

    @pytest.mark.parametrize("name", ["virus2", "loadbalance"])
    def test_transient_matrix_descends_ladder(self, name):
        model = _model(name)
        dense_ctx, _ = _contexts(model)
        strangled = self._strangled(model)
        absorbed = _absorbed(model)
        signature = ("absorbing", absorbed)
        q_dense = absorbing_generator_function(
            dense_ctx.generator_function(), absorbed
        )
        q_sparse = absorbing_generator_function(
            strangled.generator_function(), absorbed
        )
        expected = dense_ctx.transient_matrix(signature, q_dense, 0.0, 2.0)
        actual = strangled.transient_matrix(signature, q_sparse, 0.0, 2.0)
        assert float(np.max(np.abs(actual - expected))) <= TOL
        assert any(
            d.from_rung == "sparse" for d in strangled.trace.downgrades
        )

    def test_failed_window_costs_one_engine_attempt(self):
        """A window the engine failed is served from the transient cache
        on every later call: no second engine attempt, no second
        downgrade record."""
        model = _model("loadbalance")
        strangled = self._strangled(model)
        absorbed = _absorbed(model)
        signature = ("absorbing", absorbed)
        q_sparse = absorbing_generator_function(
            strangled.generator_function(), absorbed
        )
        vector = np.linspace(0.5, 1.5, model.num_states)
        first = strangled.transient_apply(
            signature, q_sparse, 0.0, 2.0, vector, side="right"
        )
        for _ in range(2):
            before = strangled.stats.as_dict()
            again = strangled.transient_apply(
                signature, q_sparse, 0.0, 2.0, vector, side="right"
            )
            after = strangled.stats.as_dict()
            changed = {
                name: after[name] - before[name]
                for name in after
                if after[name] != before[name]
            }
            assert changed == {"transient_cache_hits": 1}
            np.testing.assert_array_equal(again, first)
        assert len(strangled.trace.downgrades) == 1

    def test_until_probabilities_survive_ladder(self):
        model = _model("loadbalance")
        k = model.num_states
        dense_ctx, _ = _contexts(model)
        strangled = self._strangled(model)
        gamma2 = frozenset({k - 1})
        gamma1 = frozenset(range(k - 1))
        interval = TimeInterval(0.0, 1.0)
        expected = until_probabilities_simple(
            dense_ctx, gamma1, gamma2, interval
        )
        actual = until_probabilities_simple(
            strangled, gamma1, gamma2, interval
        )
        assert float(np.max(np.abs(actual - expected))) <= TOL
        # One until window, one failed engine attempt, one downgrade.
        assert [
            (d.from_rung, d.to_rung) for d in strangled.trace.downgrades
        ] == [("sparse", "ode")]
        assert strangled.stats.ladder_downgrades == 1


class TestRandomizedEquivalence:
    @given(
        weights=st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=13,
            max_size=13,
        ),
        t_start=st.floats(min_value=0.0, max_value=1.0),
        duration=st.floats(min_value=0.05, max_value=1.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_loadbalance_random_windows(self, weights, t_start, duration):
        model = load_balancing_model(LoadBalancingParameters(buffer=12))
        k = model.num_states
        occupancy = np.asarray(weights)
        occupancy = occupancy / occupancy.sum()
        dense_ctx = EvaluationContext(
            model,
            occupancy,
            options=CheckOptions(matrix_backend="dense", **TIGHT),
        )
        sparse_ctx = EvaluationContext(
            model,
            occupancy,
            options=CheckOptions(matrix_backend="sparse", **TIGHT),
        )
        absorbed = frozenset({0, k - 1})
        signature = ("absorbing", absorbed)
        q_dense = absorbing_generator_function(
            dense_ctx.generator_function(), absorbed
        )
        q_sparse = absorbing_generator_function(
            sparse_ctx.generator_function(), absorbed
        )
        pi_dense = dense_ctx.transient_matrix(
            signature, q_dense, t_start, duration
        )
        pi_sparse = sparse_ctx.transient_matrix(
            signature, q_sparse, t_start, duration
        )
        assert float(np.max(np.abs(pi_sparse - pi_dense))) <= TOL
