"""Compiled generator fast path vs the interpreted oracle.

The compiled path (expression codegen + one-pass generator assembly)
must be *numerically indistinguishable* from the interpreted
per-transition tree walk: the property tests here assert agreement to
1e-12 across random occupancy vectors for every bundled model, plus
batch/scalar consistency and drift equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.meanfield.compiled import CompiledGenerator
from repro.meanfield.expressions import (
    Binary,
    Const,
    Expression,
    Occupancy,
    Time,
)
from repro.meanfield.overall_model import MeanFieldModel
from repro.models.botnet import botnet_model
from repro.models.diurnal import diurnal_virus_model
from repro.models.epidemic import sir_model, sis_model
from repro.models.gossip import gossip_model
from repro.models.load_balancing import load_balancing_model
from repro.models.virus import (
    SETTING_1,
    SETTING_2,
    virus_model,
    virus_model_declarative,
    virus_model_epidemiological,
)

TOL = 1e-12

MODEL_FACTORIES = {
    "virus": lambda: virus_model(SETTING_1),
    "virus_setting2": lambda: virus_model(SETTING_2),
    "virus_epidemiological": virus_model_epidemiological,
    "virus_declarative": virus_model_declarative,
    "botnet": botnet_model,
    "sis": sis_model,
    "sir": sir_model,
    "gossip": gossip_model,
    "load_balancing": load_balancing_model,
    "diurnal": diurnal_virus_model,
}


def random_occupancies(k: int, n: int, seed: int = 0) -> np.ndarray:
    """``n`` random interior points of the ``K``-simplex."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(k), size=n)


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_compiled_generator_matches_interpreted(name):
    model = MODEL_FACTORIES[name]()
    local = model.local
    compiled = local.compiled_generator()
    for i, m in enumerate(random_occupancies(local.num_states, 25, seed=7)):
        t = 0.8 * i  # exercise explicit time dependence where present
        expected = local.generator(m, t)
        np.testing.assert_allclose(
            compiled(m, t), expected, rtol=0.0, atol=TOL
        )


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_batch_matches_scalar(name):
    model = MODEL_FACTORIES[name]()
    local = model.local
    compiled = local.compiled_generator()
    occupancies = random_occupancies(local.num_states, 12, seed=11)
    ts = np.linspace(0.0, 9.0, 12)
    batched = compiled.batch(occupancies, ts)
    assert batched.shape == (12, local.num_states, local.num_states)
    for i in range(12):
        np.testing.assert_allclose(
            batched[i], compiled(occupancies[i], ts[i]), rtol=0.0, atol=TOL
        )
    # Scalar time broadcasts across the batch.
    batched0 = compiled.batch(occupancies, 0.0)
    for i in range(12):
        np.testing.assert_allclose(
            batched0[i], compiled(occupancies[i], 0.0), rtol=0.0, atol=TOL
        )


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_compiled_drift_matches_interpreted(name):
    model = MODEL_FACTORIES[name]()
    oracle = MeanFieldModel(model.local, compiled=False)
    for i, m in enumerate(random_occupancies(model.num_states, 10, seed=3)):
        t = 1.1 * i
        np.testing.assert_allclose(
            model.drift(t, m), oracle.drift(t, m), rtol=0.0, atol=TOL
        )


def test_generator_rows_sum_to_zero_batch():
    model = botnet_model()
    compiled = model.local.compiled_generator()
    occupancies = random_occupancies(model.num_states, 30, seed=5)
    batched = compiled.batch(occupancies)
    np.testing.assert_allclose(
        batched.sum(axis=2), 0.0, rtol=0.0, atol=1e-12
    )


def test_constant_rates_are_folded():
    model = virus_model(SETTING_1)
    compiled = model.local.compiled_generator()
    # Four of the five virus transitions are constants; only the
    # infection rate stays dynamic.
    assert compiled.num_constant == 4
    assert compiled.num_dynamic == 1


def test_declarative_model_uses_compiled_expressions():
    compiled = virus_model_declarative().local.compiled_generator()
    assert compiled.num_compiled == 1


def test_batch_shape_validation():
    compiled = virus_model(SETTING_1).local.compiled_generator()
    with pytest.raises(ModelError):
        compiled.batch(np.ones(3))  # 1-D is rejected; batch wants (B, K)


# ----------------------------------------------------------------------
# Random expression trees: compile() vs evaluate()
# ----------------------------------------------------------------------

MAX_INDEX = 2


def _leaves():
    return st.one_of(
        st.floats(
            min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
        ).map(Const),
        st.integers(min_value=0, max_value=MAX_INDEX).map(Occupancy),
        st.just(Time()),
    )


def _combine(children):
    binary = st.tuples(
        st.sampled_from(["add", "sub", "mul", "min", "max"]), children, children
    ).map(lambda t: Binary(t[0], t[1], t[2]))
    guarded = st.tuples(children, children).map(
        lambda t: t[0].guarded_div(t[1])
    )
    square = children.map(lambda e: Binary("pow", e, Const(2)))
    return st.one_of(binary, guarded, square)


expressions = st.recursive(_leaves(), _combine, max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(
    expr=expressions,
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0),
        min_size=MAX_INDEX + 1,
        max_size=MAX_INDEX + 1,
    ),
    t=st.floats(min_value=0.0, max_value=50.0),
)
def test_compiled_expression_matches_evaluate(expr, weights, t):
    assert isinstance(expr, Expression)
    m = np.array(weights) / np.sum(weights)
    interpreted = expr(m, t)
    compiled = expr.compile()
    value = float(compiled(m, t))
    assert abs(value - interpreted) <= TOL * max(1.0, abs(interpreted))
    # The same closure evaluates a batch; row 0 must agree with scalar.
    batch = np.vstack([m, m[::-1]])
    batch_values = np.broadcast_to(
        np.asarray(compiled(batch, t), dtype=float), (2,)
    )
    assert abs(batch_values[0] - interpreted) <= TOL * max(1.0, abs(interpreted))


def _add_at_scatter(compiled, rates):
    """CSR ``data`` rows scattered with ``np.add.at`` (the reference)."""
    _indptr, indices, tr_pos, diag_pos = compiled._sparse_structure()
    b = rates.shape[0]
    rows = np.arange(b)[:, None]
    data = np.zeros((b, indices.size))
    np.add.at(data, (rows, np.broadcast_to(tr_pos, rates.shape)), rates)
    exit_rates = np.zeros((b, compiled.num_states))
    np.add.at(
        exit_rates,
        (rows, np.broadcast_to(compiled.transition_sources, rates.shape)),
        rates,
    )
    data[:, diag_pos] = -exit_rates
    return data


def test_bincount_scatters_match_add_at_with_duplicate_transitions():
    local = load_balancing_model().local
    # Every (source, target) pair twice, the copies in reverse order, so
    # slots accumulate several rates (a model built through the public
    # API cannot repeat a pair).
    local._transitions = local.transitions + local.transitions[::-1]
    compiled = CompiledGenerator(local)
    k = compiled.num_states
    occupancies = random_occupancies(k, 8, seed=3)
    rates = compiled.transition_rates(occupancies)
    reference = _add_at_scatter(compiled, rates)

    np.testing.assert_array_equal(
        compiled.sparse_data_batch(occupancies), reference
    )
    for i, m in enumerate(occupancies):
        np.testing.assert_array_equal(compiled.sparse(m).data, reference[i])
        flux = m[compiled.transition_sources] * rates[i]
        drift = np.zeros(k)
        np.add.at(drift, compiled.transition_targets, flux)
        np.add.at(drift, compiled.transition_sources, -flux)
        np.testing.assert_array_equal(compiled.drift(m), drift)
