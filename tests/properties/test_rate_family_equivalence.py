"""Rate families vs the per-transition closures they replaced.

``load_balancing_model`` used to give each queue level its own arrival
closure, re-summing an O(K) tail per level, and ``population_model``
wrapped its one birth closure once per birth transition.  Both now
declare a :class:`~repro.meanfield.rates.RateFamily`.  The old forms
stay here as the reference: every assembly path — the per-transition
table, CSR, the large-``K`` drift, dense ``__call__``, ``batch`` and the
interpreted ``LocalModel.generator`` — must agree with it.

Tolerances are elementwise relative (so the zero pattern must match
exactly).  On geometric occupancies both forms agree to
:data:`GEOMETRIC_RTOL`; on Dirichlet draws, levels holding little mass
under a heavy tail make ``s_k^d − s_{k+1}^d`` cancel in both forms, so
the sums' differing rounding shows up to :data:`DIRICHLET_RTOL`.
"""

import numpy as np
import pytest

from repro.checking.global_ import MFModelChecker
from repro.meanfield.local_model import LocalModelBuilder
from repro.meanfield.overall_model import MeanFieldModel
from repro.models.load_balancing import (
    LoadBalancingParameters,
    deep_load_balancing_model,
    load_balancing_model,
)
from repro.models.population import PopulationParameters, population_model

GEOMETRIC_RTOL = 1e-12
DIRICHLET_RTOL = 1e-8
RATIOS = np.linspace(0.6, 0.95, 6)


def reference_load_balancing_model(params: LoadBalancingParameters):
    """The per-level arrival closures ``load_balancing_model`` had."""
    p = params

    def arrival_rate_for(level: int):
        def rate(m: np.ndarray):
            tail_k = np.sum(m[..., level:], axis=-1)
            tail_k1 = np.sum(m[..., level + 1 :], axis=-1)
            mass = np.maximum(m[..., level], 1e-12)
            return p.lam * (tail_k**p.d - tail_k1**p.d) / mass

        rate.vectorized = True
        return rate

    builder = LocalModelBuilder()
    for level in range(p.buffer + 1):
        builder.state(f"q{level}")
    for level in range(p.buffer):
        builder.transition(
            f"q{level}", f"q{level + 1}", arrival_rate_for(level)
        )
        builder.transition(f"q{level + 1}", f"q{level}", p.mu)
    return MeanFieldModel(builder.build())


def reference_population_model(params: PopulationParameters):
    """One birth closure, wrapped separately for every birth transition."""
    p = params
    capacity = p.resolved_capacity()
    weights = np.arange(capacity + 1, dtype=float) / capacity

    def birth_rate(m: np.ndarray):
        load = np.sum(np.asarray(m) * weights, axis=-1)
        return p.lam * np.maximum(0.0, 1.0 - p.crowding * load)

    birth_rate.vectorized = True
    builder = LocalModelBuilder()
    for j in range(capacity + 1):
        builder.state(f"n{j}")
    for j in range(capacity):
        builder.transition(f"n{j}", f"n{j + 1}", birth_rate)
        builder.transition(f"n{j + 1}", f"n{j}", (j + 1) * p.mu)
    return MeanFieldModel(builder.build())


def geometric_occupancies(k: int) -> np.ndarray:
    rows = RATIOS[:, None] ** np.arange(k, dtype=float)
    return rows / rows.sum(axis=1, keepdims=True)


def dirichlet_occupancies(k: int, n: int = 4, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.ones(k), size=n)


def assert_relative(actual, expected, rtol):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    np.testing.assert_array_equal(actual == 0.0, expected == 0.0)
    err = np.abs(actual - expected)
    scale = np.abs(expected)
    worst = np.max(np.where(scale > 0, err / np.where(scale > 0, scale, 1), 0))
    assert worst <= rtol, f"max relative difference {worst:.3g} > {rtol:g}"


def _pairs():
    for buffer in (6, 40, 1000):
        params = LoadBalancingParameters(lam=0.9, buffer=buffer)
        yield (
            f"loadbalance-B{buffer}",
            lambda params=params: load_balancing_model(params),
            lambda params=params: reference_load_balancing_model(params),
        )
    yield (
        "population",
        population_model,
        lambda: reference_population_model(PopulationParameters()),
    )


PAIRS = {name: (new, ref) for name, new, ref in _pairs()}


@pytest.fixture(scope="module", params=sorted(PAIRS))
def pair(request):
    new, ref = PAIRS[request.param]
    return new(), ref()


@pytest.fixture(params=["geometric", "dirichlet"])
def occupancies_and_tol(request, pair):
    k = pair[0].num_states
    if request.param == "geometric":
        return geometric_occupancies(k), GEOMETRIC_RTOL
    return dirichlet_occupancies(k), DIRICHLET_RTOL


def test_transition_table_and_sparse_match(pair, occupancies_and_tol):
    new, ref = pair
    occ, rtol = occupancies_and_tol
    new_cg = new.local.compiled_generator()
    ref_cg = ref.local.compiled_generator()
    assert new_cg.num_families == 1
    assert_relative(
        new_cg.transition_rates(occ), ref_cg.transition_rates(occ), rtol
    )
    assert_relative(
        new_cg.sparse_data_batch(occ), ref_cg.sparse_data_batch(occ), rtol
    )
    for m in occ:
        assert_relative(
            new_cg.sparse(m).toarray(), ref_cg.sparse(m).toarray(), rtol
        )


def test_drift_matches(pair, occupancies_and_tol):
    new, ref = pair
    occ, rtol = occupancies_and_tol
    for m in occ:
        expected = ref.drift(0.0, m)
        # Drift components are flow balances that may cancel to ~0, so
        # compare against the drift's own scale.
        np.testing.assert_allclose(
            new.drift(0.0, m),
            expected,
            rtol=0.0,
            atol=rtol * np.abs(expected).max(),
        )


def test_dense_paths_match(pair, occupancies_and_tol):
    new, ref = pair
    occ, rtol = occupancies_and_tol
    occ = occ[:2]  # two dense (K, K) stacks are plenty at K ~ 1000
    new_cg = new.local.compiled_generator()
    ref_cg = ref.local.compiled_generator()
    assert_relative(new_cg.batch(occ), ref_cg.batch(occ), rtol)
    for m in occ:
        assert_relative(new_cg(m), ref_cg(m), rtol)
        assert_relative(new.local.generator(m), ref.local.generator(m), rtol)


def test_deep_until_values_unchanged():
    """``loadbalance-deep`` answers as before the rate family.

    Both windows run in order on one context, as the server and the
    ``deep-sparse`` benchmark do: the second reuses the first one's
    propagator cells, so its value depends (at ~1e-9) on that order.
    """
    model = deep_load_balancing_model()
    occ = 0.7 ** np.arange(model.num_states, dtype=float)
    occ /= occ.sum()
    checker = MFModelChecker(model)
    ctx = checker.context(occ)
    for formula, expected in (
        ("EP[>=0](busy U[0,0.5] idle)", 0.37870054718854024),
        ("EP[>=0](busy U[0,1] idle)", 0.42813029984920825),
    ):
        value = checker.value(formula, occ, ctx=ctx)
        assert value == pytest.approx(expected, abs=1e-10), formula
