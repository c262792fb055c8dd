"""Sparse transient kernels and the action propagator.

Unit coverage for the pieces the sparse matrix backend is built from
(docs/performance.md §8):

- the homogeneous action kernels in :mod:`repro.ctmc.transient` —
  uniformization on matvecs and ``expm_multiply`` — against the dense
  ``expm`` reference, for dense and CSR inputs, single vectors and
  batches;
- :class:`repro.ctmc.propagators.SparseActionPropagator` — left/right
  window actions, densification, batched ``apply_many``, Richardson
  defect control and its refinement-cap failure mode — against exact
  per-window Kolmogorov solves of the same inhomogeneous chain;
- the engine's per-factor action plans against
  :func:`scipy.sparse.linalg.expm_multiply` on ``loadbalance-deep``
  exponents, its fixed-structure contract, and a value-and-counter lock
  on the deep two-window cold build;
- the memory guards of :func:`repro.ctmc.generator.build_generator` and
  :func:`repro.ctmc.inhomogeneous.solve_forward_kolmogorov` that make
  the dense path refuse (rather than thrash) exactly where the sparse
  path is the intended tool.
"""

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from repro.checking import MFModelChecker
from repro.checking.context import EvaluationContext
from repro.checking.options import CheckOptions
from repro.checking.transform import (
    UntilPartition,
    absorbing_generator_sparse_function,
    goal_generator_sparse_function,
)
from repro.ctmc.generator import build_generator, build_sparse_generator
from repro.ctmc.inhomogeneous import (
    TransitionMatrixPropagator,
    solve_forward_kolmogorov,
)
from repro.ctmc.propagators import (
    _CF4_A,
    _CF4_B,
    _GAUSS_OFFSET,
    SparseActionPropagator,
)
from repro.ctmc.transient import (
    poisson_truncation_point,
    transient_distribution,
    transient_distribution_expm_multiply,
    transient_distribution_uniformization,
    transient_matrix_expm,
)
from repro.exceptions import (
    BudgetExceededError,
    ModelError,
    NumericalError,
)
from repro.models import MODEL_REGISTRY
from repro.resilience import Budget

K = 6

#: A birth-death rate mapping with uneven rates (nontrivial structure).
RATES = {(i, i + 1): 0.7 + 0.1 * i for i in range(K - 1)}
RATES.update({(i + 1, i): 1.0 + 0.2 * i for i in range(K - 1)})
RATES[(0, K - 1)] = 0.05  # one long-range jump so Q is not tridiagonal


def _dense_q() -> np.ndarray:
    return build_generator(K, RATES)


def _sparse_q() -> scipy.sparse.csr_matrix:
    return build_sparse_generator(K, RATES)


def _distribution() -> np.ndarray:
    w = np.linspace(1.0, 2.0, K)
    return w / w.sum()


class TestActionKernels:
    """initial @ expm(Q t) without ever forming expm(Q t)."""

    @pytest.mark.parametrize("as_sparse", [False, True])
    @pytest.mark.parametrize(
        "kernel",
        [
            transient_distribution_uniformization,
            transient_distribution_expm_multiply,
        ],
    )
    def test_matches_dense_expm(self, kernel, as_sparse):
        q = _sparse_q() if as_sparse else _dense_q()
        reference = _distribution() @ transient_matrix_expm(_dense_q(), 0.8)
        result = kernel(_distribution(), q, 0.8)
        np.testing.assert_allclose(result, reference, atol=1e-10)

    @pytest.mark.parametrize(
        "kernel",
        [
            transient_distribution_uniformization,
            transient_distribution_expm_multiply,
        ],
    )
    def test_batch_rows_match_single_rows(self, kernel):
        batch = np.vstack([np.eye(K), _distribution()[None, :]])
        out = kernel(batch, _sparse_q(), 0.6)
        assert out.shape == batch.shape
        for row_in, row_out in zip(batch, out):
            np.testing.assert_allclose(
                kernel(row_in, _sparse_q(), 0.6), row_out, atol=1e-12
            )

    @pytest.mark.parametrize(
        "kernel",
        [
            transient_distribution_uniformization,
            transient_distribution_expm_multiply,
        ],
    )
    def test_time_zero_is_identity_copy(self, kernel):
        initial = _distribution()
        out = kernel(initial, _sparse_q(), 0.0)
        np.testing.assert_array_equal(out, initial)
        assert out is not initial

    @pytest.mark.parametrize(
        "kernel",
        [
            transient_distribution_uniformization,
            transient_distribution_expm_multiply,
        ],
    )
    def test_negative_time_rejected(self, kernel):
        with pytest.raises(ModelError):
            kernel(_distribution(), _sparse_q(), -0.1)

    def test_dispatch_selects_action_kernels(self):
        reference = _distribution() @ transient_matrix_expm(_dense_q(), 0.5)
        for method in ("expm_multiply", "uniformization"):
            out = transient_distribution(
                _distribution(), _sparse_q(), 0.5, method=method
            )
            np.testing.assert_allclose(out, reference, atol=1e-10)

    def test_mass_conserved(self):
        out = transient_distribution_uniformization(
            _distribution(), _sparse_q(), 2.5
        )
        assert out.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(out >= -1e-12)

    def test_poisson_truncation_bounds_tail(self):
        from scipy.stats import poisson

        for lam_t in (0.3, 5.0, 40.0, 900.0):
            n = poisson_truncation_point(lam_t, 1e-9)
            # Terms 0..n are summed, so the neglected tail is P(X > n).
            assert poisson.sf(n, lam_t) <= 1e-9 * 1.01


def _q_of_t_dense(t: float) -> np.ndarray:
    """Inhomogeneous chain: rates breathe on an O(1) timescale."""
    scale = 1.0 + 0.5 * np.sin(t)
    q = _dense_q().copy()
    off = q - np.diag(np.diag(q))
    off *= scale
    np.fill_diagonal(off, -off.sum(axis=1))
    return off


def _q_of_t_sparse(t: float) -> scipy.sparse.csr_matrix:
    return scipy.sparse.csr_matrix(_q_of_t_dense(t))


class TestSparseActionPropagator:
    def _engine(self, **kwargs) -> SparseActionPropagator:
        kwargs.setdefault("tol", 1e-8)
        return SparseActionPropagator(_q_of_t_sparse, **kwargs)

    def _reference(self, a: float, b: float) -> np.ndarray:
        return solve_forward_kolmogorov(
            _q_of_t_dense, a, b - a, rtol=1e-11, atol=1e-13
        )

    def test_rejects_dense_generator_function(self):
        with pytest.raises(ModelError, match="sparse generator function"):
            SparseActionPropagator(_q_of_t_dense)

    def test_right_action_matches_reference(self):
        engine = self._engine()
        v = np.zeros(K)
        v[-1] = 1.0
        result = engine.apply(v, 0.3, 1.7, side="right")
        np.testing.assert_allclose(
            result, self._reference(0.3, 1.7) @ v, atol=1e-7
        )

    def test_left_action_matches_reference(self):
        engine = self._engine()
        result = engine.apply(_distribution(), 0.0, 2.0, side="left")
        np.testing.assert_allclose(
            result, _distribution() @ self._reference(0.0, 2.0), atol=1e-7
        )

    def test_propagate_densifies_to_reference(self):
        engine = self._engine()
        pi = engine.propagate(0.5, 1.5)
        assert isinstance(pi, np.ndarray)
        np.testing.assert_allclose(pi, self._reference(0.5, 1.5), atol=1e-7)
        # Rows of a transient matrix are distributions.
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-9)

    def test_apply_many_matches_individual_applies(self):
        engine = self._engine()
        ts = np.array([0.0, 0.4, 1.1])
        v = np.zeros(K)
        v[2] = 1.0
        batched = engine.apply_many(ts, 0.9, v, side="right")
        assert batched.shape == (len(ts), K)
        for t, row in zip(ts, batched):
            np.testing.assert_allclose(
                row, engine.apply(v, t, t + 0.9, side="right"), atol=1e-9
            )

    def test_refinement_cap_raises_numerical_error(self):
        engine = self._engine(tol=1e-15, max_refinements=0, initial_cells=1)
        with pytest.raises(NumericalError, match="dense rung"):
            engine.apply(_distribution(), 0.0, 3.0, side="left")

    def test_propagate_densification_is_budget_guarded(self):
        # 2 * K * K * 8 bytes ≈ 576 B; a ~0.0001 MB guard must refuse it.
        engine = self._engine(budget=Budget(max_memory_mb=1e-4))
        with pytest.raises(BudgetExceededError):
            engine.propagate(0.0, 1.0)

    def test_structure_change_raises_model_error(self):
        extra = scipy.sparse.csr_matrix(([1e-3], ([0], [3])), shape=(K, K))

        def q_of_t(t: float) -> scipy.sparse.csr_matrix:
            q = _q_of_t_sparse(t)
            return q if t == 0.0 else (q + extra).tocsr()

        engine = SparseActionPropagator(q_of_t, tol=1e-8)
        with pytest.raises(ModelError, match="sparsity structure"):
            engine.apply(_distribution(), 0.0, 1.0, side="left")

    def test_rejects_non_canonical_structure(self):
        q = _sparse_q()
        shuffled = scipy.sparse.csr_matrix(
            (q.data[::-1].copy(), q.indices[::-1].copy(), q.indptr),
            shape=q.shape,
        )
        with pytest.raises(ModelError, match="canonical"):
            SparseActionPropagator(lambda t: shuffled)


def _deep_occupancy(k: int) -> np.ndarray:
    """``m_k ∝ 0.70^k`` with entries below 1e-14 zeroed (the deep-sparse
    workload's occupancies)."""
    weights = 0.70 ** np.arange(k, dtype=float)
    weights[weights < 1e-14] = 0.0
    return weights / weights.sum()


@pytest.fixture(scope="module")
def deep_chains():
    """``loadbalance-deep`` (K = 1001) sparse chains on one context."""
    model = MODEL_REGISTRY["loadbalance-deep"]()
    k = model.num_states
    ctx = EvaluationContext(
        model, _deep_occupancy(k), CheckOptions(matrix_backend="sparse")
    )
    q = ctx.sparse_generator_function()
    busy = model.local.states_with_label("busy")
    idle = model.local.states_with_label("idle")
    return {
        "absorbing": absorbing_generator_sparse_function(
            q, frozenset(range(k)) - (busy - idle)
        ),
        "goal": goal_generator_sparse_function(
            q, UntilPartition.from_sets(k, busy, idle)
        ),
        "all-absorbed": absorbing_generator_sparse_function(
            q, frozenset(range(k))
        ),
    }


def _cf4_exponents(q_of_t, start: float, width: float) -> list:
    """The two CF4 exponents of one interval, built with scipy algebra."""
    q1 = q_of_t(start + width * (0.5 - _GAUSS_OFFSET)).tocsr()
    q2 = q_of_t(start + width * (0.5 + _GAUSS_OFFSET)).tocsr()
    return [
        (width * _CF4_B) * q1 + (width * _CF4_A) * q2,
        (width * _CF4_A) * q1 + (width * _CF4_B) * q2,
    ]


#: Largest ‖A‖₁ for which Al-Mohy & Higham's condition (3.13) holds on
#: a single vector (m_max = 55, ℓ = 2, p_max = 8): 2ℓ·p_max(p_max + 3)
#: · θ_55 / 55.
_CONDITION_3_13_BOUND = 4 * 8 * 11 * 9.9 / 55


class TestActionPlans:
    """Cached per-factor plans against ``scipy.sparse.linalg.expm_multiply``."""

    TOL = 1e-14

    def _check(self, q_of_t, width: float) -> list:
        engine = SparseActionPropagator(q_of_t)
        plans = engine._factors(0.25, width)
        exponents = _cf4_exponents(q_of_t, 0.25, width)
        rng = np.random.default_rng(7)
        n = engine.k
        for plan, exponent in zip(plans, exponents):
            for block in (rng.standard_normal(n), rng.standard_normal((n, 5))):
                block = block / np.max(np.abs(block), axis=0)
                right = expm_multiply(exponent, block)
                left = expm_multiply(exponent.T.tocsr(), block).T
                np.testing.assert_allclose(
                    plan.right(block), right, rtol=0, atol=self.TOL
                )
                np.testing.assert_allclose(
                    plan.left(block.T), left, rtol=0, atol=self.TOL
                )
        return plans

    @pytest.mark.parametrize("width", [0.03125, 0.5])
    def test_absorbing_chain_exponents(self, deep_chains, width):
        self._check(deep_chains["absorbing"], width)

    def test_goal_chain_with_empty_rows(self, deep_chains):
        q = deep_chains["goal"](0.0)
        assert q.shape[0] == deep_chains["absorbing"](0.0).shape[0] + 1
        assert np.any(np.diff(q.indptr) == 0)
        self._check(deep_chains["goal"], 0.03125)

    def test_all_absorbed_chain_is_identity_copy(self, deep_chains):
        for plan in self._check(deep_chains["all-absorbed"], 0.5):
            assert (plan.m_star, plan.s) == (0, 1)
            block = np.linspace(-1.0, 1.0, plan.op.shape[0])
            out = plan.right(block)
            np.testing.assert_array_equal(out, block)
            assert out is not block

    def test_exponent_beyond_condition_3_13(self, deep_chains):
        plans = self._check(deep_chains["absorbing"], 40.0)
        assert min(plan.norm for plan in plans) > _CONDITION_3_13_BOUND


class TestDeepColdBuildLock:
    """Values and counters of the deep two-window cold build.  The
    values were read off the DOP853 occupancy trajectory; the RK45 one
    before it gave values 3.2e-13 and 3.4e-13 away, about a hundredth of
    either one's distance to a tight-tolerance reference."""

    def test_two_window_cold_build(self):
        model = MODEL_REGISTRY["loadbalance-deep"]()
        occupancy = _deep_occupancy(model.num_states)
        checker = MFModelChecker(model)
        ctx = checker.context(occupancy)
        short = checker.check_detailed(
            "EP[<0.5](busy U[0,0.5] idle)", occupancy, ctx=ctx
        )
        long = checker.check_detailed(
            "EP[<0.5](busy U[0,1] idle)", occupancy, ctx=ctx
        )
        assert short.value == pytest.approx(0.3787005471882201, abs=1e-13)
        assert long.value == pytest.approx(0.42813029984954937, abs=1e-13)
        stats = ctx.stats
        assert stats.sparse_cells_built == 32
        assert stats.sparse_applies == 4
        assert stats.sparse_refinements == 0
        assert stats.generator_evals == 193


class TestDenseMemoryGuards:
    """The dense paths refuse exactly where sparse is the intended tool."""

    def test_build_generator_guard_trips_before_allocation(self):
        rates = {(0, 1): 1.0, (1, 0): 1.0}
        with pytest.raises(BudgetExceededError):
            build_generator(4096, rates, budget=Budget(max_memory_mb=32.0))
        # The same mapping builds fine sparsely or without a guard.
        q = build_sparse_generator(4096, rates)
        assert q.shape == (4096, 4096)
        build_generator(64, rates, budget=Budget(max_memory_mb=32.0))

    def test_solve_forward_kolmogorov_guard(self):
        def q_of_t(t: float) -> np.ndarray:
            # 1024 states: the stacked-ODE workspace estimate is
            # 1024^2 * 8 * 8 = 64 MB, over a 32 MB guard.
            q = np.zeros((1024, 1024))
            q[0, 1] = 1.0
            q[0, 0] = -1.0
            return q

        with pytest.raises(BudgetExceededError):
            solve_forward_kolmogorov(
                q_of_t, 0.0, 1.0, budget=Budget(max_memory_mb=32.0)
            )

    def test_transition_matrix_propagator_guard(self):
        def q_of_t(t: float) -> np.ndarray:
            q = np.zeros((1024, 1024))
            q[0, 1] = 1.0
            q[0, 0] = -1.0
            return q

        with pytest.raises(BudgetExceededError):
            TransitionMatrixPropagator(
                q_of_t,
                window=1.0,
                t0=0.0,
                horizon=2.0,
                budget=Budget(max_memory_mb=32.0),
            )
