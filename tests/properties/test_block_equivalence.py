"""Block (multi-vector) kernels agree with looped single-vector calls.

The batched-checking tentpole stacks ``M`` initial vectors into one
``(M, K)`` block and carries it through every transient kernel in one
matmat pass per cell / series term.  A block answer must be the *same*
answer: row ``i`` of every block result has to match the corresponding
single-vector call to far better than solver tolerance, on the dense
propagator engine, the raw transient kernels and both context backends
across the model zoo — and the batched until front-end
(``until_probabilities_simple(initial=...)``,
``ProbabilityCurve.expected_many``) must reduce to per-query dots with
the shared probability vectors.
"""

import numpy as np
import pytest
import scipy.sparse

from repro.checking.context import EvaluationContext
from repro.checking.options import CheckOptions
from repro.checking.reachability import until_probabilities_simple
from repro.checking.transform import absorbing_generator_function
from repro.ctmc.propagators import PropagatorEngine
from repro.ctmc.transient import transient_distribution
from repro.exceptions import ModelError
from repro.logic.ast import TimeInterval
from repro.models import (
    load_balancing_model,
    sir_model,
    virus_model,
)
from repro.models.virus import SETTING_1, SETTING_2

#: Block vs looped equivalence bound (matches the sparse-equivalence
#: acceptance bound: any disagreement is structural, not solver noise).
TOL = 1e-10

TIGHT = dict(ode_rtol=1e-11, ode_atol=1e-13, propagator_tol=1e-11)

ZOO = {
    "virus1": lambda: virus_model(SETTING_1),
    "virus2": lambda: virus_model(SETTING_2),
    "sir": sir_model,
    "loadbalance": load_balancing_model,
}

ZOO_NAMES = sorted(ZOO)


def q_periodic(t: float) -> np.ndarray:
    a = 1.0 + 0.5 * np.sin(t)
    b = 0.3 + 0.2 * np.cos(0.7 * t)
    return np.array(
        [
            [-a, a, 0.0],
            [b, -(a + b), a],
            [0.0, 0.2, -0.2],
        ]
    )


def _occupancy(k: int) -> np.ndarray:
    occ = 0.25 ** np.arange(k, dtype=float)
    return occ / occ.sum()


def _block(m: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(k * 1000 + m)
    return rng.uniform(0.1, 1.0, size=(m, k))


class TestEngineBlockApply:
    """``PropagatorEngine.apply`` on ``(M, K)`` / ``(K, M)`` blocks."""

    def test_left_block_equals_matrix_product(self):
        engine = PropagatorEngine(q_periodic, tol=1e-9)
        a, b = 0.3, 2.1
        block = _block(5, 3)
        out = engine.apply(block, a, b, side="left")
        assert out.shape == (5, 3)
        pi = engine.propagate(a, b)
        assert float(np.max(np.abs(out - block @ pi))) <= TOL

    def test_right_block_equals_matrix_product(self):
        engine = PropagatorEngine(q_periodic, tol=1e-9)
        a, b = 0.0, 1.7
        cols = _block(3, 4).reshape(3, 4)  # (K, M) columns
        out = engine.apply(cols, a, b, side="right")
        assert out.shape == (3, 4)
        pi = engine.propagate(a, b)
        assert float(np.max(np.abs(out - pi @ cols))) <= TOL

    def test_block_rows_match_single_vector_calls(self):
        engine = PropagatorEngine(q_periodic, tol=1e-9)
        a, b = 0.5, 1.9
        block = _block(4, 3)
        out = engine.apply(block, a, b, side="left")
        for i in range(block.shape[0]):
            single = engine.apply(block[i], a, b, side="left")
            assert float(np.max(np.abs(out[i] - single))) <= TOL

    def test_apply_many_blocks(self):
        engine = PropagatorEngine(q_periodic, tol=1e-9)
        ts = np.array([0.0, 0.4, 1.1])
        block = _block(4, 3)
        stacked = engine.apply_many(ts, 0.8, block, side="left")
        assert stacked.shape == (3, 4, 3)
        for j, t in enumerate(ts):
            one = engine.apply(block, float(t), float(t) + 0.8, side="left")
            assert float(np.max(np.abs(stacked[j] - one))) <= TOL

    def test_zero_window_is_identity_action(self):
        engine = PropagatorEngine(q_periodic, tol=1e-9)
        block = _block(2, 3)
        out = engine.apply(block, 1.3, 1.3, side="left")
        assert np.allclose(out, block)

    def test_validation_errors(self):
        engine = PropagatorEngine(q_periodic, tol=1e-9)
        v = np.ones(3)
        with pytest.raises(ModelError):
            engine.apply(v, 1.0, 0.5)
        with pytest.raises(ModelError):
            engine.apply(v, 0.0, 1.0, side="sideways")


class TestKernelBlocks:
    """Raw ``transient_distribution`` kernels accept stacked initials."""

    Q = np.array(
        [
            [-1.0, 0.7, 0.3],
            [0.2, -0.6, 0.4],
            [0.0, 0.5, -0.5],
        ]
    )

    @pytest.mark.parametrize(
        "method", ["expm", "expm_multiply", "uniformization"]
    )
    def test_block_matches_loop(self, method):
        block = _block(6, 3)
        out = transient_distribution(block, self.Q, 0.9, method=method)
        assert out.shape == block.shape
        for i in range(block.shape[0]):
            single = transient_distribution(
                block[i], self.Q, 0.9, method=method
            )
            assert float(np.max(np.abs(out[i] - single))) <= TOL

    @pytest.mark.parametrize("method", ["expm_multiply", "uniformization"])
    def test_sparse_generator_block(self, method):
        q = scipy.sparse.csr_matrix(self.Q)
        block = _block(4, 3)
        dense_out = transient_distribution(
            block, self.Q, 1.3, method=method
        )
        sparse_out = transient_distribution(block, q, 1.3, method=method)
        assert float(np.max(np.abs(sparse_out - dense_out))) <= TOL


class TestContextBlockApply:
    """``EvaluationContext.transient_apply`` block path, both backends."""

    def _context(self, model, backend, **extra):
        options = dict(TIGHT)
        options.update(extra)
        return EvaluationContext(
            model,
            _occupancy(model.num_states),
            options=CheckOptions(matrix_backend=backend, **options),
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_sparse_block_matches_dense_loop(self, name, side):
        model = ZOO[name]()
        k = model.num_states
        dense_ctx = self._context(model, "dense")
        sparse_ctx = self._context(model, "sparse")
        absorbed = frozenset({k - 1})
        signature = ("absorbing", absorbed)
        q_dense = absorbing_generator_function(
            dense_ctx.generator_function(), absorbed
        )
        q_sparse = absorbing_generator_function(
            sparse_ctx.generator_function(), absorbed
        )
        block = _block(4, k)
        out = sparse_ctx.transient_apply(
            signature, q_sparse, 0.2, 0.7, block, side=side
        )
        assert out.shape == block.shape
        for i in range(block.shape[0]):
            single = dense_ctx.transient_apply(
                signature, q_dense, 0.2, 0.7, block[i], side=side
            )
            assert float(np.max(np.abs(out[i] - single))) <= TOL

    def test_dense_default_method_block_matches_loop(self):
        # The dense backend serves blocks through the cached matrix:
        # same answers, one solve.
        model = ZOO["virus1"]()
        k = model.num_states
        ctx = self._context(model, "dense")
        absorbed = frozenset({k - 1})
        signature = ("absorbing", absorbed)
        q = absorbing_generator_function(
            ctx.generator_function(), absorbed
        )
        block = _block(3, k)
        for side in ("left", "right"):
            out = ctx.transient_apply(
                signature, q, 0.0, 1.0, block, side=side
            )
            for i in range(block.shape[0]):
                single = ctx.transient_apply(
                    signature, q, 0.0, 1.0, block[i], side=side
                )
                assert float(np.max(np.abs(out[i] - single))) <= TOL


class TestBatchedUntilFrontEnd:
    """Stacked initials through the until/curve front-end."""

    def _ctx(self, model):
        return EvaluationContext(
            model,
            _occupancy(model.num_states),
            options=CheckOptions(matrix_backend="dense", **TIGHT),
        )

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_until_initial_block_matches_dots(self, name):
        model = ZOO[name]()
        k = model.num_states
        ctx = self._ctx(model)
        gamma2 = frozenset({k - 1})
        gamma1 = frozenset(range(k - 1))
        interval = TimeInterval(0.25, 1.0)
        probs = until_probabilities_simple(ctx, gamma1, gamma2, interval)
        initials = _block(6, k)
        initials /= initials.sum(axis=1, keepdims=True)
        batched = until_probabilities_simple(
            ctx, gamma1, gamma2, interval, initial=initials
        )
        assert batched.shape == (6,)
        assert float(np.max(np.abs(batched - initials @ probs))) <= TOL
        one = until_probabilities_simple(
            ctx, gamma1, gamma2, interval, initial=initials[0]
        )
        assert isinstance(one, float)
        assert abs(one - float(initials[0] @ probs)) <= TOL

    def test_expected_many_block(self):
        model = ZOO["virus1"]()
        k = model.num_states
        ctx = self._ctx(model)
        checker = ctx.local_checker()
        from repro.logic.parser import parse_path

        curve = checker.path_curve(
            parse_path("not_infected U[0,1] infected"), 2.0
        )
        ts = np.linspace(0.0, 2.0, 7)
        initials = _block(4, k)
        initials /= initials.sum(axis=1, keepdims=True)
        many = curve.expected_many(ts, initials)
        assert many.shape == (7, 4)
        vals = curve.values_many(ts)
        assert float(np.max(np.abs(many - vals @ initials.T))) <= TOL
        one = curve.expected_many(ts, initials[0])
        assert one.shape == (7,)
        assert float(np.max(np.abs(one - many[:, 0]))) <= TOL
