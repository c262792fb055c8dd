"""Block (multi-vector) kernels agree with looped single-vector calls.

The transient kernels and the propagator engines accept ``M`` stacked
vectors as one ``(M, K)`` block and carry it in one matmat pass per
cell / series term; the sparse action engine pushes blocks this way for
its Richardson probes and ``propagate``.  A block answer must be the
*same* answer: row ``i`` of every block result has to match the
corresponding single-vector call to far better than solver tolerance,
on the dense propagator engine and the raw transient kernels.
"""

import numpy as np
import pytest
import scipy.sparse

from repro.ctmc.propagators import PropagatorEngine
from repro.ctmc.transient import transient_distribution
from repro.exceptions import ModelError

#: Block vs looped equivalence bound (matches the sparse-equivalence
#: acceptance bound: any disagreement is structural, not solver noise).
TOL = 1e-10


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
