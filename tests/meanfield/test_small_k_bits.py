"""The small-K drift and generator assembly are pinned bit for bit.

The virus2 ``ES`` long run is chaotic at the ulp level: moving every
drift output by one ulp moved its drift-call count from 3,429 to
21,521-103,728 (docs/numerics.md §6).  So the per-call path
(``np.maximum`` clamp, flat-stride diagonal, bound assembler) must give
exactly the bits of these plain formulas:

- ``drift(t, m) = clip(m) @ Q(clip(m), t)`` with ``clip = np.clip(·, 0,
  None)``;
- ``Q(m, t)`` = a copy of the constant base, every dynamic rate added at
  its entry in model order, then ``np.fill_diagonal(q, -q.sum(axis=1))``.

Equality here is byte equality: ``np.array_equal`` plus equal sign bits,
so a ``-0.0`` turning into ``0.0`` fails too.  The long-run test compares
against the reference in the same process, so it holds whatever BLAS the
machine has.
"""

import numpy as np
import pytest

from repro.meanfield.compiled import DRIFT_ACTION_MIN_K
from repro.meanfield.ode import OccupancyTrajectory
from repro.meanfield.stationary import _drift, stationary_from_long_run
from repro.models import MODEL_REGISTRY

SMALL_K = sorted(
    name
    for name, factory in MODEL_REGISTRY.items()
    if factory().num_states < DRIFT_ACTION_MIN_K
)

#: Entries that sit on the clamp's edge: a negative zero, a negative
#: subnormal-scale value and a positive zero.
EDGE_VALUES = (-0.0, -1e-300, 0.0)

TIMES = (0.0, 1.7)


def reference_generator(compiled, m, t):
    """``Q(m, t)``: base copy, dynamic adds in model order, fill_diagonal."""
    m = np.asarray(m, dtype=float)
    q = compiled._base_matrix().copy()
    for src, dst, fn, _ in compiled._dynamic:
        value = float(fn(m, t))
        assert np.isfinite(value) and value >= -1e-9
        if value > 0.0:
            q[src, dst] += value
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def reference_drift(compiled, t, m):
    m = np.clip(np.asarray(m, dtype=float), 0.0, None)
    return m @ reference_generator(compiled, m, t)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def points(k, seed=0):
    """Seeded simplex points, then points with an edge value per entry."""
    rng = np.random.default_rng(seed)
    out = list(rng.dirichlet(np.ones(k), size=8))
    for value in EDGE_VALUES:
        for j in range(k):
            m = rng.dirichlet(np.ones(k))
            m[j] = value
            out.append(m)
    return out


def test_maximum_clamp_equals_np_clip():
    m = np.array([0.25, -0.0, -1e-300, 0.0, np.nan, -0.5, 1.5])
    assert_same_bits(np.maximum(m, 0.0), np.clip(m, 0.0, None))


@pytest.mark.parametrize("name", SMALL_K)
def test_generator_matches_reference_bitwise(name):
    model = MODEL_REGISTRY[name]()
    compiled = model.local.compiled_generator()
    for m in points(model.num_states):
        for t in TIMES:
            assert_same_bits(compiled(m, t), reference_generator(compiled, m, t))


@pytest.mark.parametrize("name", SMALL_K)
def test_drift_matches_reference_bitwise(name):
    model = MODEL_REGISTRY[name]()
    compiled = model.local.compiled_generator()
    for m in points(model.num_states, seed=1):
        for t in TIMES:
            assert_same_bits(
                model.drift(t, m), reference_drift(compiled, t, m)
            )


def counted(drift):
    calls = [0]

    def wrapper(t, m):
        calls[0] += 1
        return drift(t, m)

    return wrapper, calls


def reference_long_run(model, initial):
    """The first horizon of the long run as a dense LSODA trajectory
    over [0, 1000], with the reference drift, read at its end."""
    compiled = model.local.compiled_generator()
    drift, calls = counted(lambda t, m: reference_drift(compiled, t, m))
    trajectory = OccupancyTrajectory(
        drift,
        initial,
        horizon=1e3,
        rtol=1e-7,
        atol=1e-10,
        method="LSODA",
        max_horizon=2e6,
        fallbacks=("Radau",),
    )
    return trajectory(1e3), calls[0]


@pytest.mark.parametrize(
    "occupancy",
    [(0.8465, 0.1019, 0.0516), (0.8531, 0.0985, 0.0484), (0.85, 0.1, 0.05)],
)
def test_virus2_long_run_matches_reference_bitwise(occupancy):
    """``EvaluationContext.steady_state``'s long run (drift_tol 1e-7) on
    ``paper-cold``'s ``ES`` points: the same drift calls and the same
    coarse point as the reference, bit for bit."""
    initial = np.array(occupancy)
    want, want_calls = reference_long_run(MODEL_REGISTRY["virus2"](), initial)
    # These points settle at the first horizon, so the reference's one
    # dense solve is the whole run.
    model = MODEL_REGISTRY["virus2"]()
    assert np.linalg.norm(_drift(model, want)) < 1e-7

    model.drift, calls = counted(model.drift)
    got = stationary_from_long_run(model, initial, drift_tol=1e-7)
    assert calls[0] == want_calls
    assert_same_bits(got, want)
