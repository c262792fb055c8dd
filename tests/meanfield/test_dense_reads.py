"""Dense reads through :class:`repro.diagnostics.DenseSolution` are
scipy's reads, byte for byte.

The reader skips scipy's per-call wrappers but keeps its arithmetic
(docs/numerics.md §7), so every read must give the bytes of the
``OdeSolution`` it wraps: at seeded times, at every step boundary
(where the lookup side picks the step), at both ends, for ``float`` and
``np.float64`` times, and for arrays of times.  DOP853, the occupancy
trajectory's method, is read in Python floats up to
``DOP853_FLOAT_MAX_K`` components and in numpy arrays above, so it is
pinned on both sides of that cut.  The end-to-end lock runs paper
queries with the reader and with the bare ``OdeSolution`` in one
process, so it holds whatever BLAS the machine has; a scipy release
that renames what the reader reads fails here.
"""

import numpy as np
import pytest

import repro.diagnostics as diagnostics
from repro.checking import CheckOptions, MFModelChecker
from repro.checking.nested import TimeVaryingUntil
from repro.checking.satsets import PiecewiseSatSet
from repro.ctmc.inhomogeneous import (
    TransitionMatrixPropagator,
    solve_forward_kolmogorov,
)
from repro.diagnostics import (
    DOP853_FLOAT_MAX_K,
    DenseSolution,
    robust_solve_ivp,
)
from repro.logic.ast import TimeInterval
from repro.meanfield.ode import OccupancyTrajectory
from repro.models import MODEL_REGISTRY

METHODS = ("RK45", "RK23", "DOP853", "Radau", "BDF", "LSODA")

M0 = np.array([0.8, 0.15, 0.05])


def solve(method, t_span=(0.0, 5.0)):
    """virus1's drift over ``t_span``, dense, without fallbacks."""
    sol = robust_solve_ivp(
        MODEL_REGISTRY["virus1"]().drift,
        t_span,
        M0,
        method=method,
        rtol=1e-9,
        atol=1e-12,
        dense_output=True,
        fallbacks=(),
    )
    assert isinstance(sol.sol, DenseSolution)
    return sol.sol, sol.sol.ode_solution


def assert_same_reads(reader, ode_solution, times):
    for t in times:
        for time in (float(t), np.float64(t)):
            got, want = reader(time), ode_solution(time)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (t, type(time))


@pytest.mark.parametrize("method", METHODS)
def test_scalar_reads_match_scipy(method):
    reader, ode_solution = solve(method)
    seeded = np.random.default_rng(7).uniform(0.0, 5.0, 500)
    ends = (0.0, 5.0)
    assert_same_reads(reader, ode_solution, seeded)
    assert_same_reads(reader, ode_solution, ode_solution.ts)
    assert_same_reads(reader, ode_solution, ends)


def linear_drift(k, seed=0):
    """``ṁ = m A`` for a seeded random generator ``A`` on ``k`` states."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 3.0 / k, (k, k))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return (lambda t, m: m @ a), rng.dirichlet(np.ones(k))


def deep_system():
    """``loadbalance-deep`` from the ``deep-sparse`` geometric occupancy."""
    model = MODEL_REGISTRY["loadbalance-deep"]()
    weights = 0.70 ** np.arange(model.num_states, dtype=float)
    weights[weights < 1e-14] = 0.0
    return model.drift, weights / weights.sum(), 1.0


#: DOP853 systems on both sides of the reader's size cut: the paper's
#: K = 3, botnet's K = 5, the cut itself and one past it, and
#: ``loadbalance-deep``'s K = 1001.
DOP853_SYSTEMS = {
    "virus1": lambda: (MODEL_REGISTRY["virus1"]().drift, M0, 22.0),
    "botnet": lambda: (
        MODEL_REGISTRY["botnet"]().drift,
        np.array([0.9, 0.04, 0.03, 0.03, 0.0]),
        21.0,
    ),
    "cut": lambda: (*linear_drift(DOP853_FLOAT_MAX_K), 5.0),
    "past-cut": lambda: (*linear_drift(DOP853_FLOAT_MAX_K + 1), 5.0),
    "loadbalance-deep": deep_system,
}


@pytest.mark.parametrize("system", sorted(DOP853_SYSTEMS))
def test_dop853_reads_match_scipy_across_the_size_cut(system):
    """The trajectory's tolerances (rtol 1e-9, atol 1e-11), and every read
    a DOP853 read of the reader's own, not a call into the step."""
    drift, start, end = DOP853_SYSTEMS[system]()
    sol = robust_solve_ivp(
        drift,
        (0.0, end),
        start,
        method="DOP853",
        rtol=1e-9,
        atol=1e-11,
        dense_output=True,
        fallbacks=(),
    )
    reader, ode_solution = sol.sol, sol.sol.ode_solution
    seeded = np.random.default_rng(12).uniform(0.0, end, 300)
    assert_same_reads(reader, ode_solution, seeded)
    assert_same_reads(reader, ode_solution, ode_solution.ts)
    assert_same_reads(reader, ode_solution, (0.0, end))
    assert all(read is not None for read in reader._reads)


@pytest.mark.parametrize("method", ("RK45", "LSODA"))
def test_backward_solve_reads_match_scipy(method):
    """A descending solution is indexed as scipy indexes ``ts_sorted``."""
    reader, ode_solution = solve(method, t_span=(5.0, 0.0))
    assert_same_reads(reader, ode_solution, ode_solution.ts)
    assert_same_reads(
        reader, ode_solution, np.random.default_rng(8).uniform(0.0, 5.0, 50)
    )


@pytest.mark.parametrize("method", ("RK45", "LSODA"))
def test_lookup_side_decides_boundary_bits(method):
    """At some boundaries the two neighbouring steps disagree in the
    last bits, so the boundary reads above test the lookup side
    ("left" for RK45, "right" for LSODA)."""
    _, ode_solution = solve(method)
    steps = ode_solution.interpolants
    differ = [
        t
        for i, t in enumerate(ode_solution.ts.tolist()[1:-1], start=1)
        if steps[i - 1](t).tobytes() != steps[i](t).tobytes()
    ]
    assert differ


@pytest.mark.parametrize("method", METHODS)
def test_array_reads_match_scipy(method):
    reader, ode_solution = solve(method)
    times = np.concatenate(
        [np.random.default_rng(9).uniform(0.0, 5.0, 40), ode_solution.ts]
    )
    for ts in (times, times[:1], np.array(2.5)):
        assert reader(ts).tobytes() == ode_solution(ts).tobytes()


# ----------------------------------------------------------------------
# Every dense consumer reads through the reader
# ----------------------------------------------------------------------


@pytest.fixture
def reads(monkeypatch):
    """``(t, size)`` of every read, each checked against scipy's bytes."""
    seen = []

    class Checked(DenseSolution):
        __slots__ = ()

        def __call__(self, t):
            got = super().__call__(t)
            assert got.tobytes() == self.ode_solution(t).tobytes()
            seen.append((t, got.size))
            return got

    monkeypatch.setattr(diagnostics, "DenseSolution", Checked)
    return seen


def test_trajectory_reads_through_reader(reads):
    trajectory = OccupancyTrajectory(
        MODEL_REGISTRY["virus1"]().drift, M0, horizon=5.0
    )
    trajectory(2.5)
    assert (2.5, 3) in reads


def test_window_shift_reads_through_reader(reads, ctx1):
    propagator = TransitionMatrixPropagator(
        ctx1.generator_function(), window=1.0, t0=0.0, horizon=3.0
    )
    propagator(1.7)
    assert (1.7, 9) in reads


def test_dense_forward_kolmogorov_reads_through_reader(reads, ctx1):
    pi_at = solve_forward_kolmogorov(
        ctx1.generator_function(), 0.0, 1.0, dense=True
    )
    pi_at(0.4)
    assert (0.4, 9) in reads


def test_appendix_ode_segment_reads_through_reader(reads, ctx2):
    infected, everyone = frozenset({1, 2}), frozenset({0, 1, 2})
    solver = TimeVaryingUntil(
        ctx2,
        PiecewiseSatSet.constant(everyone, 0.0, 2.5),
        PiecewiseSatSet.constant(infected, 0.0, 2.5),
        TimeInterval(0, 0.5),
        theta=2.0,
    )
    solver.curve("propagate").values(1.3)
    assert (1.3, 16) in reads


# ----------------------------------------------------------------------
# End to end: the reader changes no bit of any answer or counter
# ----------------------------------------------------------------------

E2 = "EP[<0.3](not_infected U[0,1] infected)"
E6 = (
    "E[>0.8](P[>0.9](infected U[0,15] (P[>0.8](tt U[0,0.5] infected))))"
    " & E[<0.1](active)"
)
F3C = "E[>0.1](P[>0.8](tt U[0,0.5] infected))"

#: ``(model, options, formula, occupancy, theta)``; ``theta`` None is a
#: check.  F3a, F3c and E6-nested as ``paper-cold`` runs them, and two
#: cSats whose crossing times are read off the trajectory (6.2668) and
#: off the window-shift curve (13.4096).
QUERIES = (
    ("virus1", {}, E2, (0.8, 0.15, 0.05), 20.0),
    ("virus2", {}, F3C, (0.85, 0.1, 0.05), 15.0),
    ("virus2", {"until_method": "nested"}, E6, (0.85, 0.1, 0.05), None),
    ("virus1", {}, "E[<0.15](infected)", (0.8, 0.15, 0.05), 20.0),
    ("virus1", {}, E2, (0.3, 0.5, 0.2), 20.0),
)


def run_cold(model, options, formula, occupancy, theta):
    """One query on a fresh checker: answer bits and every counter."""
    checker = MFModelChecker(MODEL_REGISTRY[model](), CheckOptions(**options))
    occ = np.array(occupancy)
    ctx = checker.context(occ)
    if theta is None:
        verdict = checker.check_detailed(formula, occ, ctx=ctx)
        answer = (verdict.holds, repr(verdict))
    else:
        result = checker.conditional_sat(formula, occ, theta, ctx=ctx)
        answer = [(float(a).hex(), float(b).hex()) for a, b in result.intervals]
    return answer, ctx.stats.as_dict()


def test_reader_changes_no_answer_or_counter(monkeypatch):
    with_reader = [run_cold(*query) for query in QUERIES]
    monkeypatch.setattr(
        diagnostics, "DenseSolution", lambda ode_solution: ode_solution
    )
    bare = [run_cold(*query) for query in QUERIES]
    assert with_reader == bare
    # The crossings are read off dense solutions, not grid ends.
    assert float.fromhex(with_reader[3][0][0][0]) == pytest.approx(
        6.2668232, abs=1e-6
    )
    assert float.fromhex(with_reader[4][0][0][0]) == pytest.approx(
        13.409552, abs=1e-5
    )
