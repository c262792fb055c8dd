"""Sparse-backend benchmark — CSR action kernels vs dense solves.

The acceptance workload of the sparse/Krylov transient backend
(``CheckOptions.matrix_backend``; docs/performance.md §8):

- **equivalence** (always on): on a deep load-balancing model small
  enough for both backends (``K = 200``), the sparse action path and the
  dense Kolmogorov path agree to :data:`EQUIVALENCE_TOL` — the PR's
  1e-8 acceptance bound;
- **scale** (always on): at ``K = 1001`` the dense path *must* refuse —
  the ``(K, K)`` Kolmogorov memory guard rejects the 64 MB stacked-ODE
  workspace under a 32 MB budget — while the sparse action path
  completes the same transient question under the identical budget and
  never forms a dense matrix;
- **truncation diagnostic** (always on): the effectively-unbounded
  population model auto-selects the sparse backend and keeps its
  truncation-boundary mass negligible, so the capacity chosen by
  :func:`repro.models.population.choose_capacity` is vindicated
  a posteriori;
- **timing** (``REPRO_BENCH_TIMING_GATE=0`` disables): the K=1001
  sparse solve finishes under :data:`SPARSE_WALL_CEILING_S`;
- **deep two-window cold build** (always on): the two cold ``EP``
  window builds that open every ``deep-sparse`` round, on a fresh
  context — values and ``EvalStats`` counters asserted, wall time
  recorded (advisory).

Wall-times are appended to ``BENCH_sparse.json`` via
:mod:`benchmarks.record`; :func:`benchmarks.record.check_regressions`
flags any label that drifts past 1.5x its own median history (printed,
not asserted — shared runners make wall-clock too noisy to gate on).
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import record, record_stats
from benchmarks.record import SPARSE_PATH, check_regressions, record_wall_times
from repro.checking import MFModelChecker
from repro.checking.context import EvaluationContext
from repro.checking.options import CheckOptions
from repro.checking.transform import absorbing_generator_function
from repro.exceptions import BudgetExceededError
from repro.models.load_balancing import deep_load_balancing_model
from repro.models.population import (
    PopulationParameters,
    population_model,
    poisson_occupancy,
    truncation_boundary_mass,
)
from repro.resilience import Budget

#: The PR's sparse-vs-dense acceptance bound at K = 200.
EQUIVALENCE_TOL = 1e-8
#: Wall ceiling for the K = 1001 sparse solve when the timing gate is on.
SPARSE_WALL_CEILING_S = 120.0
#: Memory budget under which dense K = 1001 must refuse and sparse must run.
MEMORY_BUDGET_MB = 32.0

K_SMALL_BUFFER = 199  # K = 200: both backends affordable
K_DEEP_BUFFER = 1000  # K = 1001: dense Kolmogorov workspace is 64 MB

#: The two cold window builds of a ``deep-sparse`` round, in its order,
#: with the values they must produce (read off the DOP853 occupancy
#: trajectory; ``tests/ctmc/test_sparse_transient.py`` pins the same).
COLD_BUILD_QUERIES = (
    ("EP[<0.5](busy U[0,0.5] idle)", 0.3787005471882201),
    ("EP[<0.5](busy U[0,1] idle)", 0.42813029984954937),
)
#: ``EvalStats`` counters of that build on a fresh context.
COLD_BUILD_COUNTERS = {
    "sparse_cells_built": 32,
    "sparse_applies": 4,
    "sparse_refinements": 0,
    "generator_evals": 193,
}


def _timing_gate() -> bool:
    return os.environ.get("REPRO_BENCH_TIMING_GATE", "1") != "0"


def _print_flags(name: str) -> None:
    for flag in check_regressions(name, path=SPARSE_PATH):
        print(f"\nREGRESSION FLAG: {flag}")


def _geometric_occupancy(k: int, decay: float = 0.9) -> np.ndarray:
    """Occupancy spread over many queue levels (tail mass everywhere)."""
    occ = decay ** np.arange(k, dtype=float)
    return occ / occ.sum()


def _context(model, occupancy, backend: str, budget=None):
    return EvaluationContext(
        model,
        occupancy,
        options=CheckOptions(matrix_backend=backend),
        budget=budget,
    )


def _congested_absorbing(model) -> frozenset:
    """Absorb the 'congested' states — the natural reachability target."""
    return frozenset(model.local.states_with_label("congested"))


def test_sparse_vs_dense_equivalence_k200(benchmark):
    """Both backends answer the same transient question to 1e-8."""
    model = deep_load_balancing_model(buffer=K_SMALL_BUFFER)
    k = model.num_states
    occupancy = _geometric_occupancy(k)
    absorbed = _congested_absorbing(model)
    signature = ("absorbing", absorbed)
    indicator = np.zeros(k)
    indicator[sorted(absorbed)] = 1.0
    t_start, duration = 0.0, 0.5

    dense_ctx = _context(model, occupancy, "dense")
    q_dense = absorbing_generator_function(
        dense_ctx.generator_function(), absorbed
    )
    start = time.perf_counter()
    dense_right = dense_ctx.transient_apply(
        signature, q_dense, t_start, duration, indicator, side="right"
    )
    dense_time = time.perf_counter() - start

    sparse_ctx = _context(model, occupancy, "sparse")
    q_sparse_dense_fallback = absorbing_generator_function(
        sparse_ctx.generator_function(), absorbed
    )

    def run_sparse():
        sparse_ctx.clear_caches()
        start = time.perf_counter()
        value = sparse_ctx.transient_apply(
            signature,
            q_sparse_dense_fallback,
            t_start,
            duration,
            indicator,
            side="right",
        )
        return value, time.perf_counter() - start

    sparse_right, sparse_time = benchmark.pedantic(
        run_sparse, rounds=3, iterations=1
    )

    deviation = float(np.max(np.abs(sparse_right - dense_right)))
    record(
        benchmark,
        k=k,
        max_abs_deviation=deviation,
        dense_s=dense_time,
        sparse_s=sparse_time,
    )
    record_stats(benchmark, sparse_ctx.stats)
    record_wall_times(
        "sparse_vs_dense_equivalence_k200",
        {"dense": dense_time, "sparse": sparse_time},
        extra={"k": k, "max_abs_deviation": deviation},
        path=SPARSE_PATH,
    )
    _print_flags("sparse_vs_dense_equivalence_k200")
    print(
        f"\nK={k} equivalence: sparse {sparse_time:.3f}s, dense "
        f"{dense_time:.3f}s, max deviation {deviation:.2e}"
    )

    assert deviation <= EQUIVALENCE_TOL
    # The sparse context must actually have used the action engine —
    # no dense transient matrix may have been solved on its side.
    assert sparse_ctx.stats.propagator_engines >= 1


def test_deep_lb_sparse_within_budget_dense_exceeds(benchmark):
    """K = 1001: dense refuses under 32 MB, sparse completes under it."""
    model = deep_load_balancing_model(buffer=K_DEEP_BUFFER)
    k = model.num_states
    occupancy = _geometric_occupancy(k, decay=0.98)
    absorbed = _congested_absorbing(model)
    signature = ("absorbing", absorbed)
    indicator = np.zeros(k)
    indicator[sorted(absorbed)] = 1.0
    t_start, duration = 0.0, 0.5

    # Dense path: the (K, K) Kolmogorov solve needs k*k*8*8 ≈ 64 MB of
    # stacked-ODE workspace; the memory guard must refuse it *before*
    # any allocation, and budget errors never degrade down the ladder.
    dense_ctx = _context(
        model, occupancy, "dense", budget=Budget(max_memory_mb=MEMORY_BUDGET_MB)
    )
    q_dense = absorbing_generator_function(
        dense_ctx.generator_function(), absorbed
    )
    with pytest.raises(BudgetExceededError):
        dense_ctx.transient_apply(
            signature, q_dense, t_start, duration, indicator, side="right"
        )

    # Sparse path: same question, same budget — must complete.
    sparse_ctx = _context(
        model,
        occupancy,
        "sparse",
        budget=Budget(max_memory_mb=MEMORY_BUDGET_MB),
    )
    q_fallback = absorbing_generator_function(
        sparse_ctx.generator_function(), absorbed
    )

    def run_sparse():
        start = time.perf_counter()
        value = sparse_ctx.transient_apply(
            signature, q_fallback, t_start, duration, indicator, side="right"
        )
        return value, time.perf_counter() - start

    reach, sparse_time = benchmark.pedantic(run_sparse, rounds=1, iterations=1)

    # The answer is a vector of reachability probabilities.
    assert reach.shape == (k,)
    assert np.all(np.isfinite(reach))
    assert float(reach.min()) >= -1e-9
    assert float(reach.max()) <= 1.0 + 1e-9
    # Absorbed states trivially reach themselves.
    assert float(reach[sorted(absorbed)].min()) >= 1.0 - 1e-9
    # The sparse side must have gone through the action engine, not a
    # dense fallback (which the budget would have refused anyway).
    assert sparse_ctx.stats.propagator_engines >= 1

    record(
        benchmark,
        k=k,
        sparse_s=sparse_time,
        memory_budget_mb=MEMORY_BUDGET_MB,
        dense_refused=True,
    )
    record_stats(benchmark, sparse_ctx.stats)
    record_wall_times(
        "deep_lb_k1001_sparse_under_budget",
        {"sparse": sparse_time},
        extra={"k": k, "memory_budget_mb": MEMORY_BUDGET_MB},
        path=SPARSE_PATH,
    )
    _print_flags("deep_lb_k1001_sparse_under_budget")
    print(
        f"\nK={k} under {MEMORY_BUDGET_MB:g} MB: dense refused, "
        f"sparse {sparse_time:.3f}s"
    )
    if _timing_gate():
        assert sparse_time <= SPARSE_WALL_CEILING_S, (
            f"sparse K={k} solve took {sparse_time:.1f}s "
            f"(ceiling {SPARSE_WALL_CEILING_S:g}s)"
        )


def test_population_truncation_diagnostic(benchmark):
    """Truncated population model: auto-sparse, boundary mass negligible."""
    params = PopulationParameters(lam=250.0, mu=1.0, crowding=0.25)
    model = population_model(params)
    k = model.num_states
    occupancy = poisson_occupancy(params)

    ctx = _context(model, occupancy, "auto")
    # K ≈ 350 tridiagonal: the auto heuristic must pick sparse.
    assert ctx.matrix_backend == "sparse"

    boundary = frozenset(model.local.states_with_label("boundary"))
    signature = ("absorbing", boundary)
    indicator = np.zeros(k)
    indicator[sorted(boundary)] = 1.0
    q_fallback = absorbing_generator_function(
        ctx.generator_function(), boundary
    )

    def run():
        start = time.perf_counter()
        reach = ctx.transient_apply(
            signature, q_fallback, 0.0, 1.0, indicator, side="right"
        )
        return reach, time.perf_counter() - start

    reach, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    # Probability of hitting the truncation boundary within the horizon,
    # weighted by the initial occupancy: the a-priori analogue of
    # truncation_boundary_mass, and it must vanish for the capacity to
    # be trusted.
    hit_probability = float(occupancy @ reach)
    start_mass = truncation_boundary_mass(occupancy)

    record(
        benchmark,
        k=k,
        boundary_hit_probability=hit_probability,
        initial_boundary_mass=start_mass,
    )
    record_stats(benchmark, ctx.stats)
    record_wall_times(
        "population_truncation_diagnostic",
        {"sparse": elapsed},
        extra={
            "k": k,
            "boundary_hit_probability": hit_probability,
            "initial_boundary_mass": start_mass,
        },
        path=SPARSE_PATH,
    )
    _print_flags("population_truncation_diagnostic")
    print(
        f"\npopulation K={k}: boundary hit probability "
        f"{hit_probability:.2e} (initial boundary mass {start_mass:.2e}), "
        f"{elapsed:.3f}s"
    )

    assert hit_probability < 1e-6
    assert start_mass < 1e-6


def test_deep_lb_two_window_cold_build(benchmark):
    """The deep-sparse round's two cold EP window builds, fresh context.

    ``loadbalance-deep`` (K = 1001) at ``m_k ∝ 0.70^k`` (entries below
    1e-14 zeroed): ``busy U[0,0.5] idle`` then ``busy U[0,1] idle``, the
    second reusing the first one's cells.  Values and counters are
    asserted; the wall time is recorded, not gated.
    """
    model = deep_load_balancing_model(buffer=K_DEEP_BUFFER)
    weights = 0.70 ** np.arange(model.num_states, dtype=float)
    weights[weights < 1e-14] = 0.0
    occupancy = weights / weights.sum()
    model.local.compiled_generator()
    checker = MFModelChecker(model)

    def run():
        ctx = checker.context(occupancy)
        start = time.perf_counter()
        values = [
            checker.check_detailed(formula, occupancy, ctx=ctx).value
            for formula, _ in COLD_BUILD_QUERIES
        ]
        return values, ctx.stats, time.perf_counter() - start

    values, stats, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    counters = {name: getattr(stats, name) for name in COLD_BUILD_COUNTERS}
    record(benchmark, k=model.num_states, values=values, cold_build_s=elapsed)
    record_stats(benchmark, stats)
    record_wall_times(
        "deep_lb_two_window_cold_build",
        {"cold_build": elapsed},
        extra={
            "k": model.num_states,
            "values": values,
            "stats": stats.as_dict(),
        },
        path=SPARSE_PATH,
    )
    _print_flags("deep_lb_two_window_cold_build")
    print(
        f"\nK={model.num_states} two-window cold build: {elapsed:.3f}s, "
        f"values {values[0]:.15f} / {values[1]:.15f}"
    )

    for value, (_, expected) in zip(values, COLD_BUILD_QUERIES):
        assert value == pytest.approx(expected, abs=1e-13)
    assert counters == COLD_BUILD_COUNTERS
