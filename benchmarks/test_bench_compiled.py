"""P1 — the compiled-generator fast path and solve-level caching.

Quantifies the three layers added for performance (docs/performance.md):

- interpreted vs compiled vs batched generator assembly on the virus
  model (same ``Q`` matrices to 1e-12, so the groups are directly
  comparable);
- a full nested-until check with a cold context (every Kolmogorov solve
  from scratch) vs a warm one (generator memo + transient cache
  populated), with the instrumentation counters attached to the JSON
  record so regressions can be traced to recomputation;
- RHS-evaluation counts of one trajectory solve, compiled vs the
  interpreted oracle;
- two cold paper queries on the small-K per-call path, each run
  ``COLD_RUNS`` times, their answers and counters asserted on every run
  and their median wall times appended to ``BENCH_compiled.json``;
- scalar reads of dense trajectories (DOP853 at K = 3 and K = 1001, and
  RK45 at K = 3) and of a window-shift solution through
  :class:`repro.diagnostics.DenseSolution` vs the ``OdeSolution`` it
  wraps, byte equality asserted and the cost per read appended to
  ``BENCH_compiled.json``.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import (
    M_EXAMPLE_1,
    M_EXAMPLE_2,
    record,
    record_stats,
)
from benchmarks.record import COMPILED_PATH, record_wall_times
from repro.checking import EvaluationContext, MFModelChecker
from repro.ctmc.inhomogeneous import TransitionMatrixPropagator
from repro.diagnostics import robust_solve_ivp
from repro.instrumentation import EvalStats
from repro.meanfield.overall_model import MeanFieldModel
from repro.models import MODEL_REGISTRY

NESTED_PSI = (
    "E[>0.8](P[>0.9](infected U[0,15] (P[>0.8](tt U[0,0.5] infected))))"
)

RNG = np.random.default_rng(42)


def _occupancies(k, n):
    return RNG.dirichlet(np.ones(k), size=n)


# ----------------------------------------------------------------------
# Generator assembly: interpreted vs compiled vs batched
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="generator-eval")
def test_generator_eval_interpreted(benchmark, virus1):
    local = virus1.local
    ms = _occupancies(local.num_states, 256)

    def assemble():
        return [local.generator(m, 0.0) for m in ms]

    qs = benchmark(assemble)
    record(benchmark, num_evals=len(qs), path="interpreted")


@pytest.mark.benchmark(group="generator-eval")
def test_generator_eval_compiled(benchmark, virus1):
    local = virus1.local
    compiled = local.compiled_generator()
    ms = _occupancies(local.num_states, 256)

    def assemble():
        return [compiled(m, 0.0) for m in ms]

    qs = benchmark(assemble)
    # Same matrices as the interpreted walk — the fast path may not drift.
    for m, q in zip(ms[:8], qs[:8]):
        np.testing.assert_allclose(q, local.generator(m, 0.0), atol=1e-12)
    record(
        benchmark,
        num_evals=len(qs),
        path="compiled",
        num_constant=compiled.num_constant,
        num_dynamic=compiled.num_dynamic,
    )


@pytest.mark.benchmark(group="generator-eval")
def test_generator_eval_batched(benchmark, virus1):
    compiled = virus1.local.compiled_generator()
    ms = _occupancies(virus1.num_states, 256)

    def assemble():
        return compiled.batch(ms, 0.0)

    qs = benchmark(assemble)
    np.testing.assert_allclose(qs[0], compiled(ms[0], 0.0), atol=1e-12)
    record(benchmark, num_evals=qs.shape[0], path="batched")


# ----------------------------------------------------------------------
# Nested-until checking: cold vs warm caches
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="nested-until-caching")
def test_nested_until_cold_context(benchmark, virus2):
    checker = MFModelChecker(virus2)
    stats = EvalStats()

    def check_cold():
        # A fresh context per round: every generator assembly and every
        # Kolmogorov solve happens from scratch.
        ctx = EvaluationContext(
            virus2, M_EXAMPLE_2, checker.options, stats=stats
        )
        return checker.check(NESTED_PSI, M_EXAMPLE_2, ctx=ctx)

    verdict = benchmark(check_cold)
    record(benchmark, verdict=verdict, cache="cold")
    record_stats(benchmark, stats)


@pytest.mark.benchmark(group="nested-until-caching")
def test_nested_until_warm_context(benchmark, virus2):
    checker = MFModelChecker(virus2)
    stats = EvalStats()
    ctx = EvaluationContext(virus2, M_EXAMPLE_2, checker.options, stats=stats)
    cold_verdict = checker.check(NESTED_PSI, M_EXAMPLE_2, ctx=ctx)  # warm up

    def check_warm():
        return checker.check(NESTED_PSI, M_EXAMPLE_2, ctx=ctx)

    verdict = benchmark(check_warm)
    assert verdict == cold_verdict  # caching may not change the verdict
    record(
        benchmark,
        verdict=verdict,
        cache="warm",
        transient_hit_rate=stats.transient_cache_hits
        / max(1, stats.transient_cache_hits + stats.transient_cache_misses),
    )
    record_stats(benchmark, stats)


# ----------------------------------------------------------------------
# Trajectory solve: RHS-evaluation counts, compiled vs interpreted
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="trajectory-solve")
def test_trajectory_solve_compiled(benchmark, virus2):
    def solve():
        stats = EvalStats()
        traj = virus2.trajectory(M_EXAMPLE_2, horizon=20.0, stats=stats)
        traj(20.0)
        return stats

    stats = benchmark(solve)
    record(benchmark, path="compiled", horizon=20.0)
    record_stats(benchmark, stats)
    assert stats.rhs_evaluations > 0


@pytest.mark.benchmark(group="trajectory-solve")
def test_trajectory_solve_interpreted(benchmark, virus2):
    oracle = MeanFieldModel(virus2.local, compiled=False)

    def solve():
        stats = EvalStats()
        traj = oracle.trajectory(M_EXAMPLE_2, horizon=20.0, stats=stats)
        traj(20.0)
        return stats

    stats = benchmark(solve)
    record(benchmark, path="interpreted", horizon=20.0)
    record_stats(benchmark, stats)
    # The adaptive solver walks the same trajectory either way; the
    # compiled path wins per evaluation, not by taking fewer steps.
    assert stats.rhs_evaluations > 0


# ----------------------------------------------------------------------
# Cold paper queries on the small-K per-call path
# ----------------------------------------------------------------------

#: ``(label, model, command, formula, occupancy, theta)``: ``paper-cold``'s
#: ``ES`` pool point (one long LSODA run, 3,429 drift calls on a 2-vCPU
#: VM) and the F3a cSat (occupancy ODE, window-shift and Kolmogorov
#: solves), each on a fresh model and checker.
COLD_QUERIES = (
    ("es_pool", "virus2", "check", "ES[>=0.1](infected)",
     (0.8465, 0.1019, 0.0516), None),
    ("f3a_csat", "virus1", "csat", "EP[<0.3](not_infected U[0,1] infected)",
     (0.8, 0.15, 0.05), 20.0),
)

#: The counters each record stores.
COUNTER_NAMES = ("rhs_evaluations", "generator_evals", "solve_ivp_calls")

#: Cold runs per query, each on a fresh model and checker.  The record
#: keeps the median: one cold run times the host as much as the code
#: (two back-to-back single runs of the ``ES`` pool read 0.038 and
#: 0.025 s).
COLD_RUNS = 5

#: The counter values asserted per query.  Every drift call counts into
#: ``rhs_evaluations``, the long run's included, so both queries also
#: assert it equal to the drift calls counted in the same process.  The
#: ``ES`` pool has no constant for it: the long run's count depends on
#: the machine's BLAS rounding (``tests/meanfield/test_small_k_bits.py``
#: pins it against a reference in-process instead).
COLD_COUNTERS = {
    "es_pool": {"generator_evals": 0, "solve_ivp_calls": 1},
    "f3a_csat": {"rhs_evaluations": 317, "generator_evals": 269,
                 "solve_ivp_calls": 3},
}


def _cold_query(model_name, command, formula, occupancy, theta):
    """One query on a fresh model and checker; ``(answer, stats, drift
    calls, seconds)``."""
    start = time.perf_counter()
    model = MODEL_REGISTRY[model_name]()
    drift = model.drift
    calls = [0]

    def counted_drift(t, m):
        calls[0] += 1
        return drift(t, m)

    model.drift = counted_drift
    checker = MFModelChecker(model)
    occ = np.array(occupancy)
    ctx = checker.context(occ)
    if command == "check":
        verdict = checker.check_detailed(formula, occ, ctx=ctx)
        answer = [verdict.holds, verdict.value]
    else:
        result = checker.conditional_sat(formula, occ, theta, ctx=ctx)
        answer = [[float(a), float(b)] for a, b in result.intervals]
    return answer, ctx.stats, calls[0], time.perf_counter() - start


@pytest.mark.benchmark(group="cold-small-k")
def test_cold_small_k_queries(benchmark):
    """``ES`` pool and F3a cSat, each cold ``COLD_RUNS`` times: answers
    and counters asserted on every run, median wall times recorded
    (advisory, not gated)."""

    def run():
        return {
            label: [_cold_query(*query) for _ in range(COLD_RUNS)]
            for label, *query in COLD_QUERIES
        }

    runs = benchmark.pedantic(run, rounds=1, iterations=1)

    for label, results in runs.items():
        first_answer, first_stats, _, _ = results[0]
        for answer, stats, calls, _ in results:
            if label == "es_pool":
                assert answer[0] is True
                assert answer[1] == pytest.approx(1.0, abs=1e-9)
            else:
                assert answer == [[0.0, 20.0]]
            got = {name: getattr(stats, name) for name in COLD_COUNTERS[label]}
            assert got == COLD_COUNTERS[label], label
            assert stats.rhs_evaluations == calls, label
            # A cold query is deterministic: every run does the same work.
            assert answer == first_answer, label
            assert stats.as_dict() == first_stats.as_dict(), label

    medians = {
        label: float(np.median([elapsed for *_, elapsed in results]))
        for label, results in runs.items()
    }
    record(
        benchmark,
        runs=COLD_RUNS,
        **{f"{label}_s": median for label, median in medians.items()},
    )
    record_wall_times(
        "cold_small_k_queries",
        medians,
        extra={
            "runs": COLD_RUNS,
            **{
                label: {
                    "answer": answer,
                    "drift_calls": calls,
                    "stats": {
                        name: getattr(stats, name) for name in COUNTER_NAMES
                    },
                }
                for label, [(answer, stats, calls, _), *_later] in runs.items()
            },
        },
        path=COMPILED_PATH,
    )


# ----------------------------------------------------------------------
# Dense reads: the reader vs the OdeSolution it wraps
# ----------------------------------------------------------------------

#: Seeded scalar read times over ``[0, 20]`` and the timing repeats
#: (best of); the reads are ``float`` times, as every consumer makes them.
READ_TIMES = np.random.default_rng(3).uniform(0.0, 20.0, 3000).tolist()
READ_REPEATS = 5


def _seconds_per_read(read):
    best = float("inf")
    for _ in range(READ_REPEATS):
        start = time.perf_counter()
        for t in READ_TIMES:
            read(t)
        best = min(best, (time.perf_counter() - start) / len(READ_TIMES))
    return best


def _deep_occupancy(model):
    weights = 0.70 ** np.arange(model.num_states, dtype=float)
    weights[weights < 1e-14] = 0.0
    return weights / weights.sum()


@pytest.mark.benchmark(group="dense-reads")
def test_dense_reads(benchmark, virus1):
    """One scalar read of a trajectory over ``[0, 20]`` at the context's
    tolerances — DOP853, the trajectory's method, at K = 3 (virus1) and
    K = 1001 (``loadbalance-deep``), on both sides of the reader's size
    cut, and RK45 at K = 3 (``trajectory``, its method before) — and of
    a window-shift solution (Eq. (6), window 1): the reader's bytes
    equal scipy's, and its cost per read is recorded (advisory, not
    gated) next to the ``OdeSolution``'s, in one process."""
    ctx = EvaluationContext(virus1, M_EXAMPLE_1)
    options = ctx.options
    deep = MODEL_REGISTRY["loadbalance-deep"]()

    def trajectory(model, occupancy, method):
        return robust_solve_ivp(
            model.drift,
            (0.0, 20.0),
            occupancy,
            method=method,
            rtol=options.ode_rtol * 1e-1,
            atol=options.ode_atol * 1e-1,
            dense_output=True,
        ).sol

    readers = {
        "trajectory": trajectory(virus1, M_EXAMPLE_1, "RK45"),
        "dop853_k3": trajectory(virus1, M_EXAMPLE_1, "DOP853"),
        "dop853_k1001": trajectory(deep, _deep_occupancy(deep), "DOP853"),
        "window_shift": TransitionMatrixPropagator(
            ctx.generator_function(), window=1.0, t0=0.0, horizon=20.0
        )._solution,
    }
    for reader in readers.values():
        for t in READ_TIMES:
            assert reader(t).tobytes() == reader.ode_solution(t).tobytes()

    def run():
        timings = {}
        for name, reader in readers.items():
            timings[f"{name}_reader"] = _seconds_per_read(reader)
            timings[f"{name}_ode_solution"] = _seconds_per_read(
                reader.ode_solution
            )
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    micros = {label: 1e6 * seconds for label, seconds in timings.items()}
    speedups = {
        name: timings[f"{name}_ode_solution"] / timings[f"{name}_reader"]
        for name in readers
    }
    record(
        benchmark,
        **micros,
        **{f"{name}_speedup": value for name, value in speedups.items()},
    )
    record_wall_times(
        "dense_reads",
        timings,
        extra={
            "us_per_read": micros,
            "speedup": speedups,
            "reads": len(READ_TIMES),
            "repeats": READ_REPEATS,
        },
        path=COMPILED_PATH,
    )
