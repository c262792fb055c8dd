"""Formula-optimization benchmark (docs/performance.md §9).

The acceptance workload of ``CheckOptions.formula_optimizations``:

- **identity** (always on): both modes — ``"all"`` and the as-written
  ``"none"`` — return the same cSat set (within crossing-refinement
  tolerance) and the same verdict;
- **speedup** (``REPRO_BENCH_TIMING_GATE=0`` disables): with
  ``"all"`` the showcase cSat and the nested-until check run at least
  :data:`MIN_SPEEDUP` times faster than ``"none"``, at the same
  tolerances.

Both workloads are built so the savings are *per-instance* work that
the context-level transient caches cannot already share: several ``EP``
leaves with different bounds over one nested-until path (the shared
checker memoizes the probability curve), a vacuous leaf whose horizon
differs from the others (the vacuity rewrite skips its solves
entirely), thresholds decidable from goal-chain bounds after one
segment (early exit), and windows the lazy cSat recursion never
materializes.

Wall-times of both modes are appended to ``BENCH_formula_opt.json`` via
:mod:`benchmarks.record`; :func:`benchmarks.record.check_regressions`
flags any configuration that drifts past 1.5x its own median history
(printed, not asserted — shared runners make wall-clock too noisy to
gate on).
"""

import os
import time

import pytest

from benchmarks.conftest import M_EXAMPLE_1, record, record_stats
from benchmarks.record import (
    FORMULA_OPT_PATH,
    check_regressions,
    record_wall_times,
)
from repro.checking import CheckOptions, MFModelChecker
from repro.models.virus import SETTING_1, virus_model

#: Required all-on vs all-off speedup when the timing gate is active.
MIN_SPEEDUP = 2.0
#: Wall-time repetitions per configuration (minimum is kept).
REPS = 3

# Nested path whose probability curve is genuinely time-varying (the
# state-0 inner curve crosses 0.02 at t ≈ 1.43, so the operand sets
# change along the trajectory and the piecewise machinery engages).
NPATH = "P[>=0.02](not_infected U[0,1] infected) U[0,3] active"

# Five EP leaves with *different bounds over the same path* (the shared
# checker memoizes one curve), one expectation boundary to refine, and
# one vacuous leaf (EP<=1) whose until the rewrite pass never solves.
# All leaves keep non-degenerate answers so nothing short-circuits
# eagerly.
SHOWCASE_FORMULA = (
    "E[>=0.15](infected) & "
    f"(EP[<0.4]({NPATH}) | EP[>=0.35]({NPATH}) | EP[<0.38]({NPATH})"
    f" | EP[>=0.3]({NPATH}) | EP[<0.45]({NPATH})) & "
    f"EP[<=1]({NPATH})"
)
SHOWCASE_THETA = 20.0

INNER = "P[>=0.02](not_infected U[0,1] infected)"

# Four nested untils sharing one inner curve; the first threshold
# (0.0003) is decidable from the goal-chain lower bound after a single
# segment (early exit) and the E>=0 / E<=1 / E>1 leaves are vacuous.
NESTED_FORMULA = (
    f"E[>0.1](P[>=0.0003]({INNER} U[0,4] active)) & "
    f"E[>=0](P[>=0.5]({INNER} U[0,5] active)) & "
    f"E[<=1](P[>0.3]({INNER} U[0,6] active)) & "
    f"!E[>1](P[<0.6]({INNER} U[0,7] active))"
)

# All on and all off — same pair as
# tests/checking/test_formula_opt_equivalence.py.
CONFIGS = (("all", "all"), ("none", "none"))


def _timing_gate() -> bool:
    return os.environ.get("REPRO_BENCH_TIMING_GATE", "1") != "0"


def _print_flags(name: str) -> None:
    for flag in check_regressions(name, path=FORMULA_OPT_PATH):
        print(f"\nREGRESSION FLAG: {flag}")


def _checker(enabled):
    return MFModelChecker(
        virus_model(SETTING_1),
        CheckOptions(formula_optimizations=enabled),
    )


def _run_matrix(evaluate, reps: int = REPS):
    """Best-of-``reps`` wall time per configuration, with fresh caches.

    ``evaluate(checker, ctx)`` performs the workload once.  Every
    repetition builds a new checker and context so no transient cache
    survives between measurements — the point is to compare cold-start
    work, which is what a user-facing query pays.

    Returns ``(timings, answers, stats)`` keyed by configuration id;
    ``stats`` holds the :class:`~repro.instrumentation.EvalStats` of the
    fastest repetition.
    """
    timings, answers, stats = {}, {}, {}
    for cid, enabled in CONFIGS:
        best, best_answer, best_stats = float("inf"), None, None
        for _ in range(reps):
            checker = _checker(enabled)
            ctx = checker.context(M_EXAMPLE_1)
            start = time.perf_counter()
            answer = evaluate(checker, ctx)
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best, best_answer, best_stats = elapsed, answer, ctx.stats
        timings[cid] = best
        answers[cid] = best_answer
        stats[cid] = best_stats
    return timings, answers, stats


def _work_counters(stats) -> dict:
    return {
        "rewrites_applied": int(stats.rewrites_applied),
        "formula_memo_hits": int(stats.formula_memo_hits),
        "early_exits": int(stats.early_exits),
        "segments_skipped": int(stats.segments_skipped),
        "solve_ivp_calls": int(stats.solve_ivp_calls),
    }


def test_showcase_csat_ablation(benchmark):
    """cSat of the showcase formula: ≥ 2x over eager, identical set."""

    def evaluate(checker, ctx):
        return checker.conditional_sat(
            SHOWCASE_FORMULA, M_EXAMPLE_1, SHOWCASE_THETA, ctx=ctx
        )

    timings, answers, stats = _run_matrix(evaluate)

    # pytest-benchmark record for the headline (all-on) configuration.
    opt_checker = _checker("all")

    def run_all():
        return opt_checker.conditional_sat(
            SHOWCASE_FORMULA,
            M_EXAMPLE_1,
            SHOWCASE_THETA,
            ctx=opt_checker.context(M_EXAMPLE_1),
        )

    benchmark.pedantic(run_all, rounds=3, iterations=1)

    eager = answers["none"]
    assert eager.intervals, "workload degenerated to an empty answer"
    for cid, got in answers.items():
        assert got.approx_equal(eager, tol=1e-6), (
            cid,
            got.intervals,
            eager.intervals,
        )
    # The optimizations must actually have run in the all-on pass.
    assert stats["all"].rewrites_applied > 0
    assert stats["all"].formula_memo_hits > 0
    assert stats["none"].rewrites_applied == 0

    speedup = timings["none"] / timings["all"]
    record(
        benchmark,
        speedup_all_vs_none=speedup,
        csat=[list(iv) for iv in eager.intervals],
        **{f"wall_{cid}_s": t for cid, t in timings.items()},
    )
    record_stats(benchmark, stats["all"])
    record_wall_times(
        "formula_opt_showcase_csat",
        timings,
        extra={
            "speedup_all_vs_none": speedup,
            "csat": [list(iv) for iv in eager.intervals],
            "counters_all": _work_counters(stats["all"]),
            "counters_none": _work_counters(stats["none"]),
        },
        path=FORMULA_OPT_PATH,
    )
    _print_flags("formula_opt_showcase_csat")
    ordering = ", ".join(
        f"{cid} {timings[cid] * 1e3:.0f}ms"
        for cid, _ in CONFIGS
    )
    print(f"\nshowcase cSat ablation: {ordering}")
    print(f"speedup all vs none: {speedup:.2f}x, cSat = {eager}")
    if _timing_gate():
        assert speedup >= MIN_SPEEDUP, (
            f"showcase cSat speedup {speedup:.2f}x "
            f"(required {MIN_SPEEDUP:g}x; all={timings['all']:.3f}s, "
            f"none={timings['none']:.3f}s)"
        )


def test_nested_until_check_ablation(benchmark):
    """Nested-until verdict: ≥ 2x over eager, verdict identical."""

    def evaluate(checker, ctx):
        return checker.check(NESTED_FORMULA, M_EXAMPLE_1, ctx=ctx)

    timings, answers, stats = _run_matrix(evaluate)

    opt_checker = _checker("all")

    def run_all():
        return opt_checker.check(
            NESTED_FORMULA,
            M_EXAMPLE_1,
            ctx=opt_checker.context(M_EXAMPLE_1),
        )

    benchmark.pedantic(run_all, rounds=3, iterations=1)

    eager = answers["none"]
    assert isinstance(eager, bool)
    for cid, got in answers.items():
        assert got is eager, (cid, got, eager)
    # Early exit and segment skipping must have fired under "all", and
    # must be structurally impossible under "none".
    assert stats["all"].early_exits >= 1
    assert stats["all"].segments_skipped >= 1
    assert stats["none"].early_exits == 0
    assert stats["none"].segments_skipped == 0

    speedup = timings["none"] / timings["all"]
    record(
        benchmark,
        speedup_all_vs_none=speedup,
        verdict=eager,
        **{f"wall_{cid}_s": t for cid, t in timings.items()},
    )
    record_stats(benchmark, stats["all"])
    record_wall_times(
        "formula_opt_nested_until_check",
        timings,
        extra={
            "speedup_all_vs_none": speedup,
            "verdict": eager,
            "counters_all": _work_counters(stats["all"]),
            "counters_none": _work_counters(stats["none"]),
        },
        path=FORMULA_OPT_PATH,
    )
    _print_flags("formula_opt_nested_until_check")
    ordering = ", ".join(
        f"{cid} {timings[cid] * 1e3:.0f}ms"
        for cid, _ in CONFIGS
    )
    print(f"\nnested-until ablation: {ordering}")
    print(f"speedup all vs none: {speedup:.2f}x, verdict = {eager}")
    if _timing_gate():
        assert speedup >= MIN_SPEEDUP, (
            f"nested-until speedup {speedup:.2f}x "
            f"(required {MIN_SPEEDUP:g}x; all={timings['all']:.3f}s, "
            f"none={timings['none']:.3f}s)"
        )
