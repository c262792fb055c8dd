"""Curve-method benchmark — the window-shift ODE vs per-time recomputation.

Two workloads, each a probability curve sampled at 96 evaluation times:
a nested (time-varying-set) until and a simple until over ``[0.5, 2]``.
``curve_method="propagate"`` (the production default) advances the
reachability matrices through evaluation time by the window-shift ODE
of Equations (6)/(12); ``"recompute"`` pays fresh Kolmogorov
``solve_ivp`` integrations at every evaluation time and is the
reference.

Gate (always on): the propagate and recompute curves agree to
:data:`ACCURACY_TOL`.  Wall-times are recorded but not gated: the
propagate/recompute ratio spreads too widely from run to run for a
floor to mean anything.

Wall-times of every run are appended to ``BENCH_propagators.json`` via
:mod:`benchmarks.record` for cheap cross-run history.
"""

import time

import numpy as np

from benchmarks.conftest import M_EXAMPLE_1, M_EXAMPLE_2, record, record_stats
from benchmarks.record import record_wall_times
from repro.checking.context import EvaluationContext
from repro.checking.nested import TimeVaryingUntil
from repro.checking.options import CheckOptions
from repro.checking.reachability import SimpleUntilCurve
from repro.checking.satsets import Piece, PiecewiseSatSet
from repro.logic.ast import TimeInterval

#: Largest tolerated propagate-vs-recompute deviation.
ACCURACY_TOL = 1e-6
THETA, UPPER = 8.0, 6.0
#: 96 evaluation times — the "many query times" regime.
EVAL_TIMES = np.linspace(0.0, THETA, 96)

NOT_INFECTED = frozenset({0})
INFECTED = frozenset({1, 2})


def _nested_sets(hi: float):
    """Γ1 constant, Γ2 flipping twice — a genuinely time-varying until."""
    g1 = PiecewiseSatSet.constant(frozenset({0, 1}), 0.0, hi)
    g2 = PiecewiseSatSet(
        [
            Piece(0.0, 4.7, frozenset({2})),
            Piece(4.7, 9.3, frozenset({1, 2})),
            Piece(9.3, hi, frozenset({2})),
        ]
    )
    return g1, g2


def _nested_curve_values(model, occupancy, method: str):
    """Build a fresh context + solver and sample the curve; return
    (values, wall-time, stats)."""
    ctx = EvaluationContext(
        model, occupancy, options=CheckOptions(curve_method=method)
    )
    hi = THETA + UPPER
    solver = TimeVaryingUntil(
        ctx, *_nested_sets(hi), TimeInterval(0, UPPER), theta=THETA
    )
    start = time.perf_counter()
    curve = solver.curve(method=method)
    values = curve.values_many(EVAL_TIMES)
    elapsed = time.perf_counter() - start
    return values, elapsed, ctx.stats


def test_nested_until_propagate_vs_recompute(benchmark, virus2):
    """The headline comparison: 96-query nested until, Appendix ODE (12)
    vs per-time goal-chain products."""
    slow_values, slow_time, _ = _nested_curve_values(
        virus2, M_EXAMPLE_2, "recompute"
    )

    def run_propagate():
        return _nested_curve_values(virus2, M_EXAMPLE_2, "propagate")

    fast_values, fast_time, stats = benchmark.pedantic(
        run_propagate, rounds=3, iterations=1
    )

    deviation = float(np.max(np.abs(fast_values - slow_values)))
    speedup = slow_time / fast_time
    record(
        benchmark,
        max_abs_deviation=deviation,
        speedup=speedup,
        recompute_s=slow_time,
        propagate_s=fast_time,
        eval_times=len(EVAL_TIMES),
    )
    record_stats(benchmark, stats)
    record_wall_times(
        "nested_until_propagate_vs_recompute",
        {"propagate": fast_time, "recompute": slow_time},
        extra={
            "speedup": speedup,
            "max_abs_deviation": deviation,
            "eval_times": len(EVAL_TIMES),
        },
    )
    print(
        f"\nnested until x{len(EVAL_TIMES)}: propagate {fast_time:.3f}s, "
        f"recompute {slow_time:.3f}s, speedup {speedup:.1f}x, "
        f"max deviation {deviation:.2e}"
    )
    assert deviation <= ACCURACY_TOL


def test_simple_until_propagate_vs_recompute(benchmark, virus1):
    """Secondary workload: a simple until over ``[0.5, 2]`` at 96 times."""
    interval = TimeInterval(0.5, 2.0)
    theta = 15.0
    ts = np.linspace(0.0, theta, 96)

    def curve_values(method):
        start = time.perf_counter()
        ctx = EvaluationContext(
            virus1, M_EXAMPLE_1, options=CheckOptions(curve_method=method)
        )
        curve = SimpleUntilCurve(
            ctx, NOT_INFECTED, INFECTED, interval, theta, method=method
        )
        values = curve.values_many(ts)
        return values, time.perf_counter() - start, ctx.stats

    slow_values, slow_time, _ = curve_values("recompute")
    fast_values, fast_time, stats = benchmark.pedantic(
        curve_values, args=("propagate",), rounds=3, iterations=1
    )
    deviation = float(np.max(np.abs(fast_values - slow_values)))
    speedup = slow_time / fast_time
    record(
        benchmark,
        max_abs_deviation=deviation,
        speedup=speedup,
        recompute_s=slow_time,
        propagate_s=fast_time,
    )
    record_stats(benchmark, stats)
    record_wall_times(
        "simple_until_propagate_vs_recompute",
        {"propagate": fast_time, "recompute": slow_time},
        extra={"speedup": speedup, "max_abs_deviation": deviation},
    )
    print(
        f"\nsimple until x{len(ts)}: propagate {fast_time:.3f}s, "
        f"recompute {slow_time:.3f}s, speedup {speedup:.1f}x, "
        f"max deviation {deviation:.2e}"
    )
    assert deviation <= ACCURACY_TOL
