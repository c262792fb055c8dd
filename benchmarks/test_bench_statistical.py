"""A2 — analytic (Kolmogorov) vs statistical (Monte-Carlo) checking.

The paper's algorithms solve small ODE systems; the obvious alternative
is sampling.  This bench compares accuracy and runtime of the two on the
same until probability: the analytic route wins by orders of magnitude
at matched accuracy, which is the practical argument for fluid model
checking.
"""

import numpy as np

from benchmarks.conftest import record
from repro.checking.local import LocalChecker
from repro.checking.statistical import StatisticalChecker
from repro.logic.parser import parse_path

PATH = parse_path("not_infected U[0,1] infected")


def test_analytic_until(benchmark, ctx1):
    # A fresh checker per round: a reused one would answer every round
    # after the first from its path-probability memo.
    def solve():
        return LocalChecker(ctx1).path_probabilities(PATH)

    probs = benchmark(solve)
    record(benchmark, analytic_prob_s1=float(probs[0]))


def test_statistical_until_2000_samples(benchmark, ctx1):
    analytic = LocalChecker(ctx1).path_probabilities(PATH)[0]
    seed = [0]

    def solve():
        seed[0] += 1
        stat = StatisticalChecker(ctx1, samples=2000, seed=seed[0])
        return stat.path_probability(PATH, "s1")

    estimate = benchmark.pedantic(solve, rounds=3, iterations=1)
    lo, hi = estimate.confidence_interval(z=4.0)
    record(
        benchmark,
        statistical_value=estimate.value,
        statistical_stderr=estimate.stderr,
        analytic_value=float(analytic),
        agree=bool(lo <= analytic <= hi),
    )
    print(
        f"\nanalytic={analytic:.4f}, statistical={estimate.value:.4f}"
        f" ± {estimate.stderr:.4f}"
    )
    assert lo <= analytic <= hi


def test_statistical_accuracy_vs_samples(benchmark, ctx1):
    """Error decays ~1/sqrt(samples); the analytic solver is exact."""
    analytic = LocalChecker(ctx1).path_probabilities(PATH)[0]

    def sweep():
        errors = {}
        for samples in (200, 800, 3200):
            stat = StatisticalChecker(ctx1, samples=samples, seed=99)
            estimate = stat.path_probability(PATH, "s1")
            errors[samples] = abs(estimate.value - float(analytic))
        return errors

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record(benchmark, abs_errors=errors)
    print("\nsamples -> |error|:", {k: round(v, 4) for k, v in errors.items()})
