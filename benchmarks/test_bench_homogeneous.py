"""A5 — inhomogeneous checker vs the classical uniformization baseline.

On a constant-rate model the mean-field checker and the Baier et al.
algorithms must agree exactly; the bench verifies this and compares their
cost (the classical algorithms are faster, which is exactly why the
checker dispatches on homogeneity where it can).
"""

import numpy as np
import pytest

from benchmarks.conftest import record
from repro.checking.context import EvaluationContext
from repro.checking.homogeneous import HomogeneousChecker
from repro.checking.local import LocalChecker
from repro.logic.parser import parse_path
from repro.meanfield import MeanFieldModel
from repro.meanfield.local_model import LocalModelBuilder

PATH = parse_path("(low | mid) U[0.5,3] high")


@pytest.fixture(scope="module")
def constant_model() -> MeanFieldModel:
    builder = (
        LocalModelBuilder()
        .state("a", "low")
        .state("b", "mid")
        .state("c", "high", "goal")
        .transition("a", "b", 1.2)
        .transition("b", "a", 0.4)
        .transition("b", "c", 0.7)
        .transition("c", "b", 0.2)
        .transition("c", "a", 0.1)
    )
    return MeanFieldModel(builder.build())


def test_inhomogeneous_checker_on_constant_model(benchmark, constant_model):
    ctx = EvaluationContext(constant_model, np.array([0.4, 0.3, 0.3]))

    # A fresh checker per round: a reused one would answer every round
    # after the first from its path-probability memo.
    def solve():
        return LocalChecker(ctx).path_probabilities(PATH)

    probs = benchmark(solve)
    record(benchmark, probabilities=probs)


def test_classical_uniformization_checker(benchmark, constant_model):
    q = constant_model.local.constant_generator()
    labels = {
        i: constant_model.local.labels_of(name)
        for i, name in enumerate(constant_model.local.states)
    }
    checker = HomogeneousChecker(q, labels, method="uniformization")

    def solve():
        return checker.path_probabilities(PATH)

    probs = benchmark(solve)
    record(benchmark, probabilities=probs)


def test_agreement(benchmark, constant_model):
    ctx = EvaluationContext(constant_model, np.array([0.4, 0.3, 0.3]))
    q = constant_model.local.constant_generator()
    labels = {
        i: constant_model.local.labels_of(name)
        for i, name in enumerate(constant_model.local.states)
    }

    def compare():
        ours = LocalChecker(ctx).path_probabilities(PATH)
        baseline = HomogeneousChecker(q, labels).path_probabilities(PATH)
        return float(np.abs(ours - baseline).max())

    max_diff = benchmark.pedantic(compare, rounds=1, iterations=1)
    record(benchmark, max_abs_difference=max_diff)
    print(f"\nmax |ours − classical| = {max_diff:.2e}")
    assert max_diff < 1e-6
