"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

# Strict-numerics CI mode: with REPRO_STRICT_NUMERICS set, silent
# NaN/Inf propagation becomes FloatingPointError at the operation that
# produced it, so the whole suite doubles as a non-finite regression
# gate (CI pairs this with ``-W error::RuntimeWarning``).  Underflow
# stays at its default — gradual underflow is benign and routine inside
# scipy's step-size control.  Set at import time so it also covers
# module-level code and fork-based worker processes.
if os.environ.get("REPRO_STRICT_NUMERICS"):
    np.seterr(divide="raise", over="raise", invalid="raise")

from repro.checking import CheckOptions, EvaluationContext
from repro.meanfield import MeanFieldModel
from repro.meanfield.local_model import LocalModelBuilder
from repro.models.virus import SETTING_1, SETTING_2, virus_model


@pytest.fixture
def virus1() -> MeanFieldModel:
    """The paper's virus model, Table II Setting 1."""
    return virus_model(SETTING_1)


@pytest.fixture
def virus2() -> MeanFieldModel:
    """The paper's virus model, Table II Setting 2."""
    return virus_model(SETTING_2)


@pytest.fixture
def m_example1() -> np.ndarray:
    """The occupancy vector of the paper's first worked example."""
    return np.array([0.8, 0.15, 0.05])


@pytest.fixture
def m_example2() -> np.ndarray:
    """The occupancy vector of the paper's nested worked example."""
    return np.array([0.85, 0.1, 0.05])


@pytest.fixture
def ctx1(virus1, m_example1) -> EvaluationContext:
    """Evaluation context of Example 1."""
    return EvaluationContext(virus1, m_example1)


@pytest.fixture
def ctx2(virus2, m_example2) -> EvaluationContext:
    """Evaluation context of Example 2."""
    return EvaluationContext(virus2, m_example2)


@pytest.fixture
def homogeneous_model() -> MeanFieldModel:
    """A 3-state mean-field model with constant rates.

    Used by the cross-validation tests: on such a model the
    time-inhomogeneous checkers must agree with the classical
    uniformization-based CSL algorithms.
    """
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


@pytest.fixture
def fast_options() -> CheckOptions:
    """Loosened numerical options to keep slow tests quick."""
    return CheckOptions(ode_rtol=1e-6, ode_atol=1e-9, grid_points=33)


@pytest.fixture
def on_fresh_thread():
    """Run ``fn(*args)`` on a new thread and return its result.

    The new thread's stack is as shallow as a fresh ``mfcsl`` process
    or a server request thread, not as deep as the test runner's —
    which matters for inputs probing the interpreter's recursion limit.
    """

    def run(fn, *args):
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(fn, *args).result()

    return run
