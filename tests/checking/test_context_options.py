"""Tests for EvaluationContext and CheckOptions."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.checking.context import EvaluationContext
from repro.checking.options import CheckOptions
from repro.exceptions import InvalidOccupancyError, ModelError


class TestCheckOptions:
    def test_defaults_valid(self):
        options = CheckOptions()
        assert options.until_method == "auto"
        assert options.curve_method == "propagate"
        assert options.start_convention == "standard"

    def test_fields_are_the_ones_callers_set(self):
        assert [f.name for f in fields(CheckOptions)] == [
            "ode_rtol",
            "ode_atol",
            "grid_points",
            "until_method",
            "curve_method",
            "transient_method",
            "matrix_backend",
            "propagator_tol",
            "start_convention",
            "deadline",
            "max_solves",
            "max_refinements",
            "max_memory_mb",
            "formula_optimizations",
        ]
        assert not hasattr(CheckOptions, "with_")

    def test_signature_names_every_answer_shaping_field(self):
        names = [
            part.split("=")[0]
            for part in CheckOptions().signature().split(";")
        ]
        assert len(names) == 12
        assert "deadline" not in names and "max_solves" not in names

    def test_replace_revalidates(self):
        options = replace(CheckOptions(), grid_points=65)
        assert options.grid_points == 65
        assert options.ode_rtol == CheckOptions().ode_rtol
        with pytest.raises(ModelError, match="grid_points"):
            replace(options, grid_points=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_points": 2},
            {"until_method": "bogus"},
            {"curve_method": "bogus"},
            {"start_convention": "bogus"},
            {"ode_rtol": 0.0},
            {"ode_atol": -1.0},
            {"propagator_tol": -1.0},
            {"curve_method": "cells"},
            {"transient_method": "propagator"},
            # Mistyped fields (as a JSON request may carry them).
            {"propagator_tol": "1e-6"},
            {"ode_rtol": "1e-8"},
            {"grid_points": "129"},
            {"max_memory_mb": "5"},
            {"ode_atol": None},
            {"matrix_backend": "csr"},
            {"grid_points": True},
            {"grid_points": 129.0},
            {"max_solves": 2.5},
            {"until_method": ["auto"]},
            {"formula_optimizations": ["vacuity", "dedup"]},
            # Non-finite limits and tolerances.
            {"ode_rtol": float("nan")},
            {"propagator_tol": float("nan")},
            {"max_refinements": float("nan")},
            {"deadline": float("nan")},
            {"max_memory_mb": float("nan")},
            {"ode_atol": float("inf")},
            {"deadline": float("inf")},
            {"max_memory_mb": float("inf")},
            # Would freeze time-varying operand sets at t = 0.
            {"until_method": "simple"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ModelError, match=next(iter(kwargs))):
            CheckOptions(**kwargs)

    def test_nan_tolerance_rejected_before_any_work(self):
        with pytest.raises(ModelError, match="ode_rtol must be finite"):
            CheckOptions(ode_rtol=float("nan"))

    def test_frozen(self):
        with pytest.raises(Exception):
            CheckOptions().grid_points = 5


class TestEvaluationContext:
    def test_initial_normalized_copy(self, virus1):
        raw = [0.8, 0.15, 0.05]
        ctx = EvaluationContext(virus1, raw)
        assert ctx.initial.sum() == pytest.approx(1.0)
        assert ctx.num_states == 3

    def test_invalid_initial_rejected(self, virus1):
        with pytest.raises(InvalidOccupancyError):
            EvaluationContext(virus1, [0.5, 0.1, 0.1])

    def test_trajectory_cached(self, ctx1):
        assert ctx1.trajectory is ctx1.trajectory

    def test_occupancy_evolves(self, ctx1):
        m0 = ctx1.occupancy(0.0)
        m5 = ctx1.occupancy(5.0)
        assert not np.allclose(m0, m5)

    def test_generator_function_tracks_trajectory(self, ctx1):
        q_of_t = ctx1.generator_function()
        assert q_of_t(0.0)[0, 1] == pytest.approx(0.9 * 0.05 / 0.8)

    def test_steady_state_cached_and_correct(self, ctx1):
        steady = ctx1.steady_state()
        assert np.allclose(steady, [1.0, 0.0, 0.0], atol=1e-6)
        # Returned arrays are copies: mutating one must not leak.
        steady[0] = 0.0
        assert ctx1.steady_state()[0] == pytest.approx(1.0, abs=1e-6)

    def test_steady_context_is_fixed_point(self, ctx1):
        sctx = ctx1.steady_context()
        m0 = sctx.occupancy(0.0)
        m9 = sctx.occupancy(9.0)
        assert np.allclose(m0, m9, atol=1e-7)

    def test_steady_context_cached(self, ctx1):
        assert ctx1.steady_context() is ctx1.steady_context()

    def test_options_are_fixed_at_construction(self, ctx1):
        """Every cache of a context was filled under its options, so
        assigning new ones is refused rather than left stale."""
        options = ctx1.options
        with pytest.raises(AttributeError):
            ctx1.options = replace(ctx1.options, ode_rtol=1e-6)
        assert ctx1.options is options
