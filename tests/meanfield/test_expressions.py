"""Tests for the declarative rate-expression language."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.meanfield.expressions import (
    Binary,
    Const,
    GuardedDiv,
    Occupancy,
    Time,
    from_dict,
    is_constant,
)

M = np.array([0.5, 0.3, 0.2])


class TestEvaluation:
    def test_const(self):
        assert Const(2.5)(M) == 2.5

    def test_occupancy(self):
        assert Occupancy(1)(M) == 0.3

    def test_time(self):
        assert Time()(M, 7.0) == 7.0
        assert Time()(M) == 0.0

    def test_arithmetic(self):
        expr = Const(2.0) * Occupancy(0) + Occupancy(2) - 0.1
        assert expr(M) == pytest.approx(2.0 * 0.5 + 0.2 - 0.1)

    def test_right_hand_operators(self):
        assert (1.0 + Occupancy(0))(M) == 1.5
        assert (2.0 * Occupancy(0))(M) == 1.0
        assert (1.0 - Occupancy(0))(M) == 0.5
        assert (1.0 / Occupancy(0))(M) == 2.0

    def test_power(self):
        assert (Occupancy(0) ** 2)(M) == 0.25

    def test_min_max(self):
        assert Occupancy(0).min_with(0.1)(M) == 0.1
        assert Occupancy(0).max_with(0.9)(M) == 0.9

    def test_division_by_zero_raises(self):
        expr = Const(1.0) / Occupancy(0)
        with pytest.raises(ModelError):
            expr(np.array([0.0, 1.0]))

    def test_guarded_division(self):
        expr = Occupancy(1).guarded_div(Occupancy(0), floor=1e-6)
        assert expr(np.array([0.0, 1.0])) == pytest.approx(1.0 / 1e-6)
        assert expr(M) == pytest.approx(0.3 / 0.5)

    def test_paper_smart_virus_rate(self):
        rate = Const(0.9) * Occupancy(2).guarded_div(Occupancy(0))
        assert rate(np.array([0.8, 0.15, 0.05])) == pytest.approx(
            0.9 * 0.05 / 0.8
        )


class TestValidation:
    def test_const_rejects_nan(self):
        with pytest.raises(ModelError):
            Const(float("nan"))

    def test_occupancy_rejects_negative_index(self):
        with pytest.raises(ModelError):
            Occupancy(-1)

    def test_occupancy_out_of_range_at_evaluation(self):
        with pytest.raises(ModelError):
            Occupancy(5)(M)

    def test_binary_rejects_unknown_op(self):
        with pytest.raises(ModelError):
            Binary("xor", Const(1), Const(2))

    def test_guard_floor_positive(self):
        with pytest.raises(ModelError):
            GuardedDiv(Const(1), Const(1), floor=0.0)


class TestSerialization:
    EXAMPLES = [
        Const(1.5),
        Occupancy(2),
        Time(),
        Const(0.9) * Occupancy(2).guarded_div(Occupancy(0)),
        (Occupancy(0) + Occupancy(1)) ** 2,
        Occupancy(0).min_with(Time() * 0.5),
    ]

    @pytest.mark.parametrize("expr", EXAMPLES)
    def test_round_trip(self, expr):
        rebuilt = from_dict(expr.to_dict())
        assert rebuilt == expr
        assert rebuilt(M, 3.0) == pytest.approx(expr(M, 3.0))

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ModelError):
            from_dict({"op": "teleport"})
        with pytest.raises(ModelError):
            from_dict("not a dict")

    def test_equality_and_hash(self):
        a = Const(2.0) * Occupancy(1)
        b = Const(2.0) * Occupancy(1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Const(2.0) * Occupancy(0)


class TestAnalysis:
    def test_is_constant(self):
        assert is_constant(Const(1.0) * 2.0 + 3.0)
        assert not is_constant(Occupancy(0) + 1.0)
        assert not is_constant(Time())


class TestAsModelRates:
    def test_expression_rates_in_local_model(self):
        from repro.meanfield.local_model import LocalModel

        local = LocalModel(
            ("a", "b"),
            {
                ("a", "b"): Const(1.0) * Occupancy(1) + 0.1,
                ("b", "a"): Const(0.5),
            },
            {"a": ["low"], "b": ["high"]},
        )
        q = local.generator(np.array([0.4, 0.6]))
        assert q[0, 1] == pytest.approx(0.7)
        assert q[1, 0] == 0.5
        # Constant expressions are recognized for the homogeneity flag.
        assert not local.is_homogeneous  # the a->b rate varies
        const_only = LocalModel(
            ("a", "b"), {("a", "b"): Const(1.0) + 1.0}, {}
        )
        assert const_only.is_homogeneous

    def test_time_dependent_expression_rate(self):
        from repro.meanfield.local_model import LocalModel

        local = LocalModel(
            ("a", "b"),
            {("a", "b"): Const(1.0) + Time() * 0.5},
            {},
        )
        q0 = local.generator(np.array([1.0, 0.0]), t=0.0)
        q2 = local.generator(np.array([1.0, 0.0]), t=2.0)
        assert q0[0, 1] == 1.0
        assert q2[0, 1] == 2.0
