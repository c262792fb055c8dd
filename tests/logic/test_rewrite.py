"""Unit tests for the formula-optimization pass (repro.logic.rewrite)."""

import pytest

from repro.exceptions import FormulaError
from repro.logic.ast import (
    And,
    Atomic,
    Bound,
    CslTrue,
    Expectation,
    MfAnd,
    MfNot,
    MfOr,
    MfTrue,
    Not,
    Probability,
    TimeInterval,
    Until,
)
from repro.logic.parser import parse_mfcsl
from repro.logic.rewrite import RewriteReport, optimize

A = Atomic("a")
B = Atomic("b")
I01 = TimeInterval(0.0, 1.0)
E_A = Expectation(Bound(">", 0.5), A)
E_B = Expectation(Bound("<", 0.2), B)


class TestVacuity:
    @pytest.mark.parametrize(
        "bound, verdict",
        [
            (Bound(">=", 0.0), True),
            (Bound("<=", 1.0), True),
            (Bound("<", 0.0), False),
            (Bound(">", 1.0), False),
        ],
    )
    def test_trivially_decided_bounds(self, bound, verdict):
        f, rep = optimize(Expectation(bound, A))
        assert f == (MfTrue() if verdict else MfNot(MfTrue()))
        assert rep.vacuities == 1
        f, _ = optimize(Probability(bound, Until(I01, A, B)))
        assert f == (CslTrue() if verdict else Not(CslTrue()))

    def test_informative_bounds_survive(self):
        for bound in (Bound(">=", 0.1), Bound("<", 1.0), Bound(">", 0.0)):
            f, rep = optimize(Expectation(bound, A))
            assert f == Expectation(bound, A)
            assert rep.vacuities == 0

    def test_vacuity_applies_inside_nested_operators(self):
        g = parse_mfcsl("E[>0.5](P[>=0](a U[0,1] b))")
        f, _ = optimize(g)
        # inner P>=0 -> tt; E[>0.5](tt) is E of a tautology and stays
        # an Expectation over tt (its value is 1, not folded here).
        assert f == Expectation(Bound(">", 0.5), CslTrue())


class TestOptimizeApi:
    def test_no_vacuous_bound_is_identity(self):
        g = MfAnd(MfNot(MfNot(E_A)), MfOr(E_B, MfTrue()))
        f, rep = optimize(g)
        assert f is g
        assert rep.vacuities == 0

    def test_unchanged_children_keep_their_identity(self):
        g = MfAnd(E_A, Expectation(Bound("<=", 1.0), B))
        f, _ = optimize(g)
        assert f == MfAnd(E_A, MfTrue())
        assert f.left is E_A

    def test_report_describe(self):
        assert RewriteReport(vacuities=3).describe() == "3 vacuous bounds"

    def test_unknown_node_raises(self):
        with pytest.raises(FormulaError):
            optimize("E[>0.5](a)")

    def test_parsed_and_constructed_agree(self):
        f1, _ = optimize(parse_mfcsl("E[>0.5](a & P[>=0](a U[0,1] b))"))
        f2, _ = optimize(
            Expectation(
                Bound(">", 0.5),
                And(A, Probability(Bound(">=", 0.0), Until(I01, A, B))),
            )
        )
        assert f1 == f2 == Expectation(Bound(">", 0.5), And(A, CslTrue()))
