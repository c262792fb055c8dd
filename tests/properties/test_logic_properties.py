"""Property-based tests for the logic layer: random formula round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.ast import (
    And,
    Atomic,
    Bound,
    CslTrue,
    Expectation,
    ExpectedProbability,
    ExpectedSteadyState,
    MfAnd,
    MfNot,
    MfOr,
    MfTrue,
    Next,
    Not,
    Or,
    Probability,
    SteadyState,
    TimeInterval,
    Until,
)
from repro.logic.ast import atomic_propositions
from repro.logic.parser import parse_csl, parse_mfcsl
from repro.logic.printer import format_formula
from repro.logic.rewrite import optimize

names = st.sampled_from(["infected", "active", "x", "y_1", "not_infected"])
bounds = st.builds(
    Bound,
    st.sampled_from(["<", "<=", ">", ">="]),
    st.floats(0.0, 1.0, allow_nan=False).map(lambda p: round(p, 4)),
)
intervals = st.tuples(
    st.floats(0.0, 5.0, allow_nan=False).map(lambda x: round(x, 3)),
    st.floats(0.0, 5.0, allow_nan=False).map(lambda x: round(x, 3)),
).map(lambda ab: TimeInterval(min(ab), max(ab)))


def csl_formulas(depth: int = 3):
    base = st.one_of(st.just(CslTrue()), st.builds(Atomic, names))
    if depth == 0:
        return base
    sub = csl_formulas(depth - 1)
    paths = st.one_of(
        st.builds(Until, intervals, sub, sub),
        st.builds(Next, intervals, sub),
    )
    return st.one_of(
        base,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(SteadyState, bounds, sub),
        st.builds(Probability, bounds, paths),
    )


def mfcsl_formulas(depth: int = 2):
    csl = csl_formulas(2)
    paths = st.one_of(
        st.builds(Until, intervals, csl, csl),
        st.builds(Next, intervals, csl),
    )
    base = st.one_of(
        st.just(MfTrue()),
        st.builds(Expectation, bounds, csl),
        st.builds(ExpectedSteadyState, bounds, csl),
        st.builds(ExpectedProbability, bounds, paths),
    )
    if depth == 0:
        return base
    sub = mfcsl_formulas(depth - 1)
    return st.one_of(
        base,
        st.builds(MfNot, sub),
        st.builds(MfAnd, sub, sub),
        st.builds(MfOr, sub, sub),
    )


class TestRoundTrips:
    @given(csl_formulas())
    @settings(max_examples=150, deadline=None)
    def test_csl_parse_inverts_print(self, formula):
        assert parse_csl(format_formula(formula)) == formula

    @given(mfcsl_formulas())
    @settings(max_examples=150, deadline=None)
    def test_mfcsl_parse_inverts_print(self, formula):
        assert parse_mfcsl(format_formula(formula)) == formula

    @given(mfcsl_formulas())
    @settings(max_examples=80, deadline=None)
    def test_printing_is_deterministic(self, formula):
        assert format_formula(formula) == format_formula(formula)

    @given(csl_formulas())
    @settings(max_examples=80, deadline=None)
    def test_formulas_hashable_and_self_equal(self, formula):
        assert formula == formula
        assert hash(formula) == hash(formula)

    @given(mfcsl_formulas())
    @settings(max_examples=80, deadline=None)
    def test_equal_formulas_hash_equal(self, formula):
        clone = parse_mfcsl(format_formula(formula))
        assert clone == formula
        assert hash(clone) == hash(formula)


class TestRewriteProperties:
    """The optimization pass composes with printing, parsing, hashing."""

    @given(mfcsl_formulas())
    @settings(max_examples=150, deadline=None)
    def test_optimize_is_idempotent(self, formula):
        once, _ = optimize(formula)
        twice, _ = optimize(once)
        assert twice == once

    @given(mfcsl_formulas())
    @settings(max_examples=150, deadline=None)
    def test_optimized_formula_round_trips(self, formula):
        opt, _ = optimize(formula)
        assert parse_mfcsl(format_formula(opt)) == opt

    @given(csl_formulas())
    @settings(max_examples=100, deadline=None)
    def test_optimized_csl_round_trips(self, formula):
        opt, _ = optimize(formula)
        assert parse_csl(format_formula(opt)) == opt

    @given(mfcsl_formulas())
    @settings(max_examples=100, deadline=None)
    def test_atomic_propositions_never_grow(self, formula):
        opt, _ = optimize(formula)
        assert atomic_propositions(opt) <= atomic_propositions(formula)

    @given(mfcsl_formulas())
    @settings(max_examples=100, deadline=None)
    def test_optimized_formula_hashable(self, formula):
        opt, _ = optimize(formula)
        assert opt == opt
        hash(opt)
