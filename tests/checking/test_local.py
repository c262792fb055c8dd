"""Tests for the recursive local CSL checker (Section IV)."""

import numpy as np
import pytest

from repro.checking.context import EvaluationContext
from repro.checking.local import LocalChecker
from repro.checking.options import CheckOptions
from repro.exceptions import FormulaError, InvalidStateError
from repro.logic.parser import parse_csl, parse_path


@pytest.fixture
def checker(ctx1) -> LocalChecker:
    return LocalChecker(ctx1)


class TestBooleanLayer:
    def test_tt(self, checker):
        assert checker.sat_at(parse_csl("tt")) == frozenset({0, 1, 2})

    def test_atomic(self, checker):
        assert checker.sat_at(parse_csl("infected")) == frozenset({1, 2})
        assert checker.sat_at(parse_csl("not_infected")) == frozenset({0})
        assert checker.sat_at(parse_csl("active")) == frozenset({2})

    def test_unknown_label_empty(self, checker):
        assert checker.sat_at(parse_csl("nonexistent")) == frozenset()

    def test_negation(self, checker):
        assert checker.sat_at(parse_csl("!infected")) == frozenset({0})

    def test_conjunction(self, checker):
        assert checker.sat_at(parse_csl("infected & active")) == frozenset({2})

    def test_disjunction(self, checker):
        sat = checker.sat_at(parse_csl("not_infected | active"))
        assert sat == frozenset({0, 2})

    def test_check_by_name_and_index(self, checker):
        assert checker.check(parse_csl("infected"), "s2")
        assert checker.check(parse_csl("infected"), 1)
        assert not checker.check(parse_csl("infected"), "s1")

    def test_bad_state_rejected(self, checker):
        with pytest.raises(InvalidStateError):
            checker.check(parse_csl("tt"), 17)

    def test_non_state_formula_rejected(self, checker):
        with pytest.raises(FormulaError):
            checker.sat_at(parse_path("a U[0,1] b"))


class TestProbabilityOperator:
    def test_threshold_splits_states(self, checker):
        # From s1 the infection probability within 1 unit is ~0.042;
        # infected states satisfy the until trivially (prob 1).
        phi = parse_csl("P[>0.5](not_infected U[0,1] infected)")
        assert checker.sat_at(phi) == frozenset({1, 2})
        phi_low = parse_csl("P[>0.01](not_infected U[0,1] infected)")
        assert checker.sat_at(phi_low) == frozenset({0, 1, 2})

    def test_path_probabilities_values(self, checker):
        probs = checker.path_probabilities(
            parse_path("not_infected U[0,1] infected")
        )
        assert probs[0] == pytest.approx(0.0424, abs=2e-3)
        assert probs[1] == pytest.approx(1.0)

    def test_next_operator(self, checker):
        probs = checker.path_probabilities(parse_path("X[0,1] infected"))
        assert 0 < probs[0] < 0.1  # s1 jumps only into infected states
        assert probs[1] > 0  # s2 can jump to s3 (infected)

    def test_sat_at_later_time(self, checker):
        """Setting 1 decays, so thresholds flip as time advances."""
        phi = parse_csl("P[>0.02](not_infected U[0,1] infected)")
        assert 0 in checker.sat_at(phi, 0.0)
        assert 0 not in checker.sat_at(phi, 10.0)


class TestSatPiecewise:
    def test_time_independent_formula_constant(self, checker):
        sat = checker.sat_piecewise(parse_csl("infected & !active"), 10.0)
        assert sat.is_constant
        assert sat.at(5.0) == frozenset({1})

    def test_probability_formula_switches(self, checker):
        phi = parse_csl("P[>0.02](not_infected U[0,1] infected)")
        sat = checker.sat_piecewise(phi, 15.0)
        assert not sat.is_constant
        assert 0 in sat.at(0.0)
        assert 0 not in sat.at(14.0)
        # boundary is where the probability crosses 0.02
        boundary = sat.boundaries()[0]
        curve = checker.path_curve(
            parse_path("not_infected U[0,1] infected"), 15.0
        )
        assert curve.value(boundary, 0) == pytest.approx(0.02, abs=1e-6)

    def test_caching_returns_same_object(self, checker):
        phi = parse_csl("P[>0.02](not_infected U[0,1] infected)")
        first = checker.sat_piecewise(phi, 15.0)
        second = checker.sat_piecewise(phi, 15.0)
        assert first is second

    def test_boolean_combination_of_timed_sets(self, checker):
        phi = parse_csl(
            "!P[>0.02](not_infected U[0,1] infected) & not_infected"
        )
        sat = checker.sat_piecewise(phi, 15.0)
        assert 0 not in sat.at(0.0)
        assert 0 in sat.at(14.0)


class TestSteadyStateOperator:
    def test_all_or_nothing(self, checker):
        # Setting 1 converges to everyone clean.
        assert checker.sat_at(parse_csl("S[>0.9](not_infected)")) == frozenset(
            {0, 1, 2}
        )
        assert checker.sat_at(parse_csl("S[>0.1](infected)")) == frozenset()

    def test_constant_in_time(self, checker):
        sat = checker.sat_piecewise(parse_csl("S[>0.9](not_infected)"), 5.0)
        assert sat.is_constant


class TestNestedFormulas:
    def test_nested_until_through_parser(self, ctx2):
        checker = LocalChecker(ctx2)
        phi = parse_csl(
            "P[>0.9](infected U[0,15] (P[>0.8](tt U[0,0.5] infected)))"
        )
        sat = checker.sat_at(phi)
        # Under the printed Setting 2 the inner threshold never crosses,
        # so the nested until reduces to infected U[0,15] infected:
        # satisfied (probability 1) exactly by the infected states.
        assert sat == frozenset({1, 2})

    def test_until_method_forcing(self, virus1, m_example1):
        auto_ctx = EvaluationContext(
            virus1, m_example1, CheckOptions(until_method="auto")
        )
        nested_ctx = EvaluationContext(
            virus1, m_example1, CheckOptions(until_method="nested")
        )
        path = parse_path("not_infected U[0,1] infected")
        p_auto = LocalChecker(auto_ctx).path_probabilities(path)
        p_nested = LocalChecker(nested_ctx).path_probabilities(path)
        assert np.allclose(p_auto, p_nested, atol=1e-7)

    def test_auto_matches_nested_on_time_varying_operand(
        self, virus1, m_example1
    ):
        """The left operand set loses s1 between t = 1 and t = 2, so
        ``auto`` must take the nested algorithm; freezing both operand
        sets at t = 0 would read 0.264336."""
        path = parse_path("P[>0.01](tt U[0,0.5] infected) U[0,3] infected")
        values = {}
        for method in ("auto", "nested"):
            ctx = EvaluationContext(
                virus1, m_example1, CheckOptions(until_method=method)
            )
            probs = LocalChecker(ctx).path_probabilities(path)
            values[method] = float(ctx.initial @ probs)
        assert values["auto"] == pytest.approx(0.247905, abs=1e-6)
        assert values["nested"] == pytest.approx(values["auto"], abs=1e-7)
