"""Tests for the MF-CSL checker (Section V-A)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.checking import CheckOptions, MFModelChecker
from repro.checking.global_ import Verdict
from repro.exceptions import FormulaError, InvalidOccupancyError
from repro.logic.parser import parse_mfcsl
from repro.models.virus import SETTING_1, SETTING_2, virus_model

M_E1 = (0.8, 0.15, 0.05)
M_E6 = (0.85, 0.1, 0.05)
M_HEAVY = (0.1, 0.5, 0.4)
PSI1 = "E[>0.8](P[>0.9](infected U[0,15] (P[>0.8](tt U[0,0.5] infected))))"
E6 = f"{PSI1} & E[<0.1](active)"
PHI1 = {"start_convention": "phi1"}
NESTED = {"until_method": "nested"}

#: ``(setting, options, formula, occupancy)``: every formula the paper
#: tests and the paper's benchmark queries check (cSat formulas checked
#: at t = 0), plus vacuous bounds the rewrite folds, at the top and
#: inside a leaf.
VERDICT_CASES = [
    (SETTING_1, {}, "EP[<0.3](not_infected U[0,1] infected)", M_E1),
    (SETTING_1, PHI1, "EP[<0.3](not_infected U[0,1] infected)", M_E1),
    (SETTING_1, {}, "tt", M_E1),
    (SETTING_2, {}, "E[<0.1](active)", M_E6),
    (SETTING_2, {}, PSI1, M_E6),
    (SETTING_2, {}, E6, M_E6),
    (SETTING_2, NESTED, E6, M_E6),
    (SETTING_2, {}, "E[>0.1](P[>0.8](tt U[0,0.5] infected))", M_E6),
    (SETTING_1, {}, "E[>0.8](infected)", M_HEAVY),
    (SETTING_1, {}, "E[>0.8](infected)", M_E1),
    (SETTING_1, {}, "E[>0.8](infected)", (0.2, 0.5, 0.3)),
    (SETTING_1, {}, "E[>=0.8](infected)", (0.2, 0.5, 0.3)),
    (SETTING_1, {}, "ES[>=0.1](infected)", M_E1),
    (SETTING_2, {}, "ES[>=0.1](infected)", M_E6),
    (SETTING_1, {}, "EP[<0.4](infected U[0,5] not_infected)", M_E1),
    (SETTING_1, {}, "E[>=0](infected)", M_E1),
    (SETTING_1, {}, "EP[>1](not_infected U[0,1] infected)", M_E1),
    (SETTING_1, {}, "E[>0.5](P[>=0](not_infected U[0,1] infected))", M_E1),
    (SETTING_1, {}, "!E[>0.3](infected) | EP[<0](tt U[0,1] infected)", M_E1),
]


@pytest.fixture
def checker(virus1) -> MFModelChecker:
    return MFModelChecker(virus1)


class TestBooleanLayer:
    def test_tt_always_holds(self, checker, m_example1):
        assert checker.check("tt", m_example1)

    def test_negation(self, checker, m_example1):
        assert not checker.check("!tt", m_example1)
        assert checker.check("!!tt", m_example1)

    def test_conjunction_and_disjunction(self, checker, m_example1):
        assert checker.check("tt & tt", m_example1)
        assert not checker.check("tt & ff", m_example1)
        assert checker.check("tt | ff", m_example1)
        assert not checker.check("ff | ff", m_example1)

    def test_ast_input_accepted(self, checker, m_example1):
        formula = parse_mfcsl("E[>0.5](not_infected)")
        assert checker.check(formula, m_example1)


class TestExpectationOperator:
    def test_fraction_of_label(self, checker, m_example1):
        # m = (0.8, 0.15, 0.05): infected fraction 0.2.
        assert checker.check("E[>0.1](infected)", m_example1)
        assert not checker.check("E[>0.3](infected)", m_example1)
        assert checker.check("E[<=0.2](infected)", m_example1)

    def test_value(self, checker, m_example1):
        assert checker.value("E[>0](infected)", m_example1) == pytest.approx(0.2)
        assert checker.value("E[>0](active)", m_example1) == pytest.approx(0.05)

    def test_value_matches_python_sum_on_deep_model(self):
        from repro.models import MODEL_REGISTRY

        model = MODEL_REGISTRY["loadbalance-deep"]()
        k = model.num_states
        occupancy = 0.70 ** np.arange(k, dtype=float)
        occupancy /= occupancy.sum()
        checker = MFModelChecker(model)
        for label in ("busy", "idle"):
            sat = model.local.states_with_label(label)
            expected = sum(occupancy[j] for j in sat)
            value = checker.value(f"E[>0]({label})", occupancy)
            assert value == pytest.approx(expected, abs=1e-15)

    def test_paper_showcase_formula_1(self, checker):
        """E_{>0.8}(infected): the system counts as infected."""
        badly_infected = np.array([0.1, 0.5, 0.4])
        assert checker.check("E[>0.8](infected)", badly_infected)
        assert not checker.check("E[>0.8](infected)", np.array([0.3, 0.4, 0.3]))

    def test_nested_probability_inside_expectation(self, checker, m_example1):
        # Every infected state satisfies the until with probability one.
        psi = "E[>=0.2](P[>0.99](tt U[0,1] infected))"
        assert checker.check(psi, m_example1)


class TestExpectedProbabilityOperator:
    def test_paper_example_1_standard(self, checker, m_example1):
        psi = "EP[<0.3](not_infected U[0,1] infected)"
        assert checker.check(psi, m_example1)
        value = checker.value(psi, m_example1)
        # standard semantics: infected states contribute their mass
        assert value == pytest.approx(0.2339, abs=2e-3)

    def test_paper_example_1_phi1_convention(self, virus1, m_example1):
        paper = MFModelChecker(
            virus1, CheckOptions(start_convention="phi1")
        )
        value = paper.value(
            "EP[<0.3](not_infected U[0,1] infected)", m_example1
        )
        # 0.8 * Prob(s1) with Prob(s1) ≈ 0.042 under the printed Table II.
        assert value == pytest.approx(0.8 * 0.04236, abs=2e-3)

    def test_ep_with_next(self, checker, m_example1):
        assert checker.check("EP[<0.9](X[0,1] infected)", m_example1)


class TestExpectedSteadyStateOperator:
    def test_setting1_virus_dies(self, checker, m_example1):
        """The paper's showcase ES_{>=0.1}(infected) is FALSE in Setting 1
        because the fluid limit converges to everyone clean."""
        assert not checker.check("ES[>=0.1](infected)", m_example1)
        assert checker.check("ES[>=0.99](not_infected)", m_example1)

    def test_value_independent_of_occupancy(self, checker):
        v1 = checker.value("ES[>0](not_infected)", np.array([0.8, 0.15, 0.05]))
        v2 = checker.value("ES[>0](not_infected)", np.array([0.3, 0.3, 0.4]))
        assert v1 == pytest.approx(v2, abs=1e-5)


class TestDiagnostics:
    def test_value_rejects_compound_formula(self, checker, m_example1):
        with pytest.raises(FormulaError):
            checker.value("tt & E[>0](infected)", m_example1)

    def test_explain_lists_leaves(self, checker, m_example1):
        report = checker.explain(
            "E[>0.8](infected) & !EP[<0.3](not_infected U[0,1] infected)",
            m_example1,
        )
        assert len(report) == 2
        texts = [row[0] for row in report]
        assert any("E[>0.8]" in t for t in texts)
        assert report[0][1] == pytest.approx(0.2)  # infected fraction
        assert report[0][2] is False

    def test_explain_reuses_the_check_context(self, virus2, m_example2):
        checker = MFModelChecker(virus2)
        ctx = checker.context(m_example2)
        assert not checker.check_detailed(E6, m_example2, ctx=ctx)
        solves = ctx.stats.solve_ivp_calls
        assert solves > 0
        report = checker.explain(E6, m_example2, ctx=ctx)
        assert [holds for _, _, holds in report] == [False, True]
        assert ctx.stats.solve_ivp_calls == solves

    def test_invalid_occupancy_rejected(self, checker):
        with pytest.raises(InvalidOccupancyError):
            checker.check("tt", np.array([0.5, 0.2, 0.1]))


class TestCurves:
    def test_expected_probability_curve(self, checker, m_example1):
        g = checker.expected_probability_curve(
            "not_infected U[0,1] infected", m_example1, theta=10.0
        )
        assert g(0.0) == pytest.approx(0.2339, abs=2e-3)
        # Setting 1 decays: infected mass shrinks, curve decreases.
        assert g(10.0) < g(0.0)

    def test_expectation_curve(self, checker, m_example1):
        g = checker.expectation_curve("infected", m_example1, theta=10.0)
        assert g(0.0) == pytest.approx(0.2)
        assert g(10.0) < 0.2

    def test_local_probability_curve(self, checker, m_example1):
        curve = checker.local_probability_curve(
            "not_infected U[0,1] infected", m_example1, theta=5.0
        )
        assert curve.value(0.0, 0) == pytest.approx(0.0424, abs=2e-3)


class TestVerdict:
    def test_verdict_is_two_valued(self):
        assert [f.name for f in fields(Verdict)] == ["holds", "value", "margin"]
        assert bool(Verdict(holds=True)) is True
        # A frozen dataclass would always be truthy without __bool__.
        assert bool(Verdict(holds=False, value=0.2, margin=0.05)) is False

    def test_leaf_verdict_reports_value_and_margin(self, checker, m_example1):
        verdict = checker.check_detailed("E[>0.25](infected)", m_example1)
        assert verdict.holds is False
        assert not verdict
        assert verdict.value == pytest.approx(0.2)
        assert verdict.margin == pytest.approx(0.05)
        verdict = checker.check_detailed("E[<0.25](infected)", m_example1)
        assert verdict.holds is True
        assert verdict

    def test_compound_verdict_carries_no_value(self, checker, m_example1):
        verdict = checker.check_detailed(
            "E[>0.05](infected) & E[>0.25](infected)", m_example1
        )
        assert verdict == Verdict(holds=False)

    @pytest.mark.parametrize("mode", ["all", "none"])
    @pytest.mark.parametrize(
        "setting, options, formula, occupancy",
        VERDICT_CASES,
        ids=[f"{i}" for i in range(len(VERDICT_CASES))],
    )
    def test_detailed_holds_matches_check(
        self, setting, options, formula, occupancy, mode
    ):
        checker = MFModelChecker(
            virus_model(setting),
            CheckOptions(formula_optimizations=mode, **options),
        )
        occ = np.array(occupancy)
        verdict = checker.check_detailed(formula, occ)
        assert verdict.holds is checker.check(formula, occ)
        if verdict.value is not None:
            assert verdict.value == pytest.approx(
                checker.value(formula, occ), abs=1e-12
            )
