"""The path-probability memo of :class:`~repro.checking.local.LocalChecker`.

``Prob(·, φ, m̄, t)`` does not depend on the threshold ``p`` of the
``EP``/``P`` operator that reads it, so the checker memoizes the vector
per ``(path, t)``.  Under ``formula_optimizations="all"`` every leaf
of a context shares one checker: re-thresholded leaves, a ``value`` or
``explain`` after a check and nested ``P`` operands read the stored
vector instead of re-running the transient actions — without changing a
single bit of the answer.
"""

import operator
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
import pytest

import repro.checking.local as local_module
from repro.checking import CheckOptions, MFModelChecker
from repro.checking.local import LocalChecker
from repro.logic.parser import parse_csl, parse_path
from repro.meanfield import MeanFieldModel
from repro.models import MODEL_REGISTRY
from repro.models.load_balancing import deep_load_balancing_model
from repro.models.virus import SETTING_1, SETTING_2, virus_model

VIRUS_OCC = np.array([0.8, 0.15, 0.05])
NESTED_OCC = np.array([0.85, 0.1, 0.05])
OPERATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
NO_DEDUP = CheckOptions(formula_optimizations="none")


@dataclass(frozen=True)
class Case:
    model: MeanFieldModel
    occupancy: np.ndarray
    options: Optional[CheckOptions]
    paths: Tuple[str, ...]
    backend: str


def _geometric(model: MeanFieldModel) -> np.ndarray:
    occ = 0.7 ** np.arange(model.num_states, dtype=float)
    return occ / occ.sum()


def _virus1() -> Case:
    return Case(
        virus_model(SETTING_1),
        VIRUS_OCC,
        None,
        ("not_infected U[0,1] infected", "not_infected U[0,2] infected"),
        "dense",
    )


def _deep40_sparse() -> Case:
    model = deep_load_balancing_model(buffer=40)
    return Case(
        model,
        _geometric(model),
        CheckOptions(matrix_backend="sparse"),
        ("busy U[0,0.5] idle", "busy U[0,1] idle"),
        "sparse",
    )


def _loadbalance_deep() -> Case:
    model = MODEL_REGISTRY["loadbalance-deep"]()
    return Case(
        model,
        _geometric(model),
        None,
        ("busy U[0,0.5] idle", "busy U[0,1] idle"),
        "sparse",
    )


CASES = {
    "virus1": _virus1,
    "deep40-sparse": _deep40_sparse,
    "loadbalance-deep": _loadbalance_deep,
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request) -> Case:
    return CASES[request.param]()


@pytest.fixture
def simple_calls(monkeypatch):
    """One list entry per call into ``until_probabilities_simple``."""
    calls = []
    original = local_module.until_probabilities_simple

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(local_module, "until_probabilities_simple", counted)
    return calls


class TestSolveCounts:
    def test_rethresholded_checks_solve_each_path_once(self, case, simple_calls):
        checker = MFModelChecker(case.model, case.options)
        ctx = checker.context(case.occupancy)
        assert ctx.matrix_backend == case.backend
        for path in case.paths:
            value = checker.value(f"EP[>=0]({path})", case.occupancy, ctx=ctx)
            for op, holds in OPERATORS.items():
                for p in (0.25, 0.5):
                    formula = f"EP[{op}{p}]({path})"
                    verdict = checker.check(formula, case.occupancy, ctx=ctx)
                    assert verdict is holds(value, p), formula
        assert len(simple_calls) == len(case.paths)

    def test_check_detailed_solves_a_single_leaf_once(self, case, simple_calls):
        formula = f"EP[<0.5]({case.paths[0]})"
        for mode in ("all", "none"):
            options = replace(
                case.options or CheckOptions(), formula_optimizations=mode
            )
            checker = MFModelChecker(case.model, options)
            ctx = checker.context(case.occupancy)
            simple_calls.clear()
            verdict = checker.check_detailed(formula, case.occupancy, ctx=ctx)
            assert len(simple_calls) == 1, mode
            assert verdict.holds is (verdict.value < 0.5)
            assert verdict.value == checker.value(
                formula, case.occupancy, ctx=ctx
            )
            # Only the shared checker of "all" answers value() from its
            # memo; "none" evaluates every call afresh.
            assert len(simple_calls) == (1 if mode == "all" else 2), mode


class TestMemoContents:
    def test_hit_is_bitwise_equal_to_memo_less_checker(self, case):
        ctx = MFModelChecker(case.model, case.options).context(case.occupancy)
        shared = ctx.local_checker()
        paths = [parse_path(p) for p in case.paths]
        first = [shared.path_probabilities(p) for p in paths]
        hits_before = ctx.stats.formula_memo_hits
        for path, stored in zip(paths, first):
            hit = shared.path_probabilities(path)
            assert hit is stored
            # A fresh checker has an empty memo: it recomputes on the
            # same context (same engines and transient caches).
            recomputed = LocalChecker(ctx).path_probabilities(path)
            assert recomputed is not hit
            np.testing.assert_array_equal(hit, recomputed)
        assert ctx.stats.formula_memo_hits == hits_before + len(paths)

    def test_returned_vector_is_read_only(self, ctx1):
        path = parse_path("not_infected U[0,1] infected")
        checker = ctx1.local_checker()
        miss = checker.path_probabilities(path)
        hit = checker.path_probabilities(path)
        assert hit is miss
        with pytest.raises(ValueError):
            hit[0] = 0.5
        with pytest.raises(ValueError):
            LocalChecker(ctx1).path_probabilities(path)[0] = 0.5

    def test_distinct_times_are_distinct_entries(self, ctx1, simple_calls):
        path = parse_path("not_infected U[0,1] infected")
        checker = ctx1.local_checker()
        at0 = checker.path_probabilities(path, 0.0)
        at2 = checker.path_probabilities(path, 2.0)
        assert len(simple_calls) == 2
        assert not np.array_equal(at0, at2)
        assert checker.path_probabilities(path, 2.0) is at2
        assert len(simple_calls) == 2


class TestResets:
    @pytest.mark.parametrize(
        "reset",
        [lambda ctx: ctx.clear_caches()],
        ids=["clear_caches"],
    )
    def test_reset_forces_a_recompute(self, virus1, reset, simple_calls):
        checker = MFModelChecker(virus1)
        ctx = checker.context(VIRUS_OCC)
        formula = "EP[<0.3](not_infected U[0,1] infected)"
        first = checker.value(formula, VIRUS_OCC, ctx=ctx)
        checker.value(formula, VIRUS_OCC, ctx=ctx)
        assert len(simple_calls) == 1
        reset(ctx)
        again = checker.value(formula, VIRUS_OCC, ctx=ctx)
        assert len(simple_calls) == 2
        assert again == pytest.approx(first, abs=1e-12)


class TestNestedOperands:
    def test_rethresholded_nested_operand_reuses_the_memo(
        self, virus2, simple_calls
    ):
        checker = MFModelChecker(virus2)
        ctx = checker.context(NESTED_OCC)
        strict = checker.check_detailed(
            "E[>0.1](P[>0.8](tt U[0,0.5] infected))", NESTED_OCC, ctx=ctx
        )
        loose = checker.check_detailed(
            "E[>0.1](P[>0.3](tt U[0,0.5] infected))", NESTED_OCC, ctx=ctx
        )
        assert len(simple_calls) == 1
        probs = ctx.local_checker().path_probabilities(
            parse_path("tt U[0,0.5] infected")
        )
        for verdict, p in ((strict, 0.8), (loose, 0.3)):
            expected = sum(NESTED_OCC[s] for s in range(3) if probs[s] > p)
            assert verdict.value == pytest.approx(expected, abs=1e-15)


class TestDedupAblation:
    """The memo rides on the shared checker; under
    ``formula_optimizations="none"`` each leaf gets a fresh checker —
    the answers must not notice either way."""

    FORMULAS = (
        (SETTING_1, VIRUS_OCC, "EP[<0.3](not_infected U[0,1] infected)"),
        (SETTING_1, VIRUS_OCC, "EP[>=0.2](not_infected U[0,1] infected)"),
        (
            SETTING_1,
            VIRUS_OCC,
            "EP[<0.3](not_infected U[0,1] infected) & "
            "!EP[>0.25](not_infected U[0,1] infected)",
        ),
        (SETTING_2, NESTED_OCC, "E[>0.1](P[>0.8](tt U[0,0.5] infected))"),
        (SETTING_2, NESTED_OCC, "E[>0.1](P[>0.3](tt U[0,0.5] infected))"),
        (
            SETTING_2,
            NESTED_OCC,
            "E[>0.8](P[>0.9](infected U[0,15] (P[>0.8](tt U[0,0.5] "
            "infected))))",
        ),
    )

    def _answers(self, options):
        # One context per setting, so the default configuration serves
        # the re-thresholded leaves from the memo.
        contexts = {}
        answers = []
        for setting, occ, formula in self.FORMULAS:
            if id(setting) not in contexts:
                checker = MFModelChecker(virus_model(setting), options)
                contexts[id(setting)] = (checker, checker.context(occ))
            checker, ctx = contexts[id(setting)]
            verdict = checker.check_detailed(formula, occ, ctx=ctx)
            answers.append((verdict.holds, verdict.value))
        return answers

    def test_verdicts_and_values_match_default(self):
        default = self._answers(CheckOptions())
        ablated = self._answers(NO_DEDUP)
        for (formula_spec, (holds, value), (holds_ab, value_ab)) in zip(
            self.FORMULAS, default, ablated
        ):
            assert holds_ab is holds, formula_spec[2]
            if value is None:
                assert value_ab is None
            else:
                assert value_ab == pytest.approx(value, abs=1e-9)

    def test_without_dedup_each_leaf_recomputes(self, virus1, simple_calls):
        checker = MFModelChecker(virus1, NO_DEDUP)
        ctx = checker.context(VIRUS_OCC)
        for p in (0.2, 0.3, 0.4):
            checker.check(
                f"EP[<{p}](not_infected U[0,1] infected)", VIRUS_OCC, ctx=ctx
            )
        assert len(simple_calls) == 3
        assert ctx.stats.formula_memo_hits == 0


class TestMemoBytes:
    """The vectors the memo stores, on the steady context too."""

    def test_steady_context_vectors_are_counted(self, ctx1):
        """``S⋈p(Φ)`` checks ``Φ`` on the steady context through a
        checker the shared one owns; its vectors are memoized there and
        a second read counts as a memo hit."""
        checker = ctx1.local_checker()
        checker.sat_at(parse_csl("S[>0.5](P[>0.1](tt U[0,1] infected))"))
        steady = checker._steady_checker
        path = parse_path("tt U[0,1] infected")
        hits = steady.ctx.stats.formula_memo_hits
        vector = steady.path_probabilities(path)
        assert steady.path_probabilities(path) is vector
        assert steady.ctx.stats.formula_memo_hits == hits + 2
