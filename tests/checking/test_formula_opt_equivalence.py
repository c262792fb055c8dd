"""Both formula-optimization modes return identical answers.

The contract of ``CheckOptions.formula_optimizations`` is that the
optimizations change *what work is performed*, never the verdict: check
results must be equal, leaf expectation values within 1e-9, and
conditional satisfaction sets equal up to crossing-refinement tolerance,
between ``"all"`` and the as-written ``"none"`` configuration.
"""

import numpy as np
import pytest

from repro.checking import CheckOptions, MFModelChecker
from repro.exceptions import ModelError
from repro.models.virus import SETTING_1, SETTING_2, virus_model

OCC = np.array([0.8, 0.15, 0.05])

# All on and all off — the matrix the CI job runs on every push.
CONFIGS = (("all", "all"), ("none", "none"))
CONFIG_IDS = [cid for cid, _ in CONFIGS]

# Formulas chosen to force every optimization onto its code path:
# vacuous bounds, shared duplicate subtrees, lazy cSat windows,
# early-exit-decidable thresholds, nested (time-varying) untils.
CHECK_FORMULAS = [
    "EP[<0.3](not_infected U[0,1] infected)",
    "E[>0.5](not_infected | P[>=0](infected U[0,5] not_infected))",
    "EP[<0.3](not_infected U[0,1] infected) & "
    "EP[<0.3](not_infected U[0,1] infected)",
    "!!(E[>0.1](infected) | !E[<=0.9](active))",
    "E[>0.1](P[>=0.0003](P[>=0.02](not_infected U[0,1] infected)"
    " U[0,4] active))",
    "E[>0.1](P[>=0.999](P[>=0.02](not_infected U[0,1] infected)"
    " U[0,4] active))",
    "ES[<0.9](infected) | EP[>=0.001](not_infected U[0,2] infected)",
]

VALUE_FORMULAS = [
    "EP[<0.3](not_infected U[0,1] infected)",
    "E[>0.5](not_infected | P[>=0.02](not_infected U[0,1] infected))",
    "E[>0.1](P[>=0.1](P[>=0.02](not_infected U[0,1] infected)"
    " U[0,4] active))",
    "ES[<0.9](infected)",
]

CSAT_FORMULAS = [
    ("EP[<0.3](not_infected U[0,1] infected)", 10.0),
    ("E[>0.2](infected) & EP[<0.3](not_infected U[0,1] infected)", 8.0),
    ("!E[>0.2](infected) | EP[>=0.05](not_infected U[0,1] infected)", 8.0),
    ("E[>=0](infected) & ES[<0.9](infected)", 5.0),
]


def _checker(enabled):
    return MFModelChecker(
        virus_model(SETTING_1),
        CheckOptions(formula_optimizations=enabled),
    )


@pytest.fixture(scope="module")
def eager_results():
    """Reference answers computed as written (``"none"``)."""
    checker = _checker("none")
    checks = {f: checker.check(f, OCC) for f in CHECK_FORMULAS}
    values = {f: checker.value(f, OCC) for f in VALUE_FORMULAS}
    csats = {
        (f, theta): checker.conditional_sat(f, OCC, theta)
        for f, theta in CSAT_FORMULAS
    }
    return checks, values, csats


@pytest.mark.parametrize("cid, enabled", CONFIGS, ids=CONFIG_IDS)
class TestFlagMatrix:
    def test_check_verdicts_identical(self, cid, enabled, eager_results):
        checks, _, _ = eager_results
        checker = _checker(enabled)
        for formula, expected in checks.items():
            assert checker.check(formula, OCC) is expected, (cid, formula)

    def test_leaf_values_within_1e9(self, cid, enabled, eager_results):
        _, values, _ = eager_results
        checker = _checker(enabled)
        for formula, expected in values.items():
            got = checker.value(formula, OCC)
            assert got == pytest.approx(expected, abs=1e-9), (cid, formula)

    def test_csat_sets_equal(self, cid, enabled, eager_results):
        _, _, csats = eager_results
        checker = _checker(enabled)
        for (formula, theta), expected in csats.items():
            got = checker.conditional_sat(formula, OCC, theta)
            assert got.approx_equal(expected, tol=1e-6), (
                cid,
                formula,
                got.intervals,
                expected.intervals,
            )


class TestOptimizationsObservable:
    """The modes actually change the work performed, not just the label."""

    def test_rewrites_counted_and_traced(self):
        checker = _checker("all")
        ctx = checker.context(OCC)
        checker.check("E[>=0](active) & E[>0.1](infected)", OCC, ctx=ctx)
        assert ctx.stats.rewrites_applied == 1
        assert any("1 vacuous bounds" in n for n in ctx.trace.notes)

    def test_no_rewrites_when_disabled(self):
        checker = _checker("none")
        ctx = checker.context(OCC)
        checker.check("E[>=0](active) & E[>0.1](infected)", OCC, ctx=ctx)
        assert ctx.stats.rewrites_applied == 0

    def test_early_exit_skips_segments(self):
        f = (
            "E[>0.1](P[>=0.0003](P[>=0.02](not_infected U[0,1] infected)"
            " U[0,4] active))"
        )
        on = _checker("all")
        ctx_on = on.context(OCC)
        on.value(f, OCC, ctx=ctx_on)
        assert ctx_on.stats.early_exits >= 1
        assert ctx_on.stats.segments_skipped >= 1
        off = _checker("none")
        ctx_off = off.context(OCC)
        off.value(f, OCC, ctx=ctx_off)
        assert ctx_off.stats.early_exits == 0
        assert ctx_off.stats.segments_skipped == 0

    def test_dedup_shares_leaf_work(self):
        # Different bounds over the same path: the second leaf must find
        # the first leaf's probability curve in the shared checker's
        # memo.
        f = (
            "EP[<0.3](not_infected U[0,1] infected) & "
            "EP[>=0.001](not_infected U[0,1] infected)"
        )
        on = _checker("all")
        ctx_on = on.context(OCC)
        on.conditional_sat(f, OCC, 6.0, ctx=ctx_on)
        assert ctx_on.stats.formula_memo_hits > 0

    def test_vacuity_avoids_until_solves(self):
        # P>=0 inside an Or that the eager piecewise checker cannot
        # short-circuit: with the rewrite the until is never solved.
        f = "E[>0.5](not_infected | P[>=0](infected U[0,5] not_infected))"
        on = _checker("all")
        ctx_on = on.context(OCC)
        on.check(f, OCC, ctx=ctx_on)
        off = _checker("none")
        ctx_off = off.context(OCC)
        off.check(f, OCC, ctx=ctx_off)
        assert ctx_on.stats.solve_ivp_calls < ctx_off.stats.solve_ivp_calls


class TestSecondSetting:
    """Spot-check both modes on the paper's second parameter set."""

    @pytest.mark.parametrize("enabled", ["all", "none"])
    def test_example_formula(self, enabled):
        checker = MFModelChecker(
            virus_model(SETTING_2),
            CheckOptions(formula_optimizations=enabled),
        )
        v = checker.value("EP[<0.3](not_infected U[0,1] infected)", OCC)
        reference = MFModelChecker(
            virus_model(SETTING_2), CheckOptions(formula_optimizations="none")
        ).value("EP[<0.3](not_infected U[0,1] infected)", OCC)
        assert v == pytest.approx(reference, abs=1e-9)


class TestOptionsValidation:
    """Only ``"all"`` and ``"none"`` are accepted."""

    def test_unknown_name_rejected(self):
        for value in (("warp-drive",), ("vacuity", "dedup"), [], ()):
            with pytest.raises(ModelError, match="formula_optimizations"):
                CheckOptions(formula_optimizations=value)

    def test_bare_string_rejected(self):
        for value in ("vacuity", "lazy", "ALL", None):
            with pytest.raises(ModelError, match="formula_optimizations"):
                CheckOptions(formula_optimizations=value)

    def test_normalization(self):
        # The value is stored as given and rendered into the options
        # signature, so default-option cache entries are keyed "all".
        assert CheckOptions().formula_optimizations == "all"
        assert CheckOptions(
            formula_optimizations="none"
        ).formula_optimizations == "none"
        assert "formula_optimizations=all" in CheckOptions().signature()
