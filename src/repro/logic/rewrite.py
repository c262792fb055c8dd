"""Formula optimization: deciding vacuous bounds before checking.

Probabilities and expectations live in ``[0, 1]``, so a bound ``⩾ 0`` or
``⩽ 1`` always holds and ``< 0`` / ``> 1`` never does.  One pass over
the syntax tree replaces every such bounded operator (``P``, ``S``,
``E``, ``ES``, ``EP``) by the constant it is equal to, so the checker
never solves for a number the verdict cannot depend on.  The numerical
layer clips computed probabilities into ``[0, 1]``, so the rewrite can
never disagree with the eager answer.

Equal subtrees need no rewrite to be shared: the checker's memos (the
context's shared :class:`~repro.checking.local.LocalChecker` and the
cSat evaluator) are keyed by formula equality, so the second occurrence
of a subformula is answered from the first.

There is no dedicated "false" node in the AST; the canonical false is
``!(tt)`` (:class:`~repro.logic.ast.Not` of :class:`~repro.logic.ast.CslTrue`,
resp. the MF pair).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro.exceptions import FormulaError
from repro.logic.ast import (
    And,
    AnyFormula,
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
    Until,
)

_NODES = (
    CslTrue, Atomic, Not, And, Or, SteadyState, Probability, Next, Until,
    MfTrue, MfNot, MfAnd, MfOr, Expectation, ExpectedSteadyState,
    ExpectedProbability,
)
_MF_BOUNDED = (Expectation, ExpectedSteadyState, ExpectedProbability)
_BOUNDED = (SteadyState, Probability) + _MF_BOUNDED


@dataclass
class RewriteReport:
    """Counts of rewrites performed by one :func:`optimize` call."""

    vacuities: int = 0

    def describe(self) -> str:
        return f"{self.vacuities} vacuous bounds"


def _vacuous_verdict(bound: Bound) -> Optional[bool]:
    """``True``/``False`` when ``v ⋈ p`` is decided for *every* v ∈ [0, 1]."""
    if bound.comparator == ">=" and bound.threshold == 0.0:
        return True
    if bound.comparator == "<=" and bound.threshold == 1.0:
        return True
    if bound.comparator == "<" and bound.threshold == 0.0:
        return False
    if bound.comparator == ">" and bound.threshold == 1.0:
        return False
    return None


def _const(value: bool, mf: bool) -> AnyFormula:
    """The canonical constant of the CSL or MF-CSL family."""
    if mf:
        return MfTrue() if value else MfNot(MfTrue())
    return CslTrue() if value else Not(CslTrue())


def _rewrite(formula: AnyFormula, report: RewriteReport) -> AnyFormula:
    if not isinstance(formula, _NODES):
        raise FormulaError(f"unknown formula node {formula!r}")
    if isinstance(formula, _BOUNDED):
        verdict = _vacuous_verdict(formula.bound)
        if verdict is not None:
            report.vacuities += 1
            return _const(verdict, mf=isinstance(formula, _MF_BOUNDED))
    # Rebuild only when a child actually changed (preserve identity).
    changed = {}
    for field in fields(formula):
        child = getattr(formula, field.name)
        if isinstance(child, _NODES):
            new = _rewrite(child, report)
            if new is not child:
                changed[field.name] = new
    return replace(formula, **changed) if changed else formula


def optimize(formula: AnyFormula) -> "Tuple[AnyFormula, RewriteReport]":
    """Replace every vacuously bounded operator of ``formula`` by its constant.

    Accepts any CSL, path, or MF-CSL formula.  Returns the rewritten
    formula and a :class:`RewriteReport`; a formula without a vacuous
    bound is returned unchanged (the same object).
    """
    report = RewriteReport()
    return _rewrite(formula, report), report
