"""The MF-CSL model checker — Section V.

:class:`MFModelChecker` is the library's main façade.  It checks MF-CSL
formulas against occupancy vectors (the satisfaction relation of
Definition 6, Section V-A), computes the numeric expectation values the
bounds are compared against, builds conditional satisfaction sets
(Section V-B) and exposes the probability/expectation *curves* behind
Figure 3 for plotting and further analysis.

Formulas may be passed as AST nodes or as strings in the textual syntax
of :mod:`repro.logic`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.checking.context import EvaluationContext
from repro.checking.csat import conditional_sat
from repro.checking.intervals import IntervalSet
from repro.checking.local import LocalChecker
from repro.checking.options import CheckOptions
from repro.checking.steady import expected_steady_state_value
from repro.exceptions import FormulaError
from repro.logic.ast import (
    CslFormula,
    Expectation,
    ExpectedProbability,
    ExpectedSteadyState,
    MfAnd,
    MfCslFormula,
    MfNot,
    MfOr,
    MfTrue,
    PathFormula,
)
from repro.logic.parser import parse_csl, parse_mfcsl, parse_path
from repro.logic.rewrite import optimize
from repro.meanfield.overall_model import MeanFieldModel

FormulaLike = Union[str, MfCslFormula]


def _depth_guarded(method):
    """Report a formula too deep to check as a :class:`FormulaError`.

    Rewriting, satisfaction and ``explain`` walk the formula
    recursively, one frame per level, so a formula nested past the
    interpreter's recursion limit (a chain of about a thousand ``&``)
    would otherwise escape as a ``RecursionError``.
    """

    @functools.wraps(method)
    def guarded(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except RecursionError:
            raise FormulaError(
                "formula is nested too deeply to check"
            ) from None

    return guarded


#: The MF-CSL operators that compare an expectation value with a bound.
_LEAVES = (Expectation, ExpectedSteadyState, ExpectedProbability)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one satisfaction check, ``m̄ ⊨ Ψ`` (Definition 6).

    Attributes
    ----------
    holds:
        Whether the formula holds; a verdict is truthy exactly when it
        does.
    value:
        The leaf expectation value, for single-leaf formulas (``None``
        for boolean combinations).
    margin:
        ``|value − threshold|`` for single-leaf formulas: how far the
        value would have to move to flip the verdict.
    """

    holds: bool
    value: "float | None" = None
    margin: "float | None" = None

    def __bool__(self) -> bool:
        # A frozen dataclass is always truthy without this.
        return self.holds


class MFModelChecker:
    """Model checker for MF-CSL over a mean-field model.

    Parameters
    ----------
    model:
        The mean-field model (local model + overall dynamics).
    options:
        Numerical options shared by every check performed through this
        instance.

    Example
    -------
    >>> from repro.models.virus import virus_model, SETTING_1
    >>> checker = MFModelChecker(virus_model(SETTING_1))
    >>> checker.check("EP[<0.3](not_infected U[0,1] infected)",
    ...               [0.8, 0.15, 0.05])
    True
    """

    def __init__(
        self,
        model: MeanFieldModel,
        options: Optional[CheckOptions] = None,
    ):
        self.model = model
        self.options = options or CheckOptions()

    # ------------------------------------------------------------------

    def context(self, occupancy: np.ndarray) -> EvaluationContext:
        """An evaluation context anchored at the given occupancy vector."""
        return EvaluationContext(self.model, occupancy, self.options)

    @staticmethod
    def _as_mfcsl(formula: FormulaLike) -> MfCslFormula:
        if isinstance(formula, str):
            return parse_mfcsl(formula)
        return formula

    @staticmethod
    def _prepared(
        psi: MfCslFormula, ctx: EvaluationContext
    ) -> MfCslFormula:
        """The formula after the vacuity rewrite (identity under ``"none"``).

        Applied at the satisfaction entry points (:meth:`check`,
        :meth:`check_detailed`, :meth:`conditional_sat`) only —
        :meth:`value` and :meth:`explain` report on the formula exactly
        as written, since rewriting could fold the very leaf the caller
        asked about.
        """
        if not ctx._optimized:
            return psi
        rewritten, report = optimize(psi)
        if report.vacuities:
            ctx.stats.rewrites_applied += report.vacuities
            ctx.trace.note(f"formula rewrite: {report.describe()}")
        return rewritten

    @staticmethod
    def _as_csl(formula: Union[str, CslFormula]) -> CslFormula:
        if isinstance(formula, str):
            return parse_csl(formula)
        return formula

    @staticmethod
    def _as_path(formula: Union[str, PathFormula]) -> PathFormula:
        if isinstance(formula, str):
            return parse_path(formula)
        return formula

    # ------------------------------------------------------------------
    # Satisfaction relation (Section V-A)
    # ------------------------------------------------------------------

    @_depth_guarded
    def check(
        self,
        formula: FormulaLike,
        occupancy: np.ndarray,
        ctx: Optional[EvaluationContext] = None,
    ) -> bool:
        """Does ``m̄ ⊨ Ψ`` hold? (Definition 6.)"""
        psi = self._as_mfcsl(formula)
        if ctx is None:
            ctx = self.context(occupancy)
        return self._check(self._prepared(psi, ctx), ctx)

    @_depth_guarded
    def check_detailed(
        self,
        formula: FormulaLike,
        occupancy: np.ndarray,
        ctx: Optional[EvaluationContext] = None,
    ) -> Verdict:
        """Like :meth:`check`, but also report a single leaf's value.

        A single-leaf formula is evaluated once: ``holds`` compares that
        value with the bound, unless the vacuity rewrite decided the
        bound for every value (then ``holds`` is the rewrite's constant
        and the value is still reported as written).  Any other formula
        goes through :meth:`check`'s evaluator and carries no value.
        """
        psi = self._as_mfcsl(formula)
        if ctx is None:
            ctx = self.context(occupancy)
        prepared = self._prepared(psi, ctx)
        if not isinstance(psi, _LEAVES):
            return Verdict(holds=self._check(prepared, ctx))
        if isinstance(prepared, _LEAVES):
            value = self._leaf_value(prepared, ctx)
            holds = prepared.bound.holds(value)
        else:
            value = self._leaf_value(psi, ctx)
            holds = self._check(prepared, ctx)
        return Verdict(
            holds=holds,
            value=value,
            margin=abs(value - psi.bound.threshold),
        )

    def _check(self, psi: MfCslFormula, ctx: EvaluationContext) -> bool:
        if isinstance(psi, MfTrue):
            return True
        if isinstance(psi, MfNot):
            return not self._check(psi.operand, ctx)
        if isinstance(psi, MfAnd):
            return self._check(psi.left, ctx) and self._check(psi.right, ctx)
        if isinstance(psi, MfOr):
            return self._check(psi.left, ctx) or self._check(psi.right, ctx)
        if isinstance(psi, _LEAVES):
            return psi.bound.holds(self._leaf_value(psi, ctx))
        raise FormulaError(f"not an MF-CSL formula: {psi!r}")

    @_depth_guarded
    def value(
        self,
        formula: FormulaLike,
        occupancy: np.ndarray,
        ctx: Optional[EvaluationContext] = None,
    ) -> float:
        """The expectation value an ``E``/``ES``/``EP`` leaf compares to ``p``.

        Useful for diagnostics and for reproducing the paper's worked
        numbers (e.g. the ``0.072`` of Example 1).  Raises
        :class:`FormulaError` for non-leaf formulas.
        """
        psi = self._as_mfcsl(formula)
        if not isinstance(psi, _LEAVES):
            raise FormulaError(
                "value() is defined for E/ES/EP leaves only; "
                f"got {psi!r}"
            )
        if ctx is None:
            ctx = self.context(occupancy)
        return self._leaf_value(psi, ctx)

    def _leaf_value(self, psi: MfCslFormula, ctx: EvaluationContext) -> float:
        # Under ``"all"`` every leaf shares the context's local checker,
        # so repeated subformulas reuse each other's satisfaction sets,
        # curves and path-probability vectors — an ``EP`` leaf checked
        # again (with any threshold, or by ``explain`` after a check)
        # costs one dot product; under ``"none"`` each leaf gets a fresh
        # checker.
        shared = ctx._optimized
        checker = ctx.local_checker() if shared else LocalChecker(ctx)
        if isinstance(psi, Expectation):
            sat = checker.sat_at(psi.operand, 0.0)
            states = np.fromiter(sat, dtype=np.intp, count=len(sat))
            return float(ctx.initial[states].sum())
        if isinstance(psi, ExpectedSteadyState):
            steady_ctx = ctx.steady_context()
            steady_checker = (
                steady_ctx.local_checker()
                if shared
                else LocalChecker(steady_ctx)
            )
            inner_sat = steady_checker.sat_at(psi.operand, 0.0)
            return expected_steady_state_value(ctx, inner_sat)
        if isinstance(psi, ExpectedProbability):
            probs = checker.path_probabilities(psi.path, 0.0)
            return float(ctx.initial @ probs)
        raise FormulaError(f"not an expectation leaf: {psi!r}")

    # ------------------------------------------------------------------
    # Batched checking (multi-query front-end)
    # ------------------------------------------------------------------

    def check_many(self, queries) -> list:
        """Answer a batch of queries, sharing every warm object per group.

        Each query is a ``(formula, occupancy)`` pair (a satisfaction
        check) or a mapping with keys ``formula``, ``occupancy`` and
        optionally ``command`` (``"check"`` — the default — ``"value"``
        or ``"csat"``) and ``theta`` (the cSat horizon, default 10).

        Queries are grouped by occupancy vector: one
        :class:`~repro.checking.context.EvaluationContext` serves every
        query of a group, so the trajectory solve, compiled generator,
        propagator cells and transient matrices are paid once per group
        — the marginal cost of an extra query against a warm group is a
        formula walk plus vector algebra.  Within a group the context's
        shared local checker memoizes per subformula (keyed by formula
        equality), so queries with overlapping subformulas share
        satisfaction sets, probability curves and path-probability
        vectors (a re-thresholded ``EP`` costs a dot product);
        *identical* queries are planned once and fanned back out (the
        duplicates receive the very same result object).

        Returns a list in input order: :class:`Verdict` for ``check``,
        ``float`` for ``value``,
        :class:`~repro.checking.intervals.IntervalSet` for ``csat``.
        Errors propagate — per-item error isolation is the serving
        layer's job (``CheckingService.handle_batch``).
        """
        normalized = []
        for query in queries:
            if isinstance(query, dict):
                command = query.get("command", "check")
                formula = query.get("formula")
                occupancy = query.get("occupancy")
                theta = query.get("theta")
            else:
                try:
                    formula, occupancy = query
                except (TypeError, ValueError):
                    raise FormulaError(
                        "batch queries must be (formula, occupancy) pairs "
                        f"or mappings; got {query!r}"
                    )
                command, theta = "check", None
            if command not in ("check", "value", "csat"):
                raise FormulaError(
                    f"unknown batch command {command!r} "
                    "(expected check/value/csat)"
                )
            if formula is None or occupancy is None:
                raise FormulaError(
                    "each batch query needs a formula and an occupancy"
                )
            occ = np.asarray(occupancy, dtype=float).reshape(-1)
            occ_key = tuple(round(float(x), 12) for x in occ)
            formula_key = (
                formula if isinstance(formula, str) else str(formula)
            )
            theta = 10.0 if theta is None else float(theta)
            normalized.append(
                (command, formula, occ, occ_key, formula_key, theta)
            )

        contexts: dict = {}
        memo: dict = {}
        results = []
        for command, formula, occ, occ_key, formula_key, theta in normalized:
            ctx = contexts.get(occ_key)
            if ctx is None:
                ctx = self.context(occ)
                contexts[occ_key] = ctx
            memo_key = (
                occ_key,
                command,
                formula_key,
                theta if command == "csat" else None,
            )
            if memo_key in memo:
                results.append(memo[memo_key])
                continue
            if command == "check":
                result = self.check_detailed(formula, occ, ctx=ctx)
            elif command == "value":
                result = self.value(formula, occ, ctx=ctx)
            else:
                result = self.conditional_sat(formula, occ, theta, ctx=ctx)
            memo[memo_key] = result
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # Conditional satisfaction sets (Section V-B)
    # ------------------------------------------------------------------

    @_depth_guarded
    def conditional_sat(
        self,
        formula: FormulaLike,
        occupancy: np.ndarray,
        theta: float,
        ctx: Optional[EvaluationContext] = None,
    ) -> IntervalSet:
        """``cSat(Ψ, m̄, θ)`` — the times in ``[0, θ]`` where ``Ψ`` holds."""
        psi = self._as_mfcsl(formula)
        if ctx is None:
            ctx = self.context(occupancy)
        return conditional_sat(ctx, self._prepared(psi, ctx), theta)

    # ------------------------------------------------------------------
    # Curves (for Figure 3 and user plotting)
    # ------------------------------------------------------------------

    def local_probability_curve(
        self,
        path_formula: Union[str, PathFormula],
        occupancy: np.ndarray,
        theta: float,
    ):
        """``Prob(s, φ, m̄, t)`` per state over ``t ∈ [0, θ]``.

        Returns the :class:`~repro.checking.reachability.ProbabilityCurve`
        (the green/blue curves of Figure 3).
        """
        path = self._as_path(path_formula)
        ctx = self.context(occupancy)
        return LocalChecker(ctx).path_curve(path, theta)

    def expected_probability_curve(
        self,
        path_formula: Union[str, PathFormula],
        occupancy: np.ndarray,
        theta: float,
    ) -> Callable[[float], float]:
        """``t -> Σ_j m_j(t) · Prob(s_j, φ, m̄, t)`` (Figure 3's red curve)."""
        path = self._as_path(path_formula)
        ctx = self.context(occupancy)
        curve = LocalChecker(ctx).path_curve(path, theta)

        def g(t: float) -> float:
            return float(ctx.occupancy(t) @ curve.values(t))

        return g

    def expectation_curve(
        self,
        state_formula: Union[str, CslFormula],
        occupancy: np.ndarray,
        theta: float,
    ) -> Callable[[float], float]:
        """``t -> Σ_j m_j(t) · Ind(s_j ⊨ Φ at t)`` (the E-operator value)."""
        phi = self._as_csl(state_formula)
        ctx = self.context(occupancy)
        sat = LocalChecker(ctx).sat_piecewise(phi, theta)

        def g(t: float) -> float:
            m = ctx.occupancy(t)
            return float(sum(m[j] for j in sat.at(t)))

        return g

    # ------------------------------------------------------------------

    @_depth_guarded
    def explain(
        self,
        formula: FormulaLike,
        occupancy: np.ndarray,
        ctx: Optional[EvaluationContext] = None,
    ) -> "list[Tuple[str, float, bool]]":
        """Evaluate every expectation leaf of ``Ψ`` and report its verdict.

        Returns ``(leaf-text, value, holds)`` triples in parse order —
        handy for understanding *why* a conjunction failed.  Pass the
        context a check ran on to reuse its work (under ``"all"`` the
        leaves it already evaluated cost a memo lookup).
        """
        psi = self._as_mfcsl(formula)
        if ctx is None:
            ctx = self.context(occupancy)
        report: "list[Tuple[str, float, bool]]" = []

        def walk(node: MfCslFormula) -> None:
            if isinstance(node, (MfNot,)):
                walk(node.operand)
            elif isinstance(node, (MfAnd, MfOr)):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, _LEAVES):
                value = self._leaf_value(node, ctx)
                report.append((str(node), value, node.bound.holds(value)))

        walk(psi)
        return report
