"""Conditional satisfaction sets of MF-CSL formulas — Section V-B.

``cSat(Ψ, m̄, θ) = {t ∈ [0, θ] : m̄(t) ⊨ Ψ}`` (Equation (20)) is computed
exactly as Table I prescribes: for each expectation leaf an inequality in
the (numerically solved) occupancy flow is thresholded, the crossing
times are refined by Brent's method, and the boolean structure of ``Ψ``
combines the leaf interval sets through the exact algebra of
:class:`~repro.checking.intervals.IntervalSet`:

- ``tt`` → ``[0, θ]``;
- ``Ψ1 ∧ Ψ2`` → intersection;
- ``¬Ψ`` → complement within ``[0, θ]``.

Under ``formula_optimizations="all"`` (see :class:`CheckOptions`) two
evaluation shortcuts change *how much* of the domain is scanned, never
the answer:

- the recursion threads a query window through the formula so leaf
  sets materialize only where the verdict can still depend on them —
  the right operand of a conjunction is scanned only inside the left
  operand's satisfaction set, a disjunction's right operand only
  outside the left's, and a window that shrinks to nothing skips the
  leaf's curve construction entirely;
- results are memoized per (subformula, window) and leaves are
  evaluated through the context's shared local checker, so a repeated
  subformula is paid for once.

Under ``"none"`` the eager recursion reproduces Table I verbatim.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.checking.context import EvaluationContext
from repro.checking.intervals import IntervalSet
from repro.checking.local import LocalChecker
from repro.checking.reachability import grid_crossings
from repro.checking.steady import expected_steady_state_value
from repro.exceptions import FormulaError, ModelError
from repro.logic.ast import (
    Bound,
    Expectation,
    ExpectedProbability,
    ExpectedSteadyState,
    MfAnd,
    MfCslFormula,
    MfNot,
    MfOr,
    MfTrue,
)


def threshold_intervals(
    g: Callable[[float], float],
    t_start: float,
    t_end: float,
    bound: Bound,
    discontinuities: Sequence[float] = (),
    grid_points: int = 129,
    g_many: "Callable[[np.ndarray], np.ndarray] | None" = None,
    within: Optional[IntervalSet] = None,
) -> IntervalSet:
    """Times in ``[t_start, t_end]`` where ``g(t) ⋈ threshold`` holds.

    ``g`` must be continuous between the declared ``discontinuities``.
    Within each smooth segment the crossings of ``g − threshold`` are
    found by :func:`~repro.checking.reachability.grid_crossings` (a
    uniform grid refined with Brent's method); the truth value of each
    resulting sub-interval is decided at its midpoint.

    ``g_many``, when given, is a vectorized twin of ``g`` (``ts -> values``
    for a 1-D time array) used for the grid scans — typically backed by
    :meth:`~repro.checking.context.EvaluationContext.occupancy_many`, so
    one batched trajectory evaluation replaces ``grid_points`` scalar
    ones.  Brent refinement still uses the scalar ``g``.

    ``within`` restricts the scan: only its intervals (clipped to
    ``[t_start, t_end]``) are searched, each with the full grid
    resolution, and the result is their union — the demand-driven face
    used by the windowed cSat recursion.  ``None`` scans the whole
    range.
    """
    if within is not None:
        result = IntervalSet.empty()
        for a, b in within.intervals:
            a, b = max(a, float(t_start)), min(b, float(t_end))
            if b <= a:
                continue
            result = result.union(
                threshold_intervals(
                    g,
                    a,
                    b,
                    bound,
                    discontinuities=discontinuities,
                    grid_points=grid_points,
                    g_many=g_many,
                )
            )
        return result
    t_start, t_end = float(t_start), float(t_end)
    cuts = sorted(
        {t_start, t_end}
        | {float(d) for d in discontinuities if t_start < float(d) < t_end}
    )
    breakpoints: List[float] = list(cuts)

    def offset(t: float) -> float:
        return g(t) - bound.threshold

    offset_many = None
    if g_many is not None:

        def offset_many(ts: np.ndarray) -> np.ndarray:
            return np.asarray(g_many(ts), dtype=float) - bound.threshold

    for a, b in zip(cuts, cuts[1:]):
        breakpoints.extend(
            grid_crossings(offset, a, b, grid_points, offset_many)
        )
    breakpoints = sorted(set(breakpoints))
    intervals = []
    for a, b in zip(breakpoints, breakpoints[1:]):
        if bound.holds(g(0.5 * (a + b))):
            intervals.append((a, b))
    return IntervalSet(intervals)


class _CsatEvaluator:
    """One cSat computation: recursion, memo, and the lazy window.

    The eager recursion (``formula_optimizations="none"``) reproduces
    Table I verbatim (whole-domain leaf scans combined by the exact
    interval algebra); the lazy, memoized recursion (``"all"``) is the
    window-passing equivalence

    ``cSat(¬Ψ) ∩ W  =  W \\ (cSat(Ψ) ∩ W)``
    ``cSat(Ψ1 ∧ Ψ2) ∩ W  =  cSat(Ψ2) ∩ (cSat(Ψ1) ∩ W)``
    ``cSat(Ψ1 ∨ Ψ2) ∩ W  =  (cSat(Ψ1) ∩ W) ∪ (cSat(Ψ2) ∩ (W \\ …))``

    so every sub-result equals the eager set intersected with the
    window it was asked for — identical where anyone looks, never
    computed where nobody does.
    """

    def __init__(self, ctx: EvaluationContext, theta: float) -> None:
        self.ctx = ctx
        self.theta = float(theta)
        self.optimized = ctx._optimized
        self._memo: dict = {}

    def _checker(self, ctx: Optional[EvaluationContext] = None):
        ctx = self.ctx if ctx is None else ctx
        if self.optimized:
            return ctx.local_checker()
        return LocalChecker(ctx)

    # -- eager recursion (Table I, seed semantics) ---------------------

    def eager_eval(self, formula: MfCslFormula) -> IntervalSet:
        theta = self.theta
        if isinstance(formula, MfTrue):
            return IntervalSet.whole(theta)
        if isinstance(formula, MfNot):
            return self.eager_eval(formula.operand).complement(theta)
        if isinstance(formula, MfAnd):
            return self.eager_eval(formula.left).intersection(
                self.eager_eval(formula.right)
            )
        if isinstance(formula, MfOr):
            return self.eager_eval(formula.left).union(
                self.eager_eval(formula.right)
            )
        return self._leaf(formula, None)

    # -- lazy recursion (window-passing) -------------------------------

    def lazy_eval(self, formula: MfCslFormula, within: IntervalSet) -> IntervalSet:
        if not within.intervals:
            return IntervalSet.empty()
        key = (formula, within)
        hit = self._memo.get(key)
        if hit is not None:
            self.ctx.stats.formula_memo_hits += 1
            return hit
        result = self._lazy_node(formula, within)
        self._memo[key] = result
        return result

    def _lazy_node(self, formula: MfCslFormula, within: IntervalSet) -> IntervalSet:
        theta = self.theta
        if isinstance(formula, MfTrue):
            return within
        if isinstance(formula, MfNot):
            return within.difference(
                self.lazy_eval(formula.operand, within), theta
            )
        if isinstance(formula, MfAnd):
            return self.lazy_eval(
                formula.right, self.lazy_eval(formula.left, within)
            )
        if isinstance(formula, MfOr):
            left = self.lazy_eval(formula.left, within)
            rest = within.difference(left, theta)
            return left.union(self.lazy_eval(formula.right, rest))
        return self._leaf(formula, within)

    # -- leaves ---------------------------------------------------------

    def _leaf(
        self, formula: MfCslFormula, within: Optional[IntervalSet]
    ) -> IntervalSet:
        ctx, theta = self.ctx, self.theta
        options = ctx.options

        if isinstance(formula, Expectation):
            checker = self._checker()
            sat = checker.sat_piecewise(formula.operand, theta)
            ctx.trajectory.cover(theta)

            def g(t: float) -> float:
                m = ctx.occupancy(t)
                return float(sum(m[j] for j in sat.at(t)))

            def g_many(ts: np.ndarray) -> np.ndarray:
                occupancies = ctx.occupancy_many(ts)
                out = np.zeros(len(ts))
                for i, t in enumerate(ts):
                    states = sorted(sat.at(t))
                    if states:
                        out[i] = occupancies[i, states].sum()
                return out

            return threshold_intervals(
                g,
                0.0,
                theta,
                formula.bound,
                discontinuities=sat.boundaries(),
                grid_points=options.grid_points,
                g_many=g_many,
                within=within,
            )

        if isinstance(formula, ExpectedSteadyState):
            # Constant in time (Section V-B): the expected steady-state
            # value does not depend on the current occupancy.
            inner_sat = self._checker(ctx.steady_context()).sat_at(
                formula.operand, 0.0
            )
            value = expected_steady_state_value(ctx, inner_sat)
            if formula.bound.holds(value):
                return IntervalSet.whole(theta) if within is None else within
            return IntervalSet.empty()

        if isinstance(formula, ExpectedProbability):
            checker = self._checker()
            curve = checker.path_curve(formula.path, theta)
            ctx.trajectory.cover(theta)

            def g(t: float) -> float:
                return float(ctx.occupancy(t) @ curve.values(t))

            def g_many(ts: np.ndarray) -> np.ndarray:
                occupancies = ctx.occupancy_many(ts)
                return np.array(
                    [
                        float(occupancies[i] @ curve.values(t))
                        for i, t in enumerate(ts)
                    ]
                )

            return threshold_intervals(
                g,
                0.0,
                theta,
                formula.bound,
                discontinuities=curve.discontinuities,
                grid_points=options.grid_points,
                g_many=g_many,
                within=within,
            )

        raise FormulaError(f"not an MF-CSL formula: {formula!r}")


def conditional_sat(
    ctx: EvaluationContext,
    formula: MfCslFormula,
    theta: float,
    within: Optional[IntervalSet] = None,
) -> IntervalSet:
    """``cSat(Ψ, m̄, θ)`` — Table I plus the boolean combinators.

    ``within`` optionally restricts the result (and, when optimized,
    the *computation*) to a sub-window of ``[0, θ]``; the default is the
    whole horizon.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ModelError(f"cSat horizon theta must be finite, got {theta!r}")
    evaluator = _CsatEvaluator(ctx, theta)
    if evaluator.optimized:
        domain = IntervalSet.whole(theta) if within is None else within
        return evaluator.lazy_eval(formula, domain)
    result = evaluator.eager_eval(formula)
    return result if within is None else result.intersection(within)
