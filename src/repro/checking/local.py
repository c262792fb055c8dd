"""The recursive local CSL checker (Section IV).

:class:`LocalChecker` evaluates CSL state and path formulas on the
time-inhomogeneous local model induced by an
:class:`~repro.checking.context.EvaluationContext`.  It walks the parse
tree exactly as Section IV-E prescribes:

- time-independent operators (``tt``, atomic propositions, boolean
  connectives) are resolved from the labelling;
- ``P⋈p(φ)`` computes a :class:`~repro.checking.reachability.ProbabilityCurve`
  for the path formula and thresholds it (Equations (16)/(18)); curve
  crossing times become the discontinuity points of the resulting
  time-dependent satisfaction set;
- ``S⋈p(Φ)`` delegates to :mod:`repro.checking.steady` — the inner
  formula is checked in the *steady context* anchored at ``m̃``
  (Equations (17)/(19));
- until path formulas use the simple two-phase algorithm when both
  operand sets are time-independent and the time-varying-set machinery
  of :mod:`repro.checking.nested` otherwise (``CheckOptions.until_method``
  can force the latter);
- next path formulas use :mod:`repro.checking.next_op`.

Satisfaction sets are memoized per (formula, window end), probability
curves per (path, horizon) and path-probability vectors per (path,
evaluation time), so a repeated sub-formula — or an ``EP``/``P`` leaf
re-checked against another threshold ``p`` — is computed once per
checker.  Memoized arrays are shared by every caller and stored
read-only.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.checking.context import EvaluationContext
from repro.checking.nested import TimeVaryingUntil
from repro.checking.next_op import next_curve, next_probabilities
from repro.checking.reachability import (
    ProbabilityCurve,
    SimpleUntilCurve,
    until_probabilities_simple,
)
from repro.checking.satsets import PiecewiseSatSet, combine
from repro.checking.steady import steady_sat_states
from repro.exceptions import FormulaError, InvalidStateError
from repro.logic.ast import (
    And,
    Atomic,
    CslFormula,
    CslTrue,
    Next,
    Not,
    Or,
    PathFormula,
    Probability,
    SteadyState,
    Until,
)

#: Slack of the early-exit threshold decision: a verdict is taken from
#: partial probability-mass bounds only when they clear the threshold
#: by more than this.
PROBABILITY_TOL = 1e-7


class LocalChecker:
    """CSL model checker for the local model of one evaluation context."""

    def __init__(self, ctx: EvaluationContext):
        self.ctx = ctx
        self._sat_cache: Dict[Tuple[CslFormula, float], PiecewiseSatSet] = {}
        self._curve_cache: Dict[Tuple[PathFormula, float], ProbabilityCurve] = {}
        self._prob_cache: Dict[Tuple[PathFormula, float], np.ndarray] = {}
        self._steady_checker: Optional["LocalChecker"] = None

    # ------------------------------------------------------------------
    # State formulas
    # ------------------------------------------------------------------

    def check(self, formula: CslFormula, state: "str | int", t: float = 0.0) -> bool:
        """Does local state ``s`` satisfy ``Φ`` at evaluation time ``t``?"""
        index = self._state_index(state)
        return index in self.sat_at(formula, t)

    def sat_at(self, formula: CslFormula, t: float = 0.0) -> FrozenSet[int]:
        """``Sat(Φ, m̄, t)`` — Equations (16)–(19) for a single time."""
        t = float(t)
        if isinstance(formula, CslTrue):
            return frozenset(range(self.ctx.num_states))
        if isinstance(formula, Atomic):
            states = self.ctx.model.local.states_with_label(formula.name)
            return states
        if isinstance(formula, Not):
            return frozenset(range(self.ctx.num_states)) - self.sat_at(
                formula.operand, t
            )
        if isinstance(formula, And):
            return self.sat_at(formula.left, t) & self.sat_at(formula.right, t)
        if isinstance(formula, Or):
            return self.sat_at(formula.left, t) | self.sat_at(formula.right, t)
        if isinstance(formula, Probability):
            if self.ctx._optimized:
                bounded = self._until_sat_bounded(formula, t)
                if bounded is not None:
                    return bounded
            probs = self.path_probabilities(formula.path, t)
            return frozenset(
                s
                for s in range(self.ctx.num_states)
                if formula.bound.holds(probs[s])
            )
        if isinstance(formula, SteadyState):
            inner_sat = self._steady().sat_at(formula.operand, 0.0)
            return steady_sat_states(self.ctx, inner_sat, formula.bound)
        raise FormulaError(f"not a CSL state formula: {formula!r}")

    def sat_piecewise(
        self, formula: CslFormula, t_end: float
    ) -> PiecewiseSatSet:
        """Time-dependent satisfaction set over ``[0, t_end]`` (Sec. IV-E)."""
        t_end = float(t_end)
        key = (formula, t_end)
        cached = self._sat_cache.get(key)
        if cached is not None:
            self.ctx.stats.formula_memo_hits += 1
            return cached
        result = self._sat_piecewise_uncached(formula, t_end)
        self._sat_cache[key] = result
        return result

    def _sat_piecewise_uncached(
        self, formula: CslFormula, t_end: float
    ) -> PiecewiseSatSet:
        k = self.ctx.num_states
        if isinstance(formula, CslTrue):
            return PiecewiseSatSet.constant(frozenset(range(k)), 0.0, t_end)
        if isinstance(formula, Atomic):
            return PiecewiseSatSet.constant(
                self.ctx.model.local.states_with_label(formula.name), 0.0, t_end
            )
        if isinstance(formula, Not):
            inner = self.sat_piecewise(formula.operand, t_end)
            full = frozenset(range(k))
            return combine([inner], lambda vals: full - vals[0])
        if isinstance(formula, And):
            left = self.sat_piecewise(formula.left, t_end)
            right = self.sat_piecewise(formula.right, t_end)
            return combine([left, right], lambda vals: vals[0] & vals[1])
        if isinstance(formula, Or):
            left = self.sat_piecewise(formula.left, t_end)
            right = self.sat_piecewise(formula.right, t_end)
            return combine([left, right], lambda vals: vals[0] | vals[1])
        if isinstance(formula, Probability):
            curve = self.path_curve(formula.path, t_end)
            boundaries = curve.sat_boundaries(
                formula.bound.threshold,
                grid_points=self.ctx.options.grid_points,
            )
            return PiecewiseSatSet.from_boundaries(
                boundaries,
                lambda t: frozenset(
                    s for s in range(k) if formula.bound.holds(curve.value(t, s))
                ),
                0.0,
                t_end,
            )
        if isinstance(formula, SteadyState):
            # Constant in time (Equation (15)).
            return PiecewiseSatSet.constant(
                self.sat_at(formula, 0.0), 0.0, t_end
            )
        raise FormulaError(f"not a CSL state formula: {formula!r}")

    # ------------------------------------------------------------------
    # Path formulas
    # ------------------------------------------------------------------

    def path_probabilities(
        self, path: PathFormula, t: float = 0.0
    ) -> np.ndarray:
        """``Prob(s, φ, m̄, t)`` for every state — Equations (4)/(7)/(13).

        The vector does not depend on any threshold, so it is memoized
        per ``(path, t)`` and returned read-only.
        """
        t = float(t)
        key = (path, t)
        cached = self._prob_cache.get(key)
        if cached is not None:
            self.ctx.stats.formula_memo_hits += 1
            return cached
        probs = self._path_probabilities_uncached(path, t)
        probs.setflags(write=False)
        self._prob_cache[key] = probs
        return probs

    def _path_probabilities_uncached(
        self, path: PathFormula, t: float
    ) -> np.ndarray:
        if isinstance(path, Until):
            window_end = t + path.interval.upper
            gamma1 = self.sat_piecewise(path.left, window_end)
            gamma2 = self.sat_piecewise(path.right, window_end)
            if self._use_simple(gamma1, gamma2):
                return until_probabilities_simple(
                    self.ctx,
                    gamma1.at(0.0),
                    gamma2.at(0.0),
                    path.interval,
                    t=t,
                )
            solver = TimeVaryingUntil(
                self.ctx, gamma1, gamma2, path.interval, theta=t
            )
            return solver.probabilities(t)
        if isinstance(path, Next):
            operand_sat = self.sat_piecewise(
                path.operand, t + path.interval.upper
            )
            return next_probabilities(self.ctx, operand_sat, path.interval, t=t)
        raise FormulaError(f"not a CSL path formula: {path!r}")

    def path_curve(self, path: PathFormula, theta: float) -> ProbabilityCurve:
        """``Prob(s, φ, m̄, ·)`` as a curve over ``[0, theta]``."""
        theta = float(theta)
        key = (path, theta)
        cached = self._curve_cache.get(key)
        if cached is not None:
            self.ctx.stats.formula_memo_hits += 1
            return cached
        if isinstance(path, Until):
            window_end = theta + path.interval.upper
            gamma1 = self.sat_piecewise(path.left, window_end)
            gamma2 = self.sat_piecewise(path.right, window_end)
            if self._use_simple(gamma1, gamma2):
                curve: ProbabilityCurve = SimpleUntilCurve(
                    self.ctx,
                    gamma1.at(0.0),
                    gamma2.at(0.0),
                    path.interval,
                    theta,
                )
            else:
                curve = TimeVaryingUntil(
                    self.ctx, gamma1, gamma2, path.interval, theta=theta
                ).curve()
        elif isinstance(path, Next):
            operand_sat = self.sat_piecewise(
                path.operand, theta + path.interval.upper
            )
            curve = next_curve(self.ctx, operand_sat, path.interval, theta)
        else:
            raise FormulaError(f"not a CSL path formula: {path!r}")
        self._curve_cache[key] = curve
        return curve

    # ------------------------------------------------------------------

    def _until_sat_bounded(
        self, formula: Probability, t: float
    ) -> "FrozenSet[int] | None":
        """Early-exit ``Sat(P⋈p(Φ1 U^I Φ2), t)`` — ``None`` when inapplicable.

        Delegates to
        :meth:`~repro.checking.nested.TimeVaryingUntil.sat_states_bounded`,
        which replays the goal-chain segment products and stops as soon
        as the running lower/upper bounds on every state's path
        probability decide the comparison against the threshold.  The
        decision margin is widened by :data:`PROBABILITY_TOL` so a verdict
        is only taken early when the eager computation could not
        disagree with it.
        """
        path = formula.path
        if not isinstance(path, Until):
            return None
        window_end = t + path.interval.upper
        gamma1 = self.sat_piecewise(path.left, window_end)
        gamma2 = self.sat_piecewise(path.right, window_end)
        if self._use_simple(gamma1, gamma2):
            return None
        solver = TimeVaryingUntil(
            self.ctx, gamma1, gamma2, path.interval, theta=t
        )
        return solver.sat_states_bounded(
            t, formula.bound, slack=PROBABILITY_TOL
        )

    def _use_simple(
        self, gamma1: PiecewiseSatSet, gamma2: PiecewiseSatSet
    ) -> bool:
        if self.ctx.options.until_method == "nested":
            return False
        return gamma1.is_constant and gamma2.is_constant

    def _steady(self) -> "LocalChecker":
        if self._steady_checker is None:
            self._steady_checker = LocalChecker(self.ctx.steady_context())
        return self._steady_checker

    def _state_index(self, state: "str | int") -> int:
        if isinstance(state, str):
            return self.ctx.model.local.index(state)
        index = int(state)
        if not 0 <= index < self.ctx.num_states:
            raise InvalidStateError(
                f"state index {index} out of range 0..{self.ctx.num_states - 1}"
            )
        return index
