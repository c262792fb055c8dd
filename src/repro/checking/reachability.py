"""Single-until probabilities on the inhomogeneous local model.

Implements Section IV-B of the paper:

- :func:`until_probabilities_simple` — ``Prob(s, Φ1 U^[t1,t2] Φ2, m̄, t)``
  for *time-independent* operand sets, via the two-phase decomposition of
  Equations (4) and (7): a forward-Kolmogorov solve on ``M[¬Φ1]`` over
  ``[t, t+t1]`` followed by one on ``M[¬Φ1 ∨ Φ2]`` over ``[t+t1, t+t2]``;
- :class:`SimpleUntilCurve` — the same probability as a *function of the
  evaluation time* ``t`` (the red/green curves of Figure 3), computed
  either by the window-shift ODE of Equation (6)
  (:class:`~repro.ctmc.inhomogeneous.TransitionMatrixPropagator`) or by
  re-solving from scratch at every ``t`` (cross-check / ablation A3);
- :class:`ProbabilityCurve` — the generic curve wrapper shared with the
  nested algorithm: cached evaluation, grid sampling, and threshold
  crossing refinement;
- :func:`grid_crossings` — the one grid-and-Brent crossing scan, shared
  by ``P⋈p`` satisfaction boundaries and cSat leaves
  (:func:`repro.checking.csat.threshold_intervals`).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from repro.checking.context import HORIZON_MARGIN, EvaluationContext
from repro.checking.transform import absorbing_generator_function
from repro.ctmc.inhomogeneous import TransitionMatrixPropagator
from repro.exceptions import CheckingError, UnsupportedFormulaError
from repro.logic.ast import TimeInterval


def grid_crossings(
    offset: Callable[[float], float],
    a: float,
    b: float,
    grid_points: int,
    offset_many: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    xtol: float = 1e-10,
) -> List[float]:
    """Times in the segment ``[a, b]`` where ``offset`` reaches zero.

    ``offset`` must be continuous on the segment.  It is sampled on a
    uniform grid of ``grid_points`` times strictly inside the segment
    (so a jump at either end is never evaluated), through the vectorized
    ``offset_many`` when given.  A sample exactly at zero is a crossing;
    each sign change between neighbouring samples is refined with
    Brent's method on the scalar ``offset`` to ``xtol``, the one
    crossing tolerance of the checkers.  A window in which the sign flips
    and flips back between two samples is not seen.
    """
    eps = min(1e-9, (b - a) * 1e-6)
    ts = np.linspace(a + eps, b - eps, max(int(grid_points), 3))
    if offset_many is not None:
        vals = offset_many(ts)
    else:
        vals = np.array([offset(t) for t in ts])
    crossings: List[float] = []
    for i in range(len(ts) - 1):
        # A zero sample is a crossing in its own right — including a
        # zero at ``vals[i + 1]``, whose product below is not negative —
        # so a tangential touch is never bracketed, and Brent (which
        # needs a sign change) never gets a zero endpoint.
        if vals[i] == 0.0:
            crossings.append(float(ts[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            crossings.append(
                float(brentq(offset, ts[i], ts[i + 1], xtol=xtol))
            )
    # The last sample is never a ``vals[i]`` above.
    if vals[-1] == 0.0:
        crossings.append(float(ts[-1]))
    return crossings


def _require_bounded(interval: TimeInterval) -> None:
    if not interval.is_bounded:
        raise UnsupportedFormulaError(
            "the mean-field checking algorithms only support time-bounded "
            f"path operators; got interval {interval}"
        )


class ProbabilityCurve:
    """A per-state probability as a function of evaluation time.

    Wraps an ``evaluator(t) -> (K,) array`` with caching, uniform-grid
    sampling and threshold-crossing refinement.  ``discontinuities`` lists
    times where the curve may jump (e.g. inner satisfaction sets change);
    crossing detection then treats each smooth segment separately and adds
    jump points across which the predicate flips.
    """

    def __init__(
        self,
        evaluator: Callable[[float], np.ndarray],
        t_start: float,
        t_end: float,
        num_states: int,
        discontinuities: Sequence[float] = (),
        batch_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        budget=None,
    ):
        self._evaluator = evaluator
        self._batch_evaluator = batch_evaluator
        self._budget = budget
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.num_states = int(num_states)
        self.discontinuities = sorted(
            float(d)
            for d in discontinuities
            if self.t_start < float(d) < self.t_end
        )
        self._cache: dict = {}

    # ------------------------------------------------------------------

    def values(self, t: float) -> np.ndarray:
        """Probabilities for all starting states at evaluation time ``t``."""
        # Hot path: one dict probe per call (the curve is hit once per
        # grid point per crossing scan), so the cache is read with a
        # single ``get`` instead of a membership test plus two lookups.
        t = float(t)
        if t < self.t_start:
            if t < self.t_start - 1e-9:
                raise CheckingError(
                    f"time {t} outside curve range "
                    f"[{self.t_start}, {self.t_end}]"
                )
            t = self.t_start
        elif t > self.t_end:
            if t > self.t_end + 1e-9:
                raise CheckingError(
                    f"time {t} outside curve range "
                    f"[{self.t_start}, {self.t_end}]"
                )
            t = self.t_end
        key = round(t, 12)
        vals = self._cache.get(key)
        if vals is None:
            vals = np.asarray(self._evaluator(t), dtype=float)
            if vals.shape != (self.num_states,):
                raise CheckingError(
                    f"curve evaluator returned shape {vals.shape}, expected "
                    f"({self.num_states},)"
                )
            # The method is ``np.clip`` without its dispatch wrapper.
            vals = vals.clip(0.0, 1.0)
            self._cache[key] = vals
        return vals

    def value(self, t: float, state: int) -> float:
        """Probability for one starting state."""
        return float(self.values(t)[state])

    def values_many(self, ts) -> np.ndarray:
        """Probabilities for a whole array of times — shape ``(n, K)``.

        When the curve was built with a batched evaluator (the sparse
        action-engine curve), all not-yet-cached times are computed in
        one call; otherwise this falls back to per-time evaluation.
        Either way the results land in the same cache :meth:`values`
        uses.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if ts.size == 0:
            return np.zeros((0, self.num_states))
        if self._batch_evaluator is None:
            return np.vstack([self.values(t) for t in ts])
        keys = []
        for t in ts:
            if not (self.t_start - 1e-9 <= t <= self.t_end + 1e-9):
                raise CheckingError(
                    f"time {t} outside curve range "
                    f"[{self.t_start}, {self.t_end}]"
                )
            keys.append(round(min(max(t, self.t_start), self.t_end), 12))
        missing = sorted({k for k in keys if k not in self._cache})
        if missing:
            block = np.asarray(
                self._batch_evaluator(np.array(missing)), dtype=float
            )
            if block.shape != (len(missing), self.num_states):
                raise CheckingError(
                    f"batch evaluator returned shape {block.shape}, "
                    f"expected ({len(missing)}, {self.num_states})"
                )
            for k, row in zip(missing, block):
                self._cache[k] = row.clip(0.0, 1.0)
        return np.vstack([self._cache[k] for k in keys])

    def grid(self, num: int = 200) -> "tuple[np.ndarray, np.ndarray]":
        """Sample the curve on a uniform grid -> ``(times, (num, K))``."""
        times = np.linspace(self.t_start, self.t_end, int(num))
        return times, self.values_many(times)

    # ------------------------------------------------------------------

    def _segments(self) -> List["tuple[float, float]"]:
        points = [self.t_start] + self.discontinuities + [self.t_end]
        return [(a, b) for a, b in zip(points, points[1:]) if b > a]

    def crossing_times(
        self,
        state: int,
        threshold: float,
        grid_points: int = 129,
    ) -> List[float]:
        """All times where ``value(t, state) − threshold`` changes sign.

        Each smooth segment is scanned by :func:`grid_crossings`; jumps
        at declared discontinuities are reported as crossing times when
        the sign differs across them.
        """
        crossings: List[float] = []

        def f(t: float) -> float:
            return self.value(t, state) - threshold

        # values_many batches a whole segment scan through the curve's
        # batch evaluator (sparse actions) when one exists; only Brent
        # refinement evaluates one time at a time.
        def f_many(ts: np.ndarray) -> np.ndarray:
            return self.values_many(ts)[:, state] - threshold

        for a, b in self._segments():
            if self._budget is not None:
                self._budget.checkpoint(
                    f"crossing scan [{a:g}, {b:g}] for state {state}"
                )
            crossings.extend(grid_crossings(f, a, b, grid_points, f_many))
        # Jumps at discontinuities where the predicate flips.
        for d in self.discontinuities:
            before = f(max(self.t_start, d - 1e-9))
            after = f(min(self.t_end, d + 1e-9))
            if (before > 0) != (after > 0):
                crossings.append(float(d))
        return sorted(set(crossings))

    def sat_boundaries(
        self, threshold: float, grid_points: int = 129
    ) -> List[float]:
        """Union of crossing times over all starting states.

        These are the discontinuity points of the satisfaction set of a
        ``P⋈p`` formula wrapping this curve's path formula.
        """
        out: set = set()
        for s in range(self.num_states):
            out.update(
                self.crossing_times(s, threshold, grid_points=grid_points)
            )
        return sorted(out)


# ----------------------------------------------------------------------
# Simple (time-independent operand) until — Section IV-B
# ----------------------------------------------------------------------


def until_probabilities_simple(
    ctx: EvaluationContext,
    gamma1: FrozenSet[int],
    gamma2: FrozenSet[int],
    interval: TimeInterval,
    t: float = 0.0,
) -> np.ndarray:
    """``Prob(s, Φ1 U^I Φ2, m̄, t)`` for every state — Equations (4)/(7).

    ``gamma1``/``gamma2`` are the (constant) satisfaction sets of the
    operands.  ``t`` is the evaluation time relative to the context's
    occupancy trajectory (0 reproduces Equation (4), larger values
    Equation (7)).
    """
    _require_bounded(interval)
    k = ctx.num_states
    all_states = frozenset(range(k))
    q_of_t = ctx.generator_function()
    t1, t2 = interval.lower, interval.upper

    absorbed2 = (all_states - gamma1) | gamma2
    q_phase2 = absorbing_generator_function(q_of_t, absorbed2)
    # Probability, from each phase-2 start state, of sitting in a Γ2 state
    # at the end of the window (Γ2 states are absorbing, so "sitting in"
    # means "reached").  Computed as the right action ``Π_b @ 1_Γ2`` —
    # on the sparse backend no dense Π_b is ever formed.
    if gamma2:
        indicator2 = np.zeros(k)
        indicator2[sorted(gamma2)] = 1.0
        reach_gamma2 = ctx.transient_apply(
            ("absorbing", absorbed2), q_phase2, t + t1, t2 - t1,
            indicator2, side="right",
        )
    else:
        reach_gamma2 = np.zeros(k)

    if t1 <= 0.0:
        if ctx.options.start_convention == "phi1":
            # Example-1 convention: paths must start in a Φ1 state (the
            # literal reading of Equation (4); see CheckOptions).
            mask = np.zeros(k)
            mask[sorted(gamma1)] = 1.0
            return np.clip(reach_gamma2 * mask, 0.0, 1.0)
        return np.clip(reach_gamma2, 0.0, 1.0)
    absorbed1 = all_states - gamma1
    q_phase1 = absorbing_generator_function(q_of_t, absorbed1)
    # Equation (7): mass must sit in a Γ1 state at time t + t1 — mask
    # the phase-2 probabilities to Γ1 and apply Π_a from the right.
    masked = np.zeros(k)
    if gamma1:
        cols1 = sorted(gamma1)
        masked[cols1] = reach_gamma2[cols1]
    if ctx._optimized and not masked.any():
        # Π_a maps the zero vector to zero: Equation (7)'s outer
        # application cannot change the answer, so skip the solve.
        ctx.stats.early_exits += 1
        return masked
    return np.clip(
        ctx.transient_apply(
            ("absorbing", absorbed1), q_phase1, t, t1,
            masked, side="right",
        ),
        0.0,
        1.0,
    )


class SimpleUntilCurve(ProbabilityCurve):
    """``Prob(s, Φ1 U^I Φ2, m̄, t)`` as a function of ``t`` ∈ [0, θ].

    With ``method="propagate"`` the two reachability matrices are advanced
    through evaluation time by the window-shift ODE (6) — one dense solve
    each, O(1) per query afterwards; on the sparse backend the curve is
    served by the shared action engines instead.  With
    ``method="recompute"`` each query re-runs
    :func:`until_probabilities_simple` (slower; used for validation).
    """

    def __init__(
        self,
        ctx: EvaluationContext,
        gamma1: FrozenSet[int],
        gamma2: FrozenSet[int],
        interval: TimeInterval,
        theta: float,
        method: Optional[str] = None,
    ):
        _require_bounded(interval)
        method = method or ctx.options.curve_method
        k = ctx.num_states
        all_states = frozenset(range(k))
        t1, t2 = interval.lower, interval.upper
        theta = float(theta)
        # Make sure the trajectory covers everything we will touch.
        ctx.trajectory.cover(theta + t2 + HORIZON_MARGIN)
        gamma2_cols = sorted(gamma2)

        if ctx.matrix_backend == "sparse" and method == "propagate":
            # Sparse backend: the window-shift ODE integrates (K, K)
            # objects; serve the curve through the shared action
            # engines instead (reach vectors only).  Falls back to the
            # dense machinery when a chain has no sparse transform or
            # the action grid cannot reach tolerance.
            if self._init_sparse(ctx, gamma1, gamma2, t1, t2, theta):
                return

        if method == "propagate":
            q_of_t = ctx.generator_function()
            absorbed2 = (all_states - gamma1) | gamma2
            q_phase2 = absorbing_generator_function(q_of_t, absorbed2)
            # Seed each propagator from the (cached) forward solve, then
            # count its own window-shift solve.
            initial_b = ctx.transient_matrix(
                ("absorbing", absorbed2), q_phase2, t1, t2 - t1
            )
            if theta + t1 > t1:
                ctx.stats.solve_ivp_calls += 1
            prop_b = TransitionMatrixPropagator(
                q_phase2,
                window=t2 - t1,
                t0=t1,
                horizon=theta + t1,
                initial=initial_b,
                rtol=ctx.options.ode_rtol,
                atol=ctx.options.ode_atol,
                trace=ctx.trace,
                budget=ctx.budget,
            )
            prop_a = None
            if t1 > 0.0:
                absorbed1 = all_states - gamma1
                q_phase1 = absorbing_generator_function(q_of_t, absorbed1)
                initial_a = ctx.transient_matrix(
                    ("absorbing", absorbed1), q_phase1, 0.0, t1
                )
                if theta > 0.0:
                    ctx.stats.solve_ivp_calls += 1
                prop_a = TransitionMatrixPropagator(
                    q_phase1,
                    window=t1,
                    t0=0.0,
                    horizon=theta,
                    initial=initial_a,
                    rtol=ctx.options.ode_rtol,
                    atol=ctx.options.ode_atol,
                    trace=ctx.trace,
                    budget=ctx.budget,
                )

            strict_mask = None
            if t1 <= 0.0 and ctx.options.start_convention == "phi1":
                strict_mask = np.array(
                    [1.0 if s in gamma1 else 0.0 for s in range(k)]
                )

            gamma1_cols = sorted(gamma1)

            def evaluator(t: float) -> np.ndarray:
                pi_b = prop_b(t + t1)
                reach = (
                    pi_b[:, gamma2_cols].sum(axis=1)
                    if gamma2_cols
                    else np.zeros(k)
                )
                if prop_a is None:
                    if strict_mask is not None:
                        return reach * strict_mask
                    return reach
                pi_a = prop_a(t)
                if not gamma1_cols:
                    return np.zeros(k)
                return pi_a[:, gamma1_cols] @ reach[gamma1_cols]

        elif method == "recompute":

            def evaluator(t: float) -> np.ndarray:
                return until_probabilities_simple(
                    ctx, gamma1, gamma2, interval, t=t
                )

        else:
            raise CheckingError(f"unknown curve method {method!r}")

        super().__init__(evaluator, 0.0, theta, k, budget=ctx.budget)

    def _init_sparse(
        self,
        ctx: EvaluationContext,
        gamma1: FrozenSet[int],
        gamma2: FrozenSet[int],
        t1: float,
        t2: float,
        theta: float,
    ) -> bool:
        """Build the curve on the sparse action engines; ``True`` on success.

        The evaluator pushes the ``Γ2`` indicator through
        ``Π_b(t + t1, t + t2)`` as a right action, masks to ``Γ1`` and
        (for ``t1 > 0``) pushes through ``Π_a(t, t + t1)`` — reach
        *vectors* all the way, so curve evaluation at K ~ 10³–10⁴ costs
        O(cells · nnz) per query instead of O(K²) storage.  Returns
        ``False`` (leaving the curve unbuilt) when an engine is missing
        or its grid cannot reach tolerance; the caller then uses the
        dense machinery.
        """
        from repro.exceptions import NumericalError

        k = ctx.num_states
        all_states = frozenset(range(k))
        absorbed2 = (all_states - gamma1) | gamma2
        engine_b = ctx.action_engine(("absorbing", absorbed2))
        engine_a = None
        if t1 > 0.0:
            engine_a = ctx.action_engine(("absorbing", all_states - gamma1))
            if engine_a is None:
                return False
        if engine_b is None:
            return False
        try:
            engine_b.ensure(t1, theta + t2, window=t2 - t1)
            if engine_a is not None:
                engine_a.ensure(0.0, theta + t1, window=t1)
        except NumericalError as exc:
            ctx.trace.note(
                f"sparse until curve: action grid failed ({exc}); "
                "using the dense curve machinery"
            )
            return False

        gamma1_cols = sorted(gamma1)
        gamma2_cols = sorted(gamma2)
        indicator2 = np.zeros(k)
        indicator2[gamma2_cols] = 1.0
        strict_mask = None
        if t1 <= 0.0 and ctx.options.start_convention == "phi1":
            strict_mask = np.zeros(k)
            strict_mask[gamma1_cols] = 1.0

        # Each window end is its start plus the window length, never
        # ``t + t2``: the two can differ in the last bit.
        def _finish(reach: np.ndarray, t: float) -> np.ndarray:
            if engine_a is None:
                if strict_mask is not None:
                    return reach * strict_mask
                return reach
            if not gamma1_cols:
                return np.zeros(k)
            masked = np.zeros(k)
            masked[gamma1_cols] = reach[gamma1_cols]
            return engine_a.apply(masked, t, t + t1, side="right")

        def evaluator(t: float) -> np.ndarray:
            a = t + t1
            reach = engine_b.apply(indicator2, a, a + (t2 - t1), side="right")
            return _finish(reach, t)

        def batch_evaluator(ts: np.ndarray) -> np.ndarray:
            ts = np.asarray(ts, dtype=float)
            reaches = engine_b.apply_many(
                ts + t1, t2 - t1, indicator2, side="right"
            )
            return np.vstack(
                [_finish(reaches[i], float(t)) for i, t in enumerate(ts)]
            )

        super().__init__(
            evaluator, 0.0, theta, k,
            batch_evaluator=batch_evaluator,
            budget=ctx.budget,
        )
        return True
