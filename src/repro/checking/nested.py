"""Time-varying-set reachability — Section IV-C and the Appendix.

When an until operand is itself time-dependent (a nested ``P`` formula),
its satisfaction set ``Γ`` changes at finitely many discontinuity points
``T_i``.  :class:`TimeVaryingUntil` computes

.. math::

    Prob(s, Φ_1 U^{[t_1, t_2]} Φ_2, m̄, t)

for piecewise-constant satisfaction sets ``Γ1 = Sat(Φ1, m̄, ·)`` and
``Γ2 = Sat(Φ2, m̄, ·)``:

- :meth:`TimeVaryingUntil.upsilon` — the matrix ``Υ(a, b)`` of
  Equation (9): the ordered product of goal-chain transient matrices
  ``Π'`` over the sub-intervals between discontinuity points, interleaved
  with the carry-over matrices ``ζ(T_i)``;
- :meth:`TimeVaryingUntil.survival` — the analogous product for the
  first phase (staying in ``Γ1`` until time ``t + t_1``), needed when the
  until interval does not start at zero;
- :meth:`TimeVaryingUntil.probabilities` — Equation (10)/(13):
  ``Υ_{s,s*}`` plus the start-in-``Γ2`` indicator, combined across the
  two phases;
- :meth:`TimeVaryingUntil.curve` — the probability as a function of the
  evaluation time ``t``.  With ``curve_method="propagate"`` (and
  ``t_1 = 0``) this follows the Appendix algorithm: between event times
  the matrix ``Υ(t, t+T)`` evolves by the coupled Kolmogorov ODE (12),
  and whenever ``t`` or ``t+T`` hits a discontinuity point the matrix is
  re-assembled from the piecewise products.  ``"recompute"`` rebuilds the
  product at every evaluation time (the brute-force cross-check, and the
  fallback for ``t_1 > 0``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.checking.context import HORIZON_MARGIN, EvaluationContext
from repro.diagnostics import robust_solve_ivp
from repro.checking.reachability import ProbabilityCurve, _require_bounded
from repro.checking.satsets import PiecewiseSatSet
from repro.checking.transform import (
    UntilPartition,
    absorbing_generator,
    goal_generator,
    goal_generator_function,
    goal_generator_literal,
    survival_zeta,
    zeta_matrix,
    zeta_matrix_literal,
)
from repro.exceptions import CheckingError, NumericalError
from repro.logic.ast import TimeInterval

#: Events closer together than this are treated as a single event.
EVENT_EPS = 1e-9


class TimeVaryingUntil:
    """Until probabilities for piecewise-constant operand sets.

    Parameters
    ----------
    ctx:
        Evaluation context (fixes ``m̄`` and hence the trajectory).
    gamma1, gamma2:
        Piecewise satisfaction sets of the operands; both must cover at
        least ``[0, theta + interval.upper]``.
    interval:
        The until's time interval ``[t1, t2]`` (bounded).
    theta:
        Largest evaluation time the curve will be asked for.
    """

    def __init__(
        self,
        ctx: EvaluationContext,
        gamma1: PiecewiseSatSet,
        gamma2: PiecewiseSatSet,
        interval: TimeInterval,
        theta: float = 0.0,
    ):
        _require_bounded(interval)
        self.ctx = ctx
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.interval = interval
        self.theta = float(theta)
        needed = self.theta + interval.upper
        for name, sat in (("gamma1", gamma1), ("gamma2", gamma2)):
            if sat.t_end < needed - 1e-9:
                raise CheckingError(
                    f"{name} covers only up to {sat.t_end}, need {needed}"
                )
        ctx.trajectory.cover(needed + HORIZON_MARGIN)
        self._q_of_t = ctx.generator_function()
        self._k = ctx.num_states

    # ------------------------------------------------------------------

    def _events_in(self, a: float, b: float) -> List[float]:
        """Discontinuity points of either set strictly inside ``(a, b)``."""
        events = set()
        for boundary in self.gamma1.boundaries() + self.gamma2.boundaries():
            if a + EVENT_EPS < boundary < b - EVENT_EPS:
                events.add(boundary)
        return sorted(events)

    def _partition_at(self, tau: float) -> UntilPartition:
        return UntilPartition.from_sets(
            self._k, self.gamma1.at(tau), self.gamma2.at(tau)
        )

    # ------------------------------------------------------------------
    # Equation (9): the goal-chain product
    # ------------------------------------------------------------------

    def upsilon(self, a: float, b: float) -> np.ndarray:
        """``Υ(a, b)``: goal-chain reachability over the absolute window."""
        a, b = float(a), float(b)
        if b < a:
            raise CheckingError(f"empty window [{a}, {b}]")
        if b == a:
            return np.eye(self._k + 1)
        points = [a] + self._events_in(a, b) + [b]
        result = np.eye(self._k + 1)
        prev_partition: Optional[UntilPartition] = None
        budget = self.ctx.budget
        for index, (u, v) in enumerate(zip(points, points[1:])):
            if budget is not None:
                budget.checkpoint(
                    f"goal-chain segment {index + 1}/{len(points) - 1}"
                )
            partition = self._partition_at(0.5 * (u + v))
            if prev_partition is not None:
                result = result @ zeta_matrix(prev_partition, partition)
            pi = self.ctx.transient_matrix(
                ("goal", partition),
                goal_generator_function(self._q_of_t, partition),
                u,
                v - u,
            )
            result = result @ pi
            prev_partition = partition
        return result

    def upsilon_literal(self, a: float, b: float) -> np.ndarray:
        """``Υ(a, b)`` under the paper's *literal* chain construction.

        Uses :func:`~repro.checking.transform.goal_generator_literal` and
        the all-zero-but-``(s*, s*)`` carry-over matrices exactly as
        printed in the paper's worked example.  Only meaningful for
        reproducing those intermediate matrices; the probabilities
        returned by :meth:`probabilities` always use the corrected
        construction.
        """
        a, b = float(a), float(b)
        if b < a:
            raise CheckingError(f"empty window [{a}, {b}]")
        if b == a:
            return np.eye(self._k + 1)
        points = [a] + self._events_in(a, b) + [b]
        result = np.eye(self._k + 1)
        first = True
        for u, v in zip(points, points[1:]):
            partition = self._partition_at(0.5 * (u + v))
            if not first:
                result = result @ zeta_matrix_literal(self._k)
            pi = self.ctx.transient_matrix(
                ("goal-literal", partition),
                lambda t, _p=partition: goal_generator_literal(
                    np.asarray(self._q_of_t(t), dtype=float), _p
                ),
                u,
                v - u,
            )
            result = result @ pi
            first = False
        return result

    # ------------------------------------------------------------------
    # Phase one: staying inside Γ1 over [a, b]
    # ------------------------------------------------------------------

    def survival(self, a: float, b: float) -> np.ndarray:
        """Probability matrix of surviving in ``Γ1`` throughout ``[a, b]``.

        Entry ``[s, s1]`` is the probability of being in ``s1`` at ``b``
        having stayed in ``Γ1`` states the whole time, starting from ``s``
        at ``a``.  Columns of states outside ``Γ1(b)`` are zeroed (mass
        there belongs to dead paths).
        """
        a, b = float(a), float(b)
        if b < a:
            raise CheckingError(f"empty window [{a}, {b}]")
        k = self._k
        all_states = frozenset(range(k))
        if b == a:
            live = self.gamma1.at(a)
            return np.diag([1.0 if s in live else 0.0 for s in range(k)])
        events = [
            e
            for e in self.gamma1.boundaries()
            if a + EVENT_EPS < e < b - EVENT_EPS
        ]
        points = [a] + sorted(events) + [b]
        result = np.eye(k)
        prev_live: Optional[frozenset] = None
        for u, v in zip(points, points[1:]):
            live = frozenset(self.gamma1.at(0.5 * (u + v)))
            if prev_live is not None:
                result = result @ survival_zeta(k, prev_live, live)

            def q_mod(t: float, _live=live) -> np.ndarray:
                return absorbing_generator(
                    np.asarray(self._q_of_t(t), dtype=float),
                    all_states - _live,
                )

            pi = self.ctx.transient_matrix(
                ("absorbing", all_states - live), q_mod, u, v - u
            )
            result = result @ pi
            prev_live = live
        # Keep only mass sitting in currently-live states.
        final_live = self.gamma1.at(b)
        mask = np.array([1.0 if s in final_live else 0.0 for s in range(k)])
        return result * mask[np.newaxis, :]

    # ------------------------------------------------------------------
    # Equations (10)/(13): per-start-state probabilities
    # ------------------------------------------------------------------

    def _base_from_upsilon(self, ups: np.ndarray, window_start: float) -> np.ndarray:
        """``Υ_{s,s*} + 1{s ∈ Γ2(window_start)}`` for every local state."""
        k = self._k
        in_gamma2 = self.gamma2.at(window_start)
        base = ups[:k, k].copy()
        for s in in_gamma2:
            base[s] = 1.0
        return np.clip(base, 0.0, 1.0)

    def sat_states_bounded(
        self,
        t: float,
        bound,
        slack: float = 0.0,
    ) -> "Optional[frozenset]":
        """States whose ``P⋈p`` verdict at ``t``, decided as early as possible.

        Replays the goal-chain product of :meth:`upsilon` segment by
        segment, maintaining rigorous per-state bounds on the final
        reachability probability: the goal column of the partial product
        is a lower bound (goal mass never leaves), and adding the mass
        still sitting in the current partition's live columns gives the
        upper bound (only live states can still feed the goal — the
        carry-over matrices annihilate success/fail rows).  As soon as
        every state's bound interval clears the threshold by more than
        ``slack``, the comparison is decided and the remaining segments
        are never solved; the stopping certificate is recorded in the
        trace and counted in ``EvalStats.early_exits`` /
        ``segments_skipped``.

        Falls through to the exact full product — reproducing
        :meth:`probabilities` bit for bit — when the bounds never decide
        early, and returns ``None`` for ``t1 > 0`` windows (the survival
        phase couples states across the product, so per-state bounds do
        not close there).
        """
        t = float(t)
        t1, t2 = self.interval.lower, self.interval.upper
        if t1 > 0.0:
            return None
        a, b = t + t1, t + t2
        k = self._k
        strict = self.ctx.options.start_convention == "phi1"
        gamma1_now = self.gamma1.at(t) if strict else None
        in_gamma2 = self.gamma2.at(a)
        # States whose value is pinned before any transient work: the
        # phi1 convention zeroes states outside Γ1(t), and Γ2(a) states
        # are exactly 1 (Equation (13)'s indicator plus the final clip).
        pinned = {}
        for s in range(k):
            if strict and s not in gamma1_now:
                pinned[s] = 0.0
            elif s in in_gamma2:
                pinned[s] = 1.0
        undecided = [s for s in range(k) if s not in pinned]
        holds = {s: bound.holds(v) for s, v in pinned.items()}
        stats = self.ctx.stats
        if b <= a + EVENT_EPS:
            # Degenerate window: Υ is the identity, every other state is 0.
            for s in undecided:
                holds[s] = bound.holds(0.0)
            return frozenset(s for s, h in holds.items() if h)
        points = [a] + self._events_in(a, b) + [b]
        total = len(points) - 1
        if not undecided:
            stats.early_exits += 1
            stats.segments_skipped += total
            self.ctx.trace.note(
                f"early exit: P{bound} at t={t:g} decided structurally "
                f"(all states pinned), {total} goal-chain segments skipped"
            )
            return frozenset(s for s, h in holds.items() if h)
        threshold = float(bound.threshold)
        upper_verdict = not bound.is_upper_bound
        result = np.eye(k + 1)
        prev_partition: Optional[UntilPartition] = None
        budget = self.ctx.budget
        for index, (u, v) in enumerate(zip(points, points[1:])):
            if budget is not None:
                budget.checkpoint(
                    f"goal-chain segment {index + 1}/{total} (bounded)"
                )
            partition = self._partition_at(0.5 * (u + v))
            if prev_partition is not None:
                result = result @ zeta_matrix(prev_partition, partition)
            pi = self.ctx.transient_matrix(
                ("goal", partition),
                goal_generator_function(self._q_of_t, partition),
                u,
                v - u,
            )
            result = result @ pi
            prev_partition = partition
            if index + 1 >= total:
                break
            live_cols = sorted(partition.live)
            lo = np.clip(result[:k, k], 0.0, 1.0)
            if live_cols:
                hi = np.clip(
                    result[:k, k] + result[:k, live_cols].sum(axis=1),
                    0.0,
                    1.0,
                )
            else:
                hi = lo
            still_open = []
            for s in undecided:
                if lo[s] >= threshold + slack:
                    holds[s] = upper_verdict
                elif hi[s] <= threshold - slack:
                    holds[s] = not upper_verdict
                else:
                    still_open.append(s)
            undecided = still_open
            if not undecided:
                skipped = total - (index + 1)
                stats.early_exits += 1
                stats.segments_skipped += skipped
                self.ctx.trace.note(
                    f"early exit: P{bound} at t={t:g} decided after "
                    f"{index + 1}/{total} goal-chain segments "
                    f"(probability bounds cleared the threshold by > "
                    f"{slack:g}; {skipped} segments skipped)"
                )
                return frozenset(s for s, h in holds.items() if h)
        # No early decision: finish exactly as the eager path would.
        base = self._base_from_upsilon(result, a)
        if strict:
            for s in range(k):
                if s not in gamma1_now:
                    base[s] = 0.0
        for s in undecided:
            holds[s] = bound.holds(base[s])
        return frozenset(s for s, h in holds.items() if h)

    def probabilities(self, t: float = 0.0) -> np.ndarray:
        """``Prob(s, Φ1 U^I Φ2, m̄, t)`` for every state — Equation (13)."""
        t = float(t)
        t1, t2 = self.interval.lower, self.interval.upper
        a, b = t + t1, t + t2
        base = self._base_from_upsilon(self.upsilon(a, b), a)
        if t1 <= 0.0:
            if self.ctx.options.start_convention == "phi1":
                mask = np.array(
                    [
                        1.0 if s in self.gamma1.at(t) else 0.0
                        for s in range(self._k)
                    ]
                )
                return base * mask
            return base
        surv = self.survival(t, a)
        return np.clip(surv @ base, 0.0, 1.0)

    # ------------------------------------------------------------------
    # The curve over evaluation time
    # ------------------------------------------------------------------

    def _curve_discontinuities(self) -> List[float]:
        """Evaluation times where the probability may jump.

        Jumps happen when the start of either phase window crosses an
        event (the indicator and partition change discontinuously).
        """
        t1, t2 = self.interval.lower, self.interval.upper
        events = set(self.gamma1.boundaries()) | set(self.gamma2.boundaries())
        out = set()
        for e in events:
            for shift in (0.0, t1, t2):
                t = e - shift
                if EVENT_EPS < t < self.theta - EVENT_EPS:
                    out.add(t)
        return sorted(out)

    def curve(self, method: Optional[str] = None) -> ProbabilityCurve:
        """The probability as a function of ``t`` over ``[0, theta]``.

        ``method`` is one of the ``curve_method`` options:
        ``"propagate"`` (Appendix ODE (12), for ``t1 = 0``; other
        windows recompute) or ``"recompute"`` (fresh Kolmogorov solves
        per evaluation time).
        """
        method = method or self.ctx.options.curve_method
        if method == "propagate" and self.interval.lower <= 0.0:
            return self._curve_propagate()
        return ProbabilityCurve(
            self.probabilities,
            0.0,
            self.theta,
            self._k,
            discontinuities=self._curve_discontinuities(),
            budget=self.ctx.budget,
        )

    def _curve_propagate(self) -> ProbabilityCurve:
        """Appendix algorithm: advance ``Υ(t, t+T)`` by ODE (12).

        Only used for ``t1 = 0`` windows (single reachability window); the
        segment boundaries are all evaluation times at which ``t`` or
        ``t + T`` hits a satisfaction-set discontinuity, and ``Υ`` is
        re-assembled from the product formula at each boundary.
        """
        T = self.interval.upper
        k = self._k
        rtol, atol = self.ctx.options.ode_rtol, self.ctx.options.ode_atol
        breakpoints = [0.0] + self._curve_discontinuities() + [self.theta]
        pairs = list(zip(breakpoints, breakpoints[1:]))

        def build_segment(u: float, v: float) -> tuple:
            ups_u = self.upsilon(u, u + T)
            if v - u <= EVENT_EPS:
                return (u, v, None, ups_u)

            def rhs(t: float, y: np.ndarray) -> np.ndarray:
                ups = y.reshape(k + 1, k + 1)
                q_left = goal_generator(
                    np.asarray(self._q_of_t(t), dtype=float),
                    self._partition_at(t),
                )
                q_right = goal_generator(
                    np.asarray(self._q_of_t(t + T), dtype=float),
                    self._partition_at(t + T),
                )
                return (-q_left @ ups + ups @ q_right).reshape(-1)

            self.ctx.stats.solve_ivp_calls += 1
            try:
                sol = robust_solve_ivp(
                    rhs,
                    (u, v),
                    ups_u.reshape(-1),
                    method="RK45",
                    rtol=rtol,
                    atol=atol,
                    dense_output=True,
                    label="Appendix ODE (12)",
                    trace=self.ctx.trace,
                    budget=self.ctx.budget,
                )
            except NumericalError as exc:
                raise NumericalError(
                    f"Appendix ODE (12) solve failed on [{u}, {v}]: {exc}"
                ) from exc
            return (u, v, sol.sol, ups_u)

        segments = [build_segment(u, v) for u, v in pairs]

        strict = self.ctx.options.start_convention == "phi1"

        def evaluator(t: float) -> np.ndarray:
            t = float(t)
            ups = None
            for u, v, dense, ups_u in segments:
                if u - 1e-9 <= t <= v + 1e-9:
                    if dense is None or t <= u:
                        ups = ups_u
                    else:
                        ups = dense(min(t, v)).reshape(k + 1, k + 1)
                    break
            if ups is None:  # pragma: no cover - guarded by curve range
                raise CheckingError(f"no Υ segment covers t={t}")
            base = self._base_from_upsilon(ups, t)
            if strict:
                mask = np.array(
                    [1.0 if s in self.gamma1.at(t) else 0.0 for s in range(k)]
                )
                return base * mask
            return base

        return ProbabilityCurve(
            evaluator,
            0.0,
            self.theta,
            k,
            discontinuities=self._curve_discontinuities(),
            budget=self.ctx.budget,
        )
