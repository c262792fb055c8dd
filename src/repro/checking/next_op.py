"""The timed next operator ``X^I Φ`` on the inhomogeneous local model.

The paper omits next from its worked algorithms (Section IV-A, referring
to Bortolussi & Hillston [19] for the fluid treatment); this module
supplies the missing piece so the full CSL syntax of Definition 3 is
checkable.

By Definition 4, a path satisfies ``X^I Φ`` iff its first jump happens at
a sojourn time ``δ ∈ I`` *and* lands in a state satisfying ``Φ`` at the
occupancy in force at the jump moment.  For start state ``s`` at
evaluation time ``t`` this is the integral

.. math::

    \\int_{a}^{b} L_s(τ) \\sum_{s' \\in Sat(Φ, m̄, t+τ)} Q_{s,s'}(m̄(t+τ)) \\, dτ,
    \\qquad
    L_s(τ) = \\exp\\Big(-\\int_0^{τ} q_s(m̄(t+u))\\,du\\Big)

with ``q_s`` the exit rate of ``s``.  The integral is evaluated by an
auxiliary ODE (survival probability and accumulator per state), split at
``τ = a`` and at every discontinuity of the operand's satisfaction set.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.checking.context import HORIZON_MARGIN, EvaluationContext
from repro.checking.reachability import ProbabilityCurve, _require_bounded
from repro.checking.satsets import PiecewiseSatSet
from repro.diagnostics import robust_solve_ivp
from repro.logic.ast import TimeInterval


def next_probabilities(
    ctx: EvaluationContext,
    operand_sat: PiecewiseSatSet,
    interval: TimeInterval,
    t: float = 0.0,
) -> np.ndarray:
    """``Prob(s, X^I Φ, m̄, t)`` for every starting state ``s``.

    Parameters
    ----------
    operand_sat:
        Piecewise satisfaction set of ``Φ`` covering at least
        ``[t, t + interval.upper]``.
    """
    _require_bounded(interval)
    t = float(t)
    k = ctx.num_states
    a, b = interval.lower, interval.upper
    if b <= 0.0:
        # Interval [0, 0]: the probability of a jump at an exact instant
        # is zero.
        return np.zeros(k)
    ctx.trajectory.cover(t + b)
    q_of_t = ctx.generator_function()
    rtol, atol = ctx.options.ode_rtol, ctx.options.ode_atol

    # Segment the integration at tau = a and at satisfaction-set changes.
    cuts = {a} if 0.0 < a < b else set()
    for boundary in operand_sat.boundaries():
        tau = boundary - t
        if 0.0 < tau < b:
            cuts.add(tau)
    points: List[float] = [0.0] + sorted(cuts) + [b]

    survival = np.ones(k)
    acc = np.zeros(k)
    for u, v in zip(points, points[1:]):
        if v - u <= 1e-12:
            continue
        active = 0.5 * (u + v) >= a - 1e-12
        sat_states = sorted(operand_sat.at(t + 0.5 * (u + v)))

        def rhs(tau: float, y: np.ndarray) -> np.ndarray:
            q = np.asarray(q_of_t(t + tau), dtype=float)
            exit_rates = -np.diag(q)
            surv = y[:k]
            d_surv = -exit_rates * surv
            if active and sat_states:
                into_sat = q[:, sat_states].sum(axis=1)
                # Exclude the self entry when s itself satisfies Φ: the
                # diagonal of Q is negative and not a jump rate.
                for s in sat_states:
                    into_sat[s] -= q[s, s]
                d_acc = surv * into_sat
            else:
                d_acc = np.zeros(k)
            return np.concatenate([d_surv, d_acc])

        ctx.stats.solve_ivp_calls += 1
        # A failed chain raises "next-operator integral failed on
        # [u, v] after ..." from the label.
        sol = robust_solve_ivp(
            rhs,
            (u, v),
            np.concatenate([survival, acc]),
            method="RK45",
            rtol=rtol,
            atol=atol,
            label="next-operator integral",
            trace=ctx.trace,
            budget=ctx.budget,
        )
        survival = sol.y[:k, -1]
        acc = sol.y[k:, -1]
    return np.clip(acc, 0.0, 1.0)


def next_curve(
    ctx: EvaluationContext,
    operand_sat: PiecewiseSatSet,
    interval: TimeInterval,
    theta: float,
) -> ProbabilityCurve:
    """``Prob(s, X^I Φ, m̄, t)`` as a function of the evaluation time.

    Evaluated by re-running :func:`next_probabilities` per query; next
    integrals are cheap (one K-dimensional ODE over the interval length).
    Curve jumps can occur when the shifted window endpoints cross operand
    discontinuities.
    """
    theta = float(theta)
    ctx.trajectory.cover(theta + interval.upper + HORIZON_MARGIN)
    discontinuities = []
    for e in operand_sat.boundaries():
        for shift in (interval.lower, interval.upper):
            t_jump = e - shift
            if 0.0 < t_jump < theta:
                discontinuities.append(t_jump)
    return ProbabilityCurve(
        lambda t: next_probabilities(ctx, operand_sat, interval, t=t),
        0.0,
        theta,
        ctx.num_states,
        discontinuities=discontinuities,
        budget=ctx.budget,
    )
