"""Dense, extendable solutions of the occupancy ODE (Equation (1)).

The checkers evaluate the occupancy vector at many, a-priori unknown times
(until windows slide, root finders probe, satisfaction sets are refined on
grids), so re-solving the ODE per query would dominate the cost.  An
:class:`OccupancyTrajectory` therefore solves with dense output, once per
horizon a caller names through :meth:`~OccupancyTrajectory.cover`, and
*extends itself* when read past the current horizon, re-using the final
state of the previous segment as the new initial condition.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.diagnostics import (
    DEFAULT_FALLBACKS,
    DEFAULT_RESIDUAL_TOL,
    DiagnosticTrace,
    check_occupancy_residual,
    robust_solve_ivp,
)
from repro.exceptions import ModelError, NumericalError

DriftFunction = Callable[[float, np.ndarray], np.ndarray]

#: Default solver tolerances; tight because threshold-crossing times
#: (Fig. 3 boundaries like t = 14.5412) are read off these solutions.
DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12

#: The primary method of trajectory solves; ``fallbacks`` follow it
#: when it fails.  Against RK45 at the same tolerances it takes about a
#: fifth of the steps and 40 % fewer drift calls (docs/numerics.md §1).
DEFAULT_METHOD = "DOP853"

#: A read at most this many ulps past the solved end is read at the
#: end: a solver asked to stop at a named horizon can evaluate its last
#: stage at ``t + c·h``, which rounds past that horizon.
END_SLACK_ULPS = 8


def renormalize(m: np.ndarray) -> np.ndarray:
    """``m`` with negative entries clamped to zero, rescaled to sum to one.

    Raises :class:`~repro.exceptions.NumericalError` when no mass is left.
    """
    # ``np.maximum`` is the ufunc ``np.clip(m, 0.0, None)`` calls.
    m = np.maximum(m, 0.0)
    total = m.sum()
    if total <= 0.0:
        raise NumericalError("occupancy vector collapsed to zero mass")
    return m / total


class _Segment:
    """One dense solve_ivp segment ``[t_start, t_end]``."""

    __slots__ = ("t_start", "t_end", "interpolant")

    def __init__(self, t_start: float, t_end: float, interpolant):
        self.t_start = t_start
        self.t_end = t_end
        self.interpolant = interpolant


class OccupancyTrajectory:
    """Callable solution ``t -> m̄(t)`` of ``dm̄/dt = m̄ Q(m̄)``.

    Parameters
    ----------
    drift:
        Right-hand side ``f(t, m) -> dm/dt``.  For a mean-field model this
        is ``m @ Q(m, t)``; the class itself is model-agnostic so the
        discrete-time layer and tests can reuse it.
    initial:
        Occupancy vector at time 0.
    horizon:
        Initial solve horizon (``0`` solves nothing yet).  Reads beyond
        the solved horizon trigger lazy extension in chunks, up to
        ``max_horizon``; :meth:`cover` extends to a named horizon.
    renormalize:
        When ``True`` (default) clip tiny negative components and rescale
        the returned vector to sum to one, guarding downstream code against
        solver drift off the simplex.
    stats:
        Optional :class:`~repro.instrumentation.EvalStats`; when given,
        ``rhs_evaluations`` counts every drift call and
        ``solve_ivp_calls`` every lazy extension.
    method:
        The primary ``solve_ivp`` method.  The checkers keep
        :data:`DEFAULT_METHOD`; a reference solve may name another.
    fallbacks:
        Stiff methods retried (with tightened ``atol``) when the primary
        ``method`` fails; empty disables graceful degradation and
        restores the old die-on-first-failure behaviour.
    trace:
        Optional :class:`~repro.diagnostics.DiagnosticTrace` recording
        every solve attempt and post-solve simplex residual check.
    residual_tol:
        Tolerance of the per-extension simplex residual check.
    budget:
        Optional :class:`~repro.resilience.Budget` charged by every
        extension's solve attempts and checked during them.
    """

    def __init__(
        self,
        drift: DriftFunction,
        initial: np.ndarray,
        horizon: float = 10.0,
        rtol: float = DEFAULT_RTOL,
        atol: float = DEFAULT_ATOL,
        method: str = DEFAULT_METHOD,
        max_horizon: float = 1e6,
        renormalize: bool = True,
        stats=None,
        fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
        trace: Optional[DiagnosticTrace] = None,
        residual_tol: float = DEFAULT_RESIDUAL_TOL,
        budget=None,
    ):
        self._stats = stats
        self._drift = drift
        self._initial = np.asarray(initial, dtype=float).copy()
        self._rtol = rtol
        self._atol = atol
        self._method = method
        self._max_horizon = float(max_horizon)
        self._renormalize = renormalize
        self._fallbacks = tuple(fallbacks)
        self._trace = trace
        self._residual_tol = float(residual_tol)
        self._budget = budget
        self._segments: List[_Segment] = []
        # Segment start times, for binary-search lookup in __call__ /
        # eval_many; entry i is self._segments[i].t_start.
        self._starts: List[float] = []
        self._end_state = self._initial.copy()
        self._end_time = 0.0
        if horizon > 0.0:
            self._extend_to(float(horizon))

    @property
    def initial(self) -> np.ndarray:
        """The initial occupancy vector ``m̄(0)`` (a copy)."""
        return self._initial.copy()

    @property
    def horizon(self) -> float:
        """Largest time solved so far."""
        return self._end_time

    def _extend_to(self, target: float) -> None:
        if target <= self._end_time:
            return
        if target > self._max_horizon:
            raise ModelError(
                f"requested time {target} exceeds max_horizon "
                f"{self._max_horizon}"
            )
        if self._stats is not None:
            self._stats.solve_ivp_calls += 1
        try:
            sol = robust_solve_ivp(
                self._drift,
                (self._end_time, target),
                self._end_state,
                method=self._method,
                rtol=self._rtol,
                atol=self._atol,
                dense_output=True,
                fallbacks=self._fallbacks,
                label="occupancy ODE",
                trace=self._trace,
                budget=self._budget,
                stats=self._stats,
            )
        except NumericalError as exc:
            raise NumericalError(
                f"occupancy ODE solve failed on "
                f"[{self._end_time}, {target}]: {exc}"
            ) from exc
        check_occupancy_residual(
            sol.y[:, -1],
            label=f"occupancy endpoint t={target:g}",
            tol=self._residual_tol,
            trace=self._trace,
        )
        self._segments.append(_Segment(self._end_time, target, sol.sol))
        self._starts.append(self._end_time)
        self._end_time = target
        self._end_state = sol.y[:, -1].copy()

    def cover(self, t: float) -> None:
        """Solve through the horizon ``t`` that a caller will read up to.

        The first solve ends exactly at ``t``, so a query that names its
        horizon before it reads is served by one segment.  A horizon
        past an earlier one extends as a lazy read does, so a trajectory
        asked for ever longer horizons keeps a bounded segment count.
        """
        t = float(t)
        if not self._segments:
            self._extend_to(t)
        else:
            self._ensure_covered(t)

    def _ensure_covered(self, t: float) -> None:
        """Extend the solve so that time ``t`` lies inside a segment."""
        end = self._end_time
        if t <= end:
            return
        if self._segments and t - end <= END_SLACK_ULPS * math.ulp(end):
            # Read at the end (``__call__`` and ``eval_many`` clamp).
            return
        if t > self._max_horizon:
            raise ModelError(
                f"requested time {t} exceeds max_horizon "
                f"{self._max_horizon}"
            )
        # Extend generously to amortize (at least 25% beyond the
        # query) but never past the configured ceiling.
        self._extend_to(min(max(t * 1.25, t + 1.0), self._max_horizon))

    def __call__(self, t: float) -> np.ndarray:
        """Occupancy vector at time ``t`` (lazily extending the solve)."""
        t = float(t)
        if t < 0.0:
            raise ModelError(f"occupancy requested at negative time {t}")
        if t == 0.0:
            return self._normalized(self._initial.copy())
        if not t <= self._end_time:  # NaN too: extending rejects it
            self._ensure_covered(t)
        # The segment containing ``t``: ``bisect_right`` on the starts is
        # ``np.searchsorted(..., side="right")`` without the array call.
        seg = self._segments[max(bisect_right(self._starts, t) - 1, 0)]
        return self._normalized(
            seg.interpolant(min(max(t, seg.t_start), seg.t_end))
        )

    def eval_many(self, ts) -> np.ndarray:
        """Occupancy vectors for a whole array of times at once.

        The vectorized counterpart of ``__call__``: one lazy extension to
        cover ``max(ts)``, one ``searchsorted`` to assign every query to
        its segment, one dense-interpolant call per touched segment, and
        one vectorized renormalization.  Returns shape ``(len(ts), K)``.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ModelError(f"eval_many expects a 1-D time array, got shape {ts.shape}")
        k = self._initial.shape[0]
        if ts.size == 0:
            return np.empty((0, k))
        if float(ts.min()) < 0.0:
            raise ModelError(
                f"occupancy requested at negative time {float(ts.min())}"
            )
        self._ensure_covered(float(ts.max()))
        out = np.empty((ts.size, k))
        if not self._segments:
            # Horizon 0 and all queries at t = 0.
            out[:] = self._initial
            return self._normalized_many(out)
        indices = np.searchsorted(self._starts, ts, side="right") - 1
        np.clip(indices, 0, len(self._segments) - 1, out=indices)
        for idx in np.unique(indices):
            seg = self._segments[idx]
            mask = indices == idx
            clipped = np.clip(ts[mask], seg.t_start, seg.t_end)
            out[mask] = np.asarray(seg.interpolant(clipped)).T
        return self._normalized_many(out)

    def _normalized(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if not self._renormalize:
            return m
        return renormalize(m)

    def _normalized_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized renormalization of a ``(n, K)`` block, in place."""
        if not self._renormalize:
            return values
        np.clip(values, 0.0, None, out=values)
        totals = values.sum(axis=1)
        if np.any(totals <= 0.0):
            raise NumericalError("occupancy vector collapsed to zero mass")
        values /= totals[:, np.newaxis]
        return values

    def grid(self, t_end: float, num: int = 200, t_start: float = 0.0) -> "tuple[np.ndarray, np.ndarray]":
        """Sample the trajectory on a uniform grid.

        Returns ``(times, values)`` with ``values`` of shape
        ``(num, K)`` — convenient for plotting and discontinuity scans.
        Evaluation is batched through :meth:`eval_many`.
        """
        if num < 2:
            raise ModelError(f"grid needs at least 2 points, got {num}")
        times = np.linspace(float(t_start), float(t_end), int(num))
        return times, self.eval_many(times)
