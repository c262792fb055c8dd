"""Numerical robustness and self-verification diagnostics.

Every quantitative answer this library produces bottoms out in a handful
of ``scipy.integrate.solve_ivp`` calls (the Equation (1) occupancy flow,
the Equation (4)–(7) Kolmogorov solves, the Appendix window-shift ODEs)
plus a few root finds.  Fluid Model Checking (Bortolussi & Hillston) and
Spieler et al.'s CSL work on population models both stress that
time-inhomogeneous reachability is only as trustworthy as its error
control — so this module makes the pipeline *verify* its solves instead
of hoping:

- :func:`robust_solve_ivp` — graceful degradation.  When the primary
  (explicit) method fails — ``sol.success`` false, a floating-point
  exception out of the right-hand side, or a non-finite solution — the
  solve is retried on stiff methods (``Radau``, then ``LSODA`` by
  default) with a tightened absolute tolerance.  Every attempt is
  recorded; only when the whole chain fails does a
  :class:`~repro.exceptions.NumericalError` carrying the full attempt
  history escape.

- Simplex / stochasticity residual checks
  (:func:`check_occupancy_residual`, :func:`check_transient_residual`) —
  self-verification.  Occupancy vectors must stay on the probability
  simplex; transient matrices ``Π(t', t'+T)`` must be (sub)stochastic and
  — when absorbing states are declared — have monotonically
  non-decreasing absorbed mass (the CDF invariant behind Equations (5)
  and (7)).  Violations beyond the configured tolerance are recorded as
  warnings, never silently dropped.

- :class:`DiagnosticTrace` — the structured record of all of the above,
  shared by every context derived from one checking run (like
  :class:`~repro.instrumentation.EvalStats`, which it also feeds).  The
  ``mfcsl check --diagnose`` CLI flag renders it via :meth:`format`.

- :class:`DenseSolution` — the reader every dense solve hands out: a
  scalar time is read with scipy's own arithmetic, without scipy's
  per-call wrappers (docs/numerics.md §7).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput, RkDenseOutput

from repro.exceptions import NumericalError
from repro.resilience import RHS_CHECK_INTERVAL, Budget

#: Stiff methods tried, in order, after the primary method fails.
DEFAULT_FALLBACKS: Tuple[str, ...] = ("Radau", "LSODA")

#: Fallback attempts tighten the absolute tolerance by this factor …
FALLBACK_ATOL_FACTOR = 1e-2
#: … but never below this floor.
MIN_ATOL = 1e-14

#: Default tolerance for the probability-simplex residual checks.
DEFAULT_RESIDUAL_TOL = 1e-6


@dataclass
class SolveAttempt:
    """One ``solve_ivp`` invocation inside a :class:`SolveRecord`."""

    method: str
    rtol: float
    atol: float
    success: bool
    message: str = ""


@dataclass
class SolveRecord:
    """The attempt chain of one logical ODE solve."""

    label: str
    t_start: float
    t_end: float
    attempts: List[SolveAttempt] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].success

    @property
    def fallbacks(self) -> int:
        """Retries beyond the primary attempt."""
        return max(0, len(self.attempts) - 1)

    def describe(self) -> str:
        parts = []
        for att in self.attempts:
            status = "ok" if att.success else f"FAILED ({att.message})"
            parts.append(f"{att.method} {status}")
        chain = " -> ".join(parts)
        tag = "  [fallback]" if self.fallbacks and self.success else ""
        return f"{self.label} [{self.t_start:g}, {self.t_end:g}]: {chain}{tag}"


@dataclass
class ResidualRecord:
    """One simplex / stochasticity self-verification check.

    ``row_sum_error`` is the largest ``|row sum − 1|``; ``negativity``
    the magnitude of the most negative entry (0 when none);
    ``monotone_violation`` the largest decrease of absorbed mass between
    consecutive solver steps (0 when not applicable or none).
    """

    label: str
    row_sum_error: float
    negativity: float
    monotone_violation: float
    tol: float

    @property
    def ok(self) -> bool:
        return (
            self.row_sum_error <= self.tol
            and self.negativity <= self.tol
            and self.monotone_violation <= self.tol
        )

    def describe(self) -> str:
        status = "ok" if self.ok else "WARN"
        return (
            f"{self.label}: row-sum {self.row_sum_error:.2e}, "
            f"negativity {self.negativity:.2e}, "
            f"monotone {self.monotone_violation:.2e} "
            f"(tol {self.tol:.0e}) {status}"
        )


@dataclass
class DowngradeRecord:
    """One descent of the transient backend ladder.

    Records which backend failed (``from_rung``), what the computation
    fell back to (``to_rung``) and why.  The checker records only
    ``sparse -> ode`` descents; both backends are tolerance-controlled,
    so a descent changes the cost of a window, never the verdict.
    """

    from_rung: str
    to_rung: str
    reason: str

    def describe(self) -> str:
        return f"{self.from_rung} -> {self.to_rung}: {self.reason}"


class DiagnosticTrace:
    """Structured record of solver choices, fallbacks, residual checks
    and backend downgrades.

    One trace hangs off every
    :class:`~repro.checking.context.EvaluationContext` as ``ctx.trace``
    and is shared with derived contexts, mirroring how ``ctx.stats``
    aggregates counters over a logical checking run.  When built with a
    ``stats`` reference it also feeds the
    ``solver_fallbacks`` / ``residual_checks`` / ``residual_warnings`` /
    ``ladder_downgrades`` counters of
    :class:`~repro.instrumentation.EvalStats`.  The trace explains how
    an answer was computed; verdicts never read it.
    """

    def __init__(self, stats=None):
        self.stats = stats
        self.solves: List[SolveRecord] = []
        self.residuals: List[ResidualRecord] = []
        self.notes: List[str] = []
        self.downgrades: List[DowngradeRecord] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_solve(self, record: SolveRecord) -> None:
        self.solves.append(record)
        if self.stats is not None:
            self.stats.solver_fallbacks += record.fallbacks

    def record_residual(self, record: ResidualRecord) -> None:
        self.residuals.append(record)
        if self.stats is not None:
            self.stats.residual_checks += 1
            if not record.ok:
                self.stats.residual_warnings += 1

    def note(self, message: str) -> None:
        """Free-form diagnostic note (steady-state residuals, MC bounds…)."""
        self.notes.append(str(message))

    def downgrade(
        self, from_rung: str, to_rung: str, reason: str
    ) -> DowngradeRecord:
        """Record one descent of the transient backend ladder."""
        record = DowngradeRecord(
            from_rung=from_rung, to_rung=to_rung, reason=str(reason)
        )
        self.downgrades.append(record)
        if self.stats is not None:
            self.stats.ladder_downgrades += 1
        return record

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_fallbacks(self) -> int:
        """Total retries beyond primary attempts, across all solves."""
        return sum(rec.fallbacks for rec in self.solves)

    @property
    def warnings(self) -> List[str]:
        """Human-readable descriptions of every failed residual check."""
        return [rec.describe() for rec in self.residuals if not rec.ok]

    def residual_maxima(self) -> "dict[str, float]":
        """Worst observed residuals across all checks (0 when none ran)."""
        if not self.residuals:
            return {"row_sum": 0.0, "negativity": 0.0, "monotone": 0.0}
        return {
            "row_sum": max(r.row_sum_error for r in self.residuals),
            "negativity": max(r.negativity for r in self.residuals),
            "monotone": max(r.monotone_violation for r in self.residuals),
        }

    # ------------------------------------------------------------------
    # Rendering (``mfcsl check --diagnose``)
    # ------------------------------------------------------------------

    def format(self, stats=None, max_solves: int = 20) -> str:
        """Multi-line report: solver chains, residual maxima, cache hits."""
        stats = stats if stats is not None else self.stats
        lines = [
            f"diagnostics: {len(self.solves)} solves, "
            f"{self.num_fallbacks} fallbacks, "
            f"{len(self.residuals)} residual checks, "
            f"{len(self.warnings)} warnings"
        ]
        if self.solves:
            lines.append("  solver calls:")
            for rec in self.solves[:max_solves]:
                lines.append(f"    {rec.describe()}")
            if len(self.solves) > max_solves:
                lines.append(
                    f"    ... {len(self.solves) - max_solves} more solves"
                )
        maxima = self.residual_maxima()
        lines.append(
            "  residual maxima: "
            f"row-sum {maxima['row_sum']:.2e}, "
            f"negativity {maxima['negativity']:.2e}, "
            f"monotone {maxima['monotone']:.2e}"
        )
        if self.downgrades:
            lines.append(f"  ladder downgrades: {len(self.downgrades)}")
            for record in self.downgrades:
                lines.append(f"    downgrade: {record.describe()}")
        for warning in self.warnings:
            lines.append(f"  WARNING: {warning}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if stats is not None:
            lines.append(
                "  cache: generator "
                f"{stats.generator_cache_hits} hits / "
                f"{stats.generator_cache_misses} misses, transient "
                f"{stats.transient_cache_hits} hits / "
                f"{stats.transient_cache_misses} misses"
            )
            if getattr(stats, "propagator_engines", 0):
                # Contexts only ever build the sparse action engine.
                lines.append(
                    "  propagator: "
                    f"{stats.propagator_engines} engines, "
                    f"{stats.sparse_cells_built} cells built, "
                    f"{stats.propagator_cache_hits} cache hits, "
                    f"{stats.sparse_applies} applies, "
                    f"{stats.sparse_refinements} refinements"
                )
            if (
                getattr(stats, "rewrites_applied", 0)
                or getattr(stats, "formula_memo_hits", 0)
                or getattr(stats, "early_exits", 0)
                or getattr(stats, "segments_skipped", 0)
            ):
                lines.append(
                    "  formula opt: "
                    f"{stats.rewrites_applied} rewrites, "
                    f"{stats.formula_memo_hits} memo hits, "
                    f"{stats.early_exits} early exits, "
                    f"{stats.segments_skipped} segments skipped"
                )
            lines.append(
                f"  solve_ivp calls: {stats.solve_ivp_calls}, "
                f"rhs evaluations: {stats.rhs_evaluations}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DiagnosticTrace(solves={len(self.solves)}, "
            f"fallbacks={self.num_fallbacks}, "
            f"warnings={len(self.warnings)})"
        )


# ----------------------------------------------------------------------
# Dense reads: scipy's arithmetic without its per-call wrappers
# ----------------------------------------------------------------------


#: A DOP853 step of at most this many components is read in Python
#: floats, a larger one in numpy arrays.  The float read costs about
#: 0.7 µs per component and the array read about 9 µs whatever the size,
#: so they cross near 13 components (2-vCPU x86-64 VM, Python 3.11,
#: numpy 2.4).
DOP853_FLOAT_MAX_K = 12


def _dop853_read(step):
    """One DOP853 step's read ``t -> y(t)``, with the operations of
    ``Dop853DenseOutput._call_impl``.

    That read starts from zeros and, over the rows of ``F`` in reverse,
    adds a row and multiplies by ``x`` and ``1 - x`` in turn, then adds
    ``y_old``.  Every operation is elementwise, so each component may
    be formed on its own in Python floats, from the step's columns of
    ``F``; a larger step does the same in numpy arrays.
    """
    t_old, h = float(step.t_old), float(step.h)
    rows = step.F[::-1]
    if step.y_old.shape[0] <= DOP853_FLOAT_MAX_K:
        columns = list(zip(rows.T.tolist(), step.y_old.tolist()))

        def read(t):
            x = (t - t_old) / h
            w = 1 - x
            out = []
            for column, y_old in columns:
                y = 0.0
                for i, f in enumerate(column):
                    y = (y + f) * (w if i & 1 else x)
                out.append(y + y_old)
            return np.array(out)

        return read
    rows = list(rows)
    y_old = step.y_old

    def read(t):
        x = (t - t_old) / h
        w = 1 - x
        y = np.zeros_like(y_old)
        for i, f in enumerate(rows):
            y += f
            y *= w if i & 1 else x
        y += y_old
        return y

    return read


class DenseSolution:
    """Callable ``t -> y(t)`` over a dense ``solve_ivp`` solution.

    Gives the bits of the wrapped ``OdeSolution`` at every time.  A
    scalar (``float`` or ``np.float64``) time is read without
    ``OdeSolution.__call__``, ``np.searchsorted`` and
    ``DenseOutput.__call__``: the step is found with ``bisect`` on the
    solution's lookup side and clamped as
    ``OdeSolution._call_single`` clamps it.  An ``RkDenseOutput`` step
    (RK45, RK23) is evaluated with ``RkDenseOutput._call_impl``'s
    operations — the powers of ``x`` by successive multiplication, as
    ``np.cumprod`` forms them, then ``h * np.dot(Q, p) + y_old``.  A
    ``Dop853DenseOutput`` step is evaluated by :func:`_dop853_read`,
    built once per step on its first read.  Any other step is called
    directly; any other time (an array) goes to the wrapped solution.
    ``tests/meanfield/test_dense_reads.py`` pins both against scipy,
    byte for byte.
    """

    __slots__ = ("ode_solution", "_ts", "_find", "_last", "_steps", "_reads")

    def __init__(self, ode_solution):
        self.ode_solution = ode_solution
        ts = ode_solution.ts
        steps = ode_solution.interpolants
        ascending = ts[-1] >= ts[0]
        if not ascending:
            # Index the reversed list as scipy indexes ``ts_sorted``.
            ts, steps = ts[::-1], steps[::-1]
        # scipy before ``alt_segment`` had no ``side`` and used these.
        side = getattr(
            ode_solution, "side", "left" if ascending else "right"
        )
        self._ts = ts.tolist()
        self._find = bisect_left if side == "left" else bisect_right
        self._last = len(steps) - 1
        self._steps = steps
        self._reads = [None] * len(steps)

    def __call__(self, t):
        if not isinstance(t, float):
            return self.ode_solution(t)
        i = min(max(self._find(self._ts, t) - 1, 0), self._last)
        step = self._steps[i]
        kind = type(step)
        if kind is Dop853DenseOutput:
            read = self._reads[i]
            if read is None:
                read = self._reads[i] = _dop853_read(step)
            return read(t)
        if kind is not RkDenseOutput:
            return step(t)
        h = step.h
        x = (t - step.t_old) / h
        power = x
        powers = [x]
        for _ in range(step.order):
            power = power * x
            powers.append(power)
        y = h * np.dot(step.Q, np.array(powers))
        y += step.y_old
        return y


# ----------------------------------------------------------------------
# Graceful degradation: solve_ivp with a stiff-method fallback chain
# ----------------------------------------------------------------------

#: Exceptions from a right-hand side that count as "this attempt failed"
#: rather than programmer error: floating-point traps (``np.errstate``
#: raising on a NaN/overflow in a user rate function), division blowing
#: up, and scipy choking on non-finite values mid-step.
_RHS_FAILURES = (ArithmeticError, ValueError)


def robust_solve_ivp(
    rhs,
    t_span: Tuple[float, float],
    y0: np.ndarray,
    *,
    method: str = "RK45",
    rtol: float,
    atol: float,
    dense_output: bool = False,
    fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
    label: str = "solve",
    trace: Optional[DiagnosticTrace] = None,
    budget: Optional[Budget] = None,
    stats=None,
):
    """``solve_ivp`` with automatic stiff-method fallback.

    Tries ``method`` first; on failure (unsuccessful solve, a
    floating-point error out of ``rhs``, non-finite values returned by
    ``rhs`` — which would hang some scipy steppers — or non-finite
    values in the solution) retries each method in ``fallbacks`` with
    ``atol`` tightened by :data:`FALLBACK_ATOL_FACTOR`.  The attempt chain is
    recorded into ``trace`` (when given); if every attempt fails a
    :class:`~repro.exceptions.NumericalError` carrying the history is
    raised.

    When a ``budget`` is given, each attempt is charged against its
    solver cap and the deadline is checked before every attempt and
    once per :data:`~repro.resilience.RHS_CHECK_INTERVAL` right-hand
    side evaluations — so even a solver grinding inside one stiff step
    sequence surfaces a
    :class:`~repro.exceptions.BudgetExceededError` promptly (it is not
    a retryable failure and propagates through the fallback chain).

    When ``stats`` (an :class:`~repro.instrumentation.EvalStats`) is
    given, every right-hand-side call of every attempt counts into its
    ``rhs_evaluations``; the occupancy-ODE solvers pass it, so the
    drift calls of trajectories and long runs are counted here alone.

    Returns the successful ``scipy`` solution object; with
    ``dense_output`` its ``sol`` is a :class:`DenseSolution` over
    scipy's ``OdeSolution``.
    """
    record = SolveRecord(
        label=label, t_start=float(t_span[0]), t_end=float(t_span[1])
    )
    rhs_calls = [0]

    def guarded(t, y, _rhs=rhs):
        # A non-finite derivative can never be stepped on productively,
        # but scipy's reactions to one range from a clean failure to an
        # *infinite* step-rejection loop (RK45 with an all-NaN RHS).
        # Raising here turns every such case into a deterministic failed
        # attempt that the fallback chain can recover from.
        if budget is not None:
            rhs_calls[0] += 1
            if rhs_calls[0] % RHS_CHECK_INTERVAL == 0:
                budget.checkpoint(f"{label} rhs")
        if stats is not None:
            stats.rhs_evaluations += 1
        dy = np.asarray(_rhs(t, y), dtype=float)
        if not np.isfinite(dy).all():
            raise FloatingPointError(
                f"right-hand side returned non-finite values at t={t:g}"
            )
        return dy

    plan = [(method, atol)]
    tightened = max(atol * FALLBACK_ATOL_FACTOR, MIN_ATOL)
    for fb in fallbacks:
        if fb != method:
            plan.append((fb, tightened))
    sol = None
    for attempt_method, attempt_atol in plan:
        if budget is not None:
            budget.charge_solve(f"{label} [{attempt_method}]")
        failure: Optional[str] = None
        try:
            candidate = solve_ivp(
                guarded,
                t_span,
                y0,
                method=attempt_method,
                rtol=rtol,
                atol=attempt_atol,
                dense_output=dense_output,
            )
            if not candidate.success:
                failure = str(candidate.message)
            elif not np.all(np.isfinite(candidate.y)):
                failure = "solution contains non-finite values"
        except _RHS_FAILURES as exc:
            failure = f"{type(exc).__name__}: {exc}"
        record.attempts.append(
            SolveAttempt(
                method=attempt_method,
                rtol=rtol,
                atol=attempt_atol,
                success=failure is None,
                message=failure or "",
            )
        )
        if failure is None:
            sol = candidate
            break
    if trace is not None:
        trace.record_solve(record)
    if sol is None:
        history = "; ".join(
            f"{att.method}: {att.message}" for att in record.attempts
        )
        raise NumericalError(
            f"{label} failed on [{record.t_start}, {record.t_end}] after "
            f"{len(record.attempts)} attempts ({history})"
        )
    if dense_output:
        sol.sol = DenseSolution(sol.sol)
    return sol


# ----------------------------------------------------------------------
# Self-verification: probability-simplex residual checks
# ----------------------------------------------------------------------


def simplex_residuals(values: np.ndarray) -> Tuple[float, float]:
    """``(max |row sum − 1|, magnitude of most negative entry)``.

    ``values`` is one occupancy vector, a ``(n, K)`` block of them, or a
    ``(K, K)`` transition-probability matrix — anything whose last axis
    should sum to one with non-negative entries.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    row_sum_error = float(np.max(np.abs(values.sum(axis=-1) - 1.0)))
    negativity = float(max(0.0, -np.min(values)))
    return row_sum_error, negativity


def check_occupancy_residual(
    values: np.ndarray,
    *,
    label: str = "occupancy",
    tol: float = DEFAULT_RESIDUAL_TOL,
    trace: Optional[DiagnosticTrace] = None,
) -> ResidualRecord:
    """Verify occupancy vector(s) lie on the simplex; record into ``trace``."""
    row_sum_error, negativity = simplex_residuals(values)
    record = ResidualRecord(
        label=label,
        row_sum_error=row_sum_error,
        negativity=negativity,
        monotone_violation=0.0,
        tol=tol,
    )
    if trace is not None:
        trace.record_residual(record)
    return record


def check_transient_residual(
    pi: np.ndarray,
    *,
    label: str = "transient",
    tol: float = DEFAULT_RESIDUAL_TOL,
    substochastic: bool = False,
    monotone_trajectory: Optional[np.ndarray] = None,
    trace: Optional[DiagnosticTrace] = None,
) -> ResidualRecord:
    """Verify a transient matrix ``Π(t', t'+T)`` — Equation (5)/(7) output.

    Rows must sum to one (or at most one for ``substochastic`` chains
    where dead mass has been dropped), entries must be non-negative, and
    — when ``monotone_trajectory`` gives the absorbed mass per row at
    consecutive solver steps, shape ``(steps, K)`` — that mass must be
    non-decreasing in the window length (the reachability-CDF invariant).
    """
    pi = np.asarray(pi, dtype=float)
    sums = pi.sum(axis=-1)
    if substochastic:
        row_sum_error = float(max(0.0, np.max(sums - 1.0)))
    else:
        row_sum_error = float(np.max(np.abs(sums - 1.0)))
    negativity = float(max(0.0, -np.min(pi)))
    monotone_violation = 0.0
    if monotone_trajectory is not None and len(monotone_trajectory) > 1:
        steps = np.asarray(monotone_trajectory, dtype=float)
        drops = np.diff(steps, axis=0)
        monotone_violation = float(max(0.0, -np.min(drops)))
    record = ResidualRecord(
        label=label,
        row_sum_error=row_sum_error,
        negativity=negativity,
        monotone_violation=monotone_violation,
        tol=tol,
    )
    if trace is not None:
        trace.record_residual(record)
    return record
