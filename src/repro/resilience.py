"""Execution budgets for the checkers.

PR 3 hardened the *numerics* (solver fallback chains, residual
self-verification); this module guards the *execution* layer.  A stiff
``Q(m̄)`` can hang a solve indefinitely, and an answer delivered after
its deadline is a failure mode just like a wrong answer — so every
expensive path in the pipeline carries an optional :class:`Budget` and
checks it cooperatively:

- :func:`repro.diagnostics.robust_solve_ivp` checkpoints before each
  solver attempt and periodically inside the right-hand side;
- :class:`repro.ctmc.propagators.SparseActionPropagator` checkpoints
  every refinement sweep and guards its cell-cache memory estimate;
- the nested-until segment scans and the statistical checker's batch
  loops checkpoint between units of work;
- :func:`repro.parallel.run_batches` bounds how long it waits on worker
  processes.

A violated budget raises
:class:`~repro.exceptions.BudgetExceededError` carrying a
partial-progress snapshot (what was completed before the limit hit), so
callers never see a hang or a half-written answer.
"""

from __future__ import annotations

import math
import numbers
import random
import time
from typing import Any, Callable, Dict, Optional

from repro.exceptions import BudgetExceededError, ModelError


#: The limits a :class:`Budget` enforces, ``name -> (integer,
#: nonnegative)`` as passed to :func:`check_limit`; each may also be
#: ``None`` (no limit).
BUDGET_LIMITS = {
    "deadline": (False, False),
    "max_solves": (True, False),
    "max_refinements": (True, True),
    "max_memory_mb": (False, False),
}


def check_limit(
    name: str,
    value: Any,
    *,
    integer: bool = False,
    nonnegative: bool = False,
    optional: bool = False,
) -> Any:
    """Validate one execution limit or numerical tolerance; return it.

    ``value`` must be a real number (an integer when ``integer``), not a
    ``bool``, finite, and positive (``>= 0`` when ``nonnegative``);
    ``None`` passes when ``optional`` (a disabled limit).  Anything else
    raises :class:`~repro.exceptions.ModelError` naming ``name``, so a
    mistyped request field is a client error instead of a ``TypeError``,
    and a NaN cannot slip past the sign test (``NaN <= 0`` is false).
    """
    if value is None and optional:
        return None
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise ModelError(f"{name} must be {what}, got {value!r}")
    try:
        finite = integer or math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ModelError(f"{name} must be finite, got {value!r}")
    if value < 0 or (value == 0 and not nonnegative):
        sign = "non-negative" if nonnegative else "positive"
        raise ModelError(f"{name} must be {sign}, got {value!r}")
    return value


def capped_backoff(attempt: int, base: float, cap: float) -> float:
    """Deterministic capped exponential backoff for retry round ``attempt``.

    ``base * 2**attempt`` clamped to ``cap`` — the schedule
    :func:`repro.parallel.run_batches` sleeps between broken-pool retry
    rounds, and the ceiling :func:`full_jitter_backoff` draws under.
    ``attempt`` is zero-based (the first retry waits ``base``).
    """
    if attempt < 0:
        raise ModelError(f"attempt must be non-negative, got {attempt}")
    return min(float(base) * 2.0 ** attempt, float(cap))


def full_jitter_backoff(
    attempt: int,
    base: float,
    cap: float,
    rng: Optional[random.Random] = None,
) -> float:
    """Randomized backoff delay: uniform over ``[0, capped_backoff)``.

    The "full jitter" strategy: on a thundering-herd retry (many clients
    rejected by the same overloaded or restarting server), deterministic
    exponential backoff keeps the herd synchronized — every client
    returns at the same instant.  Drawing uniformly from the full
    exponential window decorrelates them.  Used by
    :class:`repro.server.client.ServerClient` between retries.
    """
    ceiling = capped_backoff(attempt, base, cap)
    draw = rng.random() if rng is not None else random.random()
    return draw * ceiling

#: The guarded right-hand side of :func:`repro.diagnostics.robust_solve_ivp`
#: checks the deadline once per this many evaluations.
RHS_CHECK_INTERVAL = 256


class Budget:
    """Cooperative execution budget shared by one checking run.

    Parameters
    ----------
    deadline:
        Wall-clock seconds the run may take, measured from construction.
    max_solves:
        Cap on ``solve_ivp`` attempts charged via :meth:`charge_solve`.
    max_refinements:
        Cap on propagator grid refinements (forwarded to
        :class:`~repro.ctmc.propagators.SparseActionPropagator` by the
        evaluation context; kept here for the progress report).
    max_memory_mb:
        Upper bound on any single allocation estimate passed to
        :meth:`check_memory`: dense Kolmogorov and window-shift solves,
        dense generator assembly, and the sparse action engine's cell
        cache and densified propagators.
    clock:
        Monotonic time source; injectable so tests can force expiry
        deterministically at a chosen checkpoint.

    The budget is *advisory until checked*: nothing preempts a running
    computation, but every expensive loop calls :meth:`checkpoint` (or
    :meth:`charge_solve` / :meth:`check_memory`) at natural boundaries,
    so a violated limit surfaces promptly as a
    :class:`~repro.exceptions.BudgetExceededError` whose ``progress``
    dict reports everything completed so far.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_solves: Optional[int] = None,
        max_refinements: Optional[int] = None,
        max_memory_mb: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._set_limit("deadline", deadline)
        self._set_limit("max_solves", max_solves)
        self._set_limit("max_refinements", max_refinements)
        self._set_limit("max_memory_mb", max_memory_mb)
        self._clock = clock
        self._start = clock()
        self.solves = 0
        #: Free-form partial-progress counters maintained by the layers
        #: the budget flows through (``advance``), included in every
        #: :class:`~repro.exceptions.BudgetExceededError`.
        self.progress: Dict[str, Any] = {}

    def _set_limit(self, name: str, value: Any) -> None:
        integer, nonnegative = BUDGET_LIMITS[name]
        value = check_limit(
            name, value, integer=integer, nonnegative=nonnegative,
            optional=True,
        )
        if value is not None:
            value = int(value) if integer else float(value)
        setattr(self, name, value)

    @classmethod
    def from_options(cls, options) -> "Optional[Budget]":
        """Build a budget from :class:`~repro.checking.options.CheckOptions`.

        Returns ``None`` when the options set no limit at all, so the
        unbudgeted fast path stays entirely free of clock reads.
        """
        if (
            options.deadline is None
            and options.max_solves is None
            and options.max_refinements is None
            and options.max_memory_mb is None
        ):
            return None
        return cls(
            deadline=options.deadline,
            max_solves=options.max_solves,
            max_refinements=options.max_refinements,
            max_memory_mb=options.max_memory_mb,
        )

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self._start

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` without one)."""
        if self.deadline is None:
            return None
        return self.deadline - self.elapsed()

    def expired(self) -> bool:
        """Whether the wall-clock deadline has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------

    def advance(self, key: str, amount: "int | float" = 1) -> None:
        """Accumulate partial progress under ``key`` (for the report)."""
        self.progress[key] = self.progress.get(key, 0) + amount

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data progress snapshot (picklable, crosses processes).

        The report's own fields (``elapsed_seconds``, ``solves``,
        ``deadline_seconds``, ``max_solves``) are reserved: a
        free-form :attr:`progress` counter that happens to share one of
        those names is namespaced as ``progress.<key>`` instead of
        clobbering the reserved field, so the report always states the
        true elapsed time and solve count.
        """
        report: Dict[str, Any] = {
            "elapsed_seconds": round(self.elapsed(), 6),
            "solves": self.solves,
        }
        if self.deadline is not None:
            report["deadline_seconds"] = self.deadline
        if self.max_solves is not None:
            report["max_solves"] = self.max_solves
        reserved = (
            "elapsed_seconds",
            "solves",
            "deadline_seconds",
            "max_solves",
        )
        for key, value in self.progress.items():
            name = f"progress.{key}" if key in reserved else key
            report[name] = value
        return report

    def exceeded(self, label: str, reason: str) -> BudgetExceededError:
        """Build the error for a violated limit at ``label``."""
        return BudgetExceededError(
            f"execution budget exceeded at {label}: {reason}",
            progress=self.snapshot(),
        )

    def checkpoint(self, label: str = "checkpoint") -> None:
        """Raise :class:`~repro.exceptions.BudgetExceededError` if expired.

        Called at natural boundaries of every expensive loop; cost is
        one clock read.
        """
        if self.expired():
            raise self.exceeded(
                label,
                f"deadline {self.deadline:g}s passed "
                f"({self.elapsed():.3f}s elapsed)",
            )

    def charge_solve(self, label: str = "solve") -> None:
        """Account one ``solve_ivp`` attempt and enforce both caps."""
        self.solves += 1
        if self.max_solves is not None and self.solves > self.max_solves:
            raise self.exceeded(
                label, f"solver-attempt cap {self.max_solves} reached"
            )
        self.checkpoint(label)

    def check_memory(self, nbytes: "int | float", label: str) -> None:
        """Reject a single allocation estimated above ``max_memory_mb``."""
        if self.max_memory_mb is None:
            return
        mb = float(nbytes) / 1e6
        if mb > self.max_memory_mb:
            raise self.exceeded(
                label,
                f"estimated allocation {mb:.1f} MB exceeds "
                f"memory guard {self.max_memory_mb:g} MB",
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Budget(deadline={self.deadline}, max_solves={self.max_solves}, "
            f"max_refinements={self.max_refinements}, "
            f"max_memory_mb={self.max_memory_mb}, "
            f"elapsed={self.elapsed():.3f}s, solves={self.solves})"
        )
