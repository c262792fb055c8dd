"""Statistical (Monte-Carlo) model checking of local path formulas.

An entirely independent route to the quantities the analytic checkers
compute: sample paths of the time-inhomogeneous local CTMC (rates frozen
along the mean-field trajectory) and count how many satisfy the path
formula.  Used to validate the Kolmogorov-equation algorithms (bench A2)
and available to users as a sanity-check tool.

The path predicate is evaluated exactly on each sampled timed path, so
the estimate is unbiased; the returned :class:`Estimate` carries a
normal-approximation confidence interval.

Two sampling engines produce identically-distributed estimates:

- ``method="serial"`` — one path at a time through
  :func:`~repro.ctmc.paths.sample_inhomogeneous_path`, the reference
  implementation;
- ``method="batched"`` (default) — whole batches of paths advance
  together through the vectorized thinning sampler
  (:func:`~repro.ctmc.paths.sample_inhomogeneous_paths`), and the path
  predicates are evaluated on padded arrays
  (:func:`batch_satisfies_until` / :func:`batch_satisfies_next`) instead
  of per-path Python loops.  Batches can additionally be spread across
  worker processes (``workers``, see :mod:`repro.parallel`); estimates
  are bitwise identical for every worker count.

Only *time-independent* operand formulas (boolean combinations of atomic
propositions) are supported — nested probabilistic operands would require
checking a satisfaction set at every jump time of every sample, which is
exactly the expensive blow-up the paper's analytic algorithms avoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from repro.checking.context import HORIZON_MARGIN, EvaluationContext
from repro.ctmc.paths import (
    Path,
    PathBatch,
    estimate_rate_bound,
    sample_inhomogeneous_path,
    sample_inhomogeneous_paths,
)
from repro.exceptions import (
    ModelError,
    NumericalError,
    UnsupportedFormulaError,
)
from repro.logic.ast import (
    And,
    Atomic,
    CslFormula,
    CslTrue,
    Next,
    Not,
    Or,
    PathFormula,
    Until,
)
from repro.parallel import batch_bounds, run_batches, spawn_seeds

#: Paths per sampling batch of the batched engine.  Part of the
#: reproducibility contract: estimates depend on (seed, samples,
#: batch_size) but never on the worker count.
DEFAULT_MC_BATCH = 256


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo probability estimate with its uncertainty."""

    value: float
    stderr: float
    samples: int

    def confidence_interval(self, z: float = 1.96) -> "tuple[float, float]":
        """Normal-approximation CI (default 95%), clipped to [0, 1]."""
        return (
            max(0.0, self.value - z * self.stderr),
            min(1.0, self.value + z * self.stderr),
        )


def _static_sat(ctx: EvaluationContext, formula: CslFormula) -> FrozenSet[int]:
    """Satisfaction set of a time-independent (label-only) formula."""
    k = ctx.num_states
    if isinstance(formula, CslTrue):
        return frozenset(range(k))
    if isinstance(formula, Atomic):
        return ctx.model.local.states_with_label(formula.name)
    if isinstance(formula, Not):
        return frozenset(range(k)) - _static_sat(ctx, formula.operand)
    if isinstance(formula, And):
        return _static_sat(ctx, formula.left) & _static_sat(ctx, formula.right)
    if isinstance(formula, Or):
        return _static_sat(ctx, formula.left) | _static_sat(ctx, formula.right)
    raise UnsupportedFormulaError(
        "the statistical checker supports boolean label formulas as until "
        f"operands only; got {formula!r}"
    )


def path_satisfies_until(
    path: Path,
    gamma1: FrozenSet[int],
    gamma2: FrozenSet[int],
    t1: float,
    t2: float,
) -> bool:
    """Exact check of ``Φ1 U^[t1,t2] Φ2`` on a sampled timed path.

    Walks the jump skeleton: the until holds iff some state visited while
    the window ``[t1, t2]`` is open satisfies ``Γ2``, with every earlier
    sojourn spent in ``Γ1`` states.
    """
    entry_times = [0.0] + list(path.jump_times)
    for i, state in enumerate(path.states):
        entered = entry_times[i]
        left = (
            path.jump_times[i] if i < len(path.jump_times) else path.end_time
        )
        if state in gamma2:
            # The witness instant is t' = max(entered, t1); it must fall
            # inside both the window and this sojourn, and Φ1 must hold
            # on [entered, t') — i.e. waiting inside this state for the
            # window to open is only allowed when the state is also Γ1.
            witness = max(entered, t1)
            in_window = witness <= t2
            in_sojourn = witness <= left
            survives_wait = witness == entered or state in gamma1
            if in_window and in_sojourn and survives_wait:
                return True
        if state not in gamma1:
            # Path sits in a ¬Γ1 state without a valid Γ2 witness: dead.
            return False
        if entered > t2:
            return False
    return False


def path_satisfies_next(
    path: Path, sat: FrozenSet[int], t1: float, t2: float
) -> bool:
    """Exact check of ``X^[t1,t2] Φ`` on a sampled timed path."""
    if not path.jump_times:
        return False
    first_jump = path.jump_times[0]
    return t1 <= first_jump <= t2 and path.states[1] in sat


def _member_lut(num_states: int, sat: FrozenSet[int]) -> np.ndarray:
    """Boolean membership lookup with a ``False`` slot for ``-1`` padding.

    The extra trailing entry is what padded state indices (``-1``, which
    numpy fancy-indexing maps to the last element) resolve to.
    """
    lut = np.zeros(num_states + 1, dtype=bool)
    lut[list(sat)] = True
    lut[num_states] = False
    return lut


def batch_satisfies_until(
    batch: PathBatch,
    gamma1: FrozenSet[int],
    gamma2: FrozenSet[int],
    t1: float,
    t2: float,
    num_states: int,
) -> np.ndarray:
    """Vectorized ``Φ1 U^[t1,t2] Φ2`` over a :class:`~repro.ctmc.paths.PathBatch`.

    Semantically identical to mapping :func:`path_satisfies_until` over
    the batch (the property tests assert exact agreement), evaluated as a
    handful of array operations on the padded ``(B, L)`` arrays: sojourn
    ``i`` of path ``b`` is a witness iff its state is in ``Γ2``, the
    witness instant ``max(entry, t1)`` falls inside both the window and
    the sojourn, waiting for the window to open is covered
    (``entry >= t1`` or the state is also ``Γ1``), and every *earlier*
    sojourn sat in ``Γ1`` (an exclusive running AND along the row).

    Returns the ``(B,)`` boolean satisfaction vector.
    """
    b, width = batch.states.shape
    g1 = _member_lut(num_states, gamma1)[batch.states]
    g2 = _member_lut(num_states, gamma2)[batch.states]
    entry = np.empty((b, width))
    entry[:, 0] = 0.0
    entry[:, 1:] = batch.jump_times
    exit_ = np.empty((b, width))
    exit_[:, : width - 1] = batch.jump_times
    exit_[:, width - 1] = batch.end_time
    valid = np.arange(width)[None, :] < batch.lengths[:, None]
    prefix_g1 = np.ones((b, width), dtype=bool)
    if width > 1:
        prefix_g1[:, 1:] = np.logical_and.accumulate(g1, axis=1)[:, :-1]
    witness = np.maximum(entry, t1)
    ok = (
        valid
        & g2
        & prefix_g1
        & (witness <= t2)
        & (witness <= exit_)
        & ((entry >= t1) | g1)
    )
    return ok.any(axis=1)


def batch_satisfies_next(
    batch: PathBatch,
    sat: FrozenSet[int],
    t1: float,
    t2: float,
    num_states: int,
) -> np.ndarray:
    """Vectorized ``X^[t1,t2] Φ`` over a :class:`~repro.ctmc.paths.PathBatch`."""
    b, width = batch.states.shape
    if width < 2:
        return np.zeros(b, dtype=bool)
    first_jump = batch.jump_times[:, 0]
    hits = _member_lut(num_states, sat)[batch.states[:, 1]]
    return (
        (batch.lengths >= 2) & (t1 <= first_jump) & (first_jump <= t2) & hits
    )


class _McCounters:
    """Minimal stand-in for EvalStats inside sampling workers.

    Workers return plain integers; the parent process folds them into
    the shared :class:`~repro.instrumentation.EvalStats`.
    """

    __slots__ = ("mc_candidates",)

    def __init__(self) -> None:
        self.mc_candidates = 0


class StatisticalChecker:
    """Monte-Carlo estimator of local path probabilities.

    Parameters
    ----------
    ctx:
        Evaluation context fixing the occupancy trajectory.
    samples:
        Number of sampled paths per estimate.
    seed:
        Root of the :class:`numpy.random.SeedSequence` tree; every batch
        (batched engine) or path (serial engine) draws from its own
        spawned child.
    method:
        ``"batched"`` (default, vectorized) or ``"serial"`` (the
        reference per-path loop).
    batch_size:
        Paths per batch of the batched engine.  Together with ``seed``
        and ``samples`` this fully determines the estimate; the worker
        count never does.
    workers:
        Worker processes for the batched engine; ``1`` (default) runs
        in-process.
    """

    def __init__(
        self,
        ctx: EvaluationContext,
        samples: int = 2000,
        seed: int = 0,
        method: str = "batched",
        batch_size: int = DEFAULT_MC_BATCH,
        workers: int = 1,
    ):
        if method not in ("batched", "serial"):
            raise ModelError(
                f"method must be batched/serial, got {method!r}"
            )
        self.ctx = ctx
        self.samples = int(samples)
        self.seed = int(seed)
        self.method = method
        self.batch_size = int(batch_size)
        self.workers = int(workers)

    def path_probability(
        self,
        path_formula: PathFormula,
        state: "str | int",
        rate_bound: Optional[float] = None,
    ) -> Estimate:
        """Estimate ``Prob(s, φ, m̄)`` by sampling.

        ``rate_bound`` is the thinning bound forwarded to the sampler;
        when omitted it is probed from the generator along the trajectory
        (once, before any batch is dispatched, so every batch thins
        against the same bound).
        """
        if isinstance(state, str):
            start = self.ctx.model.local.index(state)
        else:
            start = int(state)
        t1, t2, horizon, gamma1, gamma2, next_sat = self._resolve(path_formula)

        q_of_t = self.ctx.generator_function()
        self.ctx.trajectory.cover(horizon + HORIZON_MARGIN)
        if rate_bound is None:
            rate_bound = estimate_rate_bound(q_of_t, horizon)
        rate_bound = float(rate_bound)
        if not np.isfinite(rate_bound) or rate_bound <= 0.0:
            # A NaN bound would make every thinning comparison silently
            # false and corrupt the estimate; degrade loudly instead.
            self.ctx.trace.note(
                f"mc: invalid thinning rate bound {rate_bound} "
                f"(generator produced non-finite rates?)"
            )
            raise NumericalError(
                f"statistical checker got invalid thinning rate bound "
                f"{rate_bound}; the generator along the trajectory "
                f"produced non-finite or non-positive exit rates"
            )

        if self.method == "serial":
            hits = self._run_serial(
                q_of_t, start, horizon, rate_bound, t1, t2,
                gamma1, gamma2, next_sat,
            )
        else:
            hits = self._run_batched(
                start, horizon, rate_bound, t1, t2, gamma1, gamma2, next_sat
            )
        value = hits / self.samples
        stderr = math.sqrt(max(value * (1.0 - value), 1e-12) / self.samples)
        self.ctx.trace.note(
            f"mc: {self.samples} paths from state {start}, estimate "
            f"{value:.6f} +/- {stderr:.6f} (rate bound {rate_bound:g})"
        )
        return Estimate(value=value, stderr=stderr, samples=self.samples)

    # ------------------------------------------------------------------

    def _resolve(self, path_formula: PathFormula):
        """Window, horizon and operand satisfaction sets of a path formula."""
        if isinstance(path_formula, Until):
            gamma1 = _static_sat(self.ctx, path_formula.left)
            gamma2 = _static_sat(self.ctx, path_formula.right)
            next_sat = None
        elif isinstance(path_formula, Next):
            gamma1 = gamma2 = None
            next_sat = _static_sat(self.ctx, path_formula.operand)
        else:
            raise UnsupportedFormulaError(
                f"not a path formula: {path_formula!r}"
            )
        t1 = path_formula.interval.lower
        t2 = path_formula.interval.upper
        if not np.isfinite(t2):
            raise UnsupportedFormulaError(
                "statistical checking needs a bounded time interval"
            )
        return t1, t2, t2, gamma1, gamma2, next_sat

    def _run_serial(
        self, q_of_t, start, horizon, rate_bound, t1, t2,
        gamma1, gamma2, next_sat,
    ) -> int:
        """Reference engine: one path at a time, one seed child per path."""
        stats = self.ctx.stats
        budget = self.ctx.budget
        hits = 0
        for index, child in enumerate(spawn_seeds(self.seed, self.samples)):
            if budget is not None and index % 64 == 0:
                budget.checkpoint(
                    f"statistical path {index}/{self.samples}"
                )
            rng = np.random.default_rng(child)
            path = sample_inhomogeneous_path(
                q_of_t, start, horizon, rng, rate_bound=rate_bound, stats=stats
            )
            if next_sat is not None:
                ok = path_satisfies_next(path, next_sat, t1, t2)
            else:
                ok = path_satisfies_until(path, gamma1, gamma2, t1, t2)
            hits += int(ok)
        stats.mc_paths += self.samples
        return hits

    def _run_batched(
        self, start, horizon, rate_bound, t1, t2, gamma1, gamma2, next_sat
    ) -> int:
        """Vectorized engine: fixed-size spawn-seeded batches, optionally
        spread across forked workers (see :mod:`repro.parallel`)."""
        q_batch = self.ctx.generator_batch_function()
        k = self.ctx.num_states
        bounds = batch_bounds(self.samples, self.batch_size)
        seeds = spawn_seeds(self.seed, len(bounds))

        def run_one_batch(lo: int, hi: int, index: int):
            rng = np.random.default_rng(seeds[index])
            counters = _McCounters()
            paths = sample_inhomogeneous_paths(
                q_batch,
                start,
                horizon,
                rng,
                replicas=hi - lo,
                rate_bound=rate_bound,
                stats=counters,
            )
            if next_sat is not None:
                sat = batch_satisfies_next(paths, next_sat, t1, t2, k)
            else:
                sat = batch_satisfies_until(paths, gamma1, gamma2, t1, t2, k)
            return int(sat.sum()), hi - lo, counters.mc_candidates

        results = run_batches(
            run_one_batch,
            [(lo, hi, i) for i, (lo, hi) in enumerate(bounds)],
            workers=self.workers,
            budget=self.ctx.budget,
            stats=self.ctx.stats,
        )
        stats = self.ctx.stats
        stats.mc_paths += sum(r[1] for r in results)
        stats.mc_candidates += sum(r[2] for r in results)
        return sum(r[0] for r in results)

    def expected_probability(
        self,
        path_formula: PathFormula,
        rate_bound: Optional[float] = None,
    ) -> Estimate:
        """Estimate the MF-CSL ``EP`` value: start states drawn from ``m̄``.

        A random object's state is distributed according to the occupancy
        vector, so the estimator samples the start state from ``m̄`` and
        then one path from it.
        """
        per_state = [
            self.path_probability(path_formula, s, rate_bound=rate_bound)
            for s in range(self.ctx.num_states)
        ]
        value = float(
            sum(self.ctx.initial[s] * per_state[s].value
                for s in range(self.ctx.num_states))
        )
        variance = float(
            sum(
                (self.ctx.initial[s] * per_state[s].stderr) ** 2
                for s in range(self.ctx.num_states)
            )
        )
        return Estimate(
            value=value,
            stderr=math.sqrt(variance),
            samples=self.samples * self.ctx.num_states,
        )
