"""Process-parallel chunked execution for Monte-Carlo workloads.

The batched simulation engine (:mod:`repro.meanfield.simulation`) and the
statistical checker (:mod:`repro.checking.statistical`) both process a
large number of independent stochastic replicas.  This module is the thin
layer that spreads those replicas across CPU cores while preserving one
hard guarantee:

**Reproducibility is independent of the worker count.**  Work is split
into *fixed-size batches* determined only by ``(total, batch_size)``, and
every batch draws its randomness from its own
:class:`numpy.random.SeedSequence` child (obtained via
:func:`spawn_seeds`, i.e. ``SeedSequence(seed).spawn(n)`` — the
collision-resistant derivation numpy recommends, replacing the ad-hoc
``master.integers(0, 2**63)`` scheme).  The worker pool only changes
*which process* runs a batch, never what the batch computes, so
``workers=1`` and ``workers=8`` produce bitwise-identical results.

That same property is what makes the executor *fault-tolerant*: a batch
whose worker died (a crashed fork, an OOM kill) can simply be re-run in
a fresh pool with capped backoff, and the overall result is still
bitwise identical to a serial run.  :func:`run_batches` therefore uses
future-based dispatch instead of ``pool.map``: dead workers surface as
retryable broken-pool events, hung workers are bounded by the optional
:class:`~repro.resilience.Budget` deadline (stragglers are terminated,
and a :class:`~repro.exceptions.BudgetExceededError` with a
completed/total progress report is raised instead of hanging), and
exceptions raised *by* the batch function are wrapped in
:class:`~repro.exceptions.WorkerError` carrying the batch index and seed
provenance (deterministic failures are not retried — they would fail
identically).  A batch that loses its worker in every pool round is
reported the same way and never run in the caller: a batch that kills
one process kills whichever process runs it next.

Models hold compiled closures and user callables that cannot be pickled,
so the pool uses the ``fork`` start method and passes the work function
through a module-level slot that forked children inherit by memory
snapshot; only the per-batch argument tuples (ints and seed sequences)
cross the process boundary.  The slot is guarded by a non-blocking lock:
a second thread (or a forked child, which inherits the locked state)
calling :func:`run_batches` concurrently degrades to in-process
execution instead of corrupting the slot.  On platforms without ``fork``
(or with ``workers <= 1``) everything runs in-process with identical
results.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import BudgetExceededError, ModelError, WorkerError
from repro.resilience import Budget, capped_backoff

#: Work function inherited by forked workers (see module docstring).  Only
#: ever non-None inside :func:`run_batches`.
_PAYLOAD: "Callable | None" = None

#: Guards ``_PAYLOAD`` against concurrent dispatch from multiple threads.
#: Acquired non-blocking: a loser degrades to in-process execution (the
#: results are identical either way).  Forked children inherit the lock
#: in its *held* state, so nested ``run_batches`` calls inside a worker
#: also land on the in-process path instead of forking from a fork.
_PAYLOAD_LOCK = threading.Lock()

#: Capped exponential backoff between broken-pool retry rounds.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 0.5

#: Fresh-pool rounds for batches whose worker died, after the first
#: round: three pool rounds in all, the last on one worker.  A batch
#: still unfinished after them raises :class:`WorkerError`.
_MAX_RETRIES = 2


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def batch_bounds(total: int, batch_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` batches covering ``range(total)``.

    The decomposition depends only on ``total`` and ``batch_size`` — never
    on the worker count — which is what makes parallel results
    reproducible (each batch is seeded by its index).
    """
    total = int(total)
    batch_size = int(batch_size)
    if total < 0:
        raise ModelError(f"total must be non-negative, got {total}")
    if batch_size <= 0:
        raise ModelError(f"batch_size must be positive, got {batch_size}")
    return [(lo, min(lo + batch_size, total)) for lo in range(0, total, batch_size)]


def spawn_seeds(seed: "int | np.random.SeedSequence", n: int) -> List[np.random.SeedSequence]:
    """``n`` statistically independent child seed sequences of ``seed``.

    ``SeedSequence.spawn`` is collision-resistant by construction, unlike
    drawing integer seeds from a master generator (birthday collisions,
    and ``integers(0, 2**63)`` never sets the top bit).
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(int(n))
    return np.random.SeedSequence(int(seed)).spawn(int(n))


def _invoke_payload(args: Tuple[Any, ...]):
    """Pool target: apply the fork-inherited payload to one batch tuple."""
    return _PAYLOAD(*args)


def seed_provenance(args: Tuple[Any, ...]) -> "str | None":
    """Describe the :class:`~numpy.random.SeedSequence` in a batch tuple.

    Used to stamp :class:`~repro.exceptions.WorkerError` so a failing
    batch can be reproduced in isolation; ``None`` when the tuple
    carries no seed (the batch is then typically seeded by index).
    """
    for arg in args:
        if isinstance(arg, np.random.SeedSequence):
            return (
                f"SeedSequence(entropy={arg.entropy}, "
                f"spawn_key={arg.spawn_key})"
            )
    return None


def _batch_error(
    what: str, index: int, args: Tuple[Any, ...]
) -> WorkerError:
    """``WorkerError`` for batch ``index``: ``what`` plus seed provenance."""
    provenance = seed_provenance(args)
    suffix = f" [{provenance}]" if provenance else ""
    return WorkerError(
        f"batch {index} {what}{suffix}",
        batch_index=index,
        seed_provenance=provenance,
    )


def _run_in_process(
    fn: Callable,
    arg_tuples: Sequence[Tuple[Any, ...]],
    budget: Optional[Budget],
) -> List[Any]:
    """Serial execution path (``workers=1``, no ``fork``, busy slot)."""
    results = []
    for index, args in enumerate(arg_tuples):
        if budget is not None:
            budget.progress.setdefault("batches_total", len(arg_tuples))
            budget.checkpoint(f"batch {index}/{len(arg_tuples)}")
        results.append(fn(*args))
        if budget is not None:
            budget.advance("batches_completed")
    return results


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes (hung-worker reaping).

    Reaches into the executor because the public API offers no way to
    abandon workers that are mid-call; without this, a deadline hit
    while a worker loops forever would stall interpreter shutdown.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        process.terminate()


def run_batches(
    fn: Callable,
    arg_tuples: Sequence[Tuple[Any, ...]],
    workers: int = 1,
    *,
    budget: Optional[Budget] = None,
    stats=None,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Any]:
    """Run ``fn(*args)`` for every tuple, optionally across forked processes.

    When worker processes die (the pool reports ``BrokenProcessPool``),
    the failed batches — and only those — are re-dispatched to a fresh
    pool after a capped backoff, for up to two more pool rounds; the
    last of them runs on one worker.  Because batch seeding is
    worker-independent, retried results are bitwise identical to an
    undisturbed run.  A batch still unfinished after the last round
    raises :class:`~repro.exceptions.WorkerError`; it is never re-run
    in the calling process.

    Parameters
    ----------
    fn:
        The batch worker.  May close over arbitrary unpicklable state
        (models, trajectories, compiled closures) — it is *inherited* by
        forked children, never pickled.
    arg_tuples:
        One positional-argument tuple per batch.  These **are** pickled,
        so keep them to plain data (ints, floats, seed sequences).
    workers:
        Maximum number of worker processes.  ``1`` (or an unavailable
        ``fork`` start method) runs everything in the current process.
    budget:
        Optional :class:`~repro.resilience.Budget`.  Its deadline bounds
        how long the caller waits on workers: when it expires with
        batches still outstanding, the stragglers are terminated and a
        :class:`~repro.exceptions.BudgetExceededError` reporting
        completed/total batches is raised.  A ``BudgetExceededError``
        raised *inside* a worker propagates unwrapped.
    stats:
        Optional :class:`~repro.instrumentation.EvalStats`; receives
        ``worker_retries`` increments for every re-dispatched batch.
    sleep:
        Backoff sleeper, injectable for tests.

    Returns
    -------
    list
        Results in the order of ``arg_tuples`` — identical for every
        ``workers`` value, with or without worker faults.

    Raises
    ------
    WorkerError
        When ``fn`` itself raises in a worker: deterministic failures
        are not retried (they would fail identically); the wrapper
        carries the batch index and seed provenance and chains the
        original exception.  Also when a batch loses its worker in
        every pool round; the last round runs one batch at a time, so
        the error names the batch whose worker died there.
    BudgetExceededError
        When the budget deadline expires before all batches complete.
    """
    workers = int(workers)
    if workers < 1:
        raise ModelError(f"workers must be >= 1, got {workers}")
    arg_tuples = list(arg_tuples)
    if workers == 1 or len(arg_tuples) <= 1 or not fork_available():
        return _run_in_process(fn, arg_tuples, budget)
    if not _PAYLOAD_LOCK.acquire(blocking=False):
        # Concurrent dispatch from another thread (or a forked child
        # that inherited the lock held): the payload slot is busy, so
        # degrade to in-process execution rather than corrupt it.
        return _run_in_process(fn, arg_tuples, budget)
    global _PAYLOAD
    try:
        if _PAYLOAD is not None:
            # Nested parallelism (a worker calling run_batches): degrade
            # to in-process execution rather than fork from a forked child.
            return _run_in_process(fn, arg_tuples, budget)
        _PAYLOAD = fn
        try:
            return _run_pool(arg_tuples, workers, budget, stats, sleep)
        finally:
            _PAYLOAD = None
    finally:
        _PAYLOAD_LOCK.release()


def _run_pool(
    arg_tuples: List[Tuple[Any, ...]],
    workers: int,
    budget: Optional[Budget],
    stats,
    sleep: Callable[[float], None],
) -> List[Any]:
    """Future-based dispatch with broken-pool recovery (see run_batches)."""
    n = len(arg_tuples)
    results: List[Any] = [None] * n
    done = [False] * n
    pending = list(range(n))
    context = multiprocessing.get_context("fork")
    for round_index in range(_MAX_RETRIES + 1):
        if round_index > 0:
            # A fresh pool after worker deaths: capped exponential
            # backoff so a crash-looping environment is not hammered.
            sleep(capped_backoff(round_index - 1, _BACKOFF_BASE, _BACKOFF_CAP))
            if stats is not None:
                stats.worker_retries += len(pending)
            if budget is not None:
                budget.advance("worker_retries", len(pending))
        # The last round runs its batches one at a time, in index order,
        # so a worker that dies there was running the lowest batch left
        # unfinished: the one the error below names.
        last_round = round_index == _MAX_RETRIES
        pool = ProcessPoolExecutor(
            max_workers=1 if last_round else min(workers, len(pending)),
            mp_context=context,
        )
        try:
            futures = {
                pool.submit(_invoke_payload, arg_tuples[i]): i
                for i in pending
            }
            outstanding = set(futures)
            while outstanding:
                timeout = budget.remaining() if budget is not None else None
                finished, outstanding = wait(
                    outstanding, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not finished:
                    # Deadline expired with workers still running:
                    # hung/slow workers.  Reap them and report progress
                    # (``wait`` only times out when the budget set one).
                    _terminate_workers(pool)
                    budget.progress["batches_total"] = n
                    raise budget.exceeded(
                        "run_batches",
                        f"deadline passed with {sum(done)}/{n} batches "
                        f"complete",
                    )
                for future in finished:
                    index = futures[future]
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        # A worker died; every batch it (and the broken
                        # pool) still owed lands here and is retried.
                        continue
                    except BudgetExceededError:
                        _terminate_workers(pool)
                        raise
                    except Exception as exc:
                        # fn raised deterministically: retrying would
                        # fail identically, so wrap and surface now.
                        _terminate_workers(pool)
                        raise _batch_error(
                            f"failed with {type(exc).__name__}: {exc}",
                            index,
                            arg_tuples[index],
                        ) from exc
                    done[index] = True
                    if budget is not None:
                        budget.advance("batches_completed")
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        pending = [i for i in range(n) if not done[i]]
        if not pending:
            return results
    # Every round lost these batches.  Whatever killed their workers
    # would kill the caller too, so report rather than run them here.
    index = pending[0]
    raise _batch_error(
        f"lost its worker in each of {_MAX_RETRIES + 1} pool rounds",
        index,
        arg_tuples[index],
    )
