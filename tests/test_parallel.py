"""Tests for the process-parallel batch executor (repro.parallel)."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import BudgetExceededError, ModelError, WorkerError
from repro.instrumentation import EvalStats
from repro.parallel import (
    batch_bounds,
    fork_available,
    run_batches,
    seed_provenance,
    spawn_seeds,
)
from repro.resilience import Budget

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

#: Runs a batch that SIGKILLs whichever process runs it, under
#: ``workers=2``; prints the ``WorkerError`` and exits 0 if the caller
#: survives to catch it.  The other batches take 20 ms, so batch 0 is
#: still running on the second worker whenever batch 1 breaks a
#: two-worker pool.
_KILLER_BATCH = textwrap.dedent(
    """
    import os, signal, sys, time
    import numpy as np
    from repro.exceptions import WorkerError
    from repro.parallel import run_batches, spawn_seeds

    def work(index, seed):
        if index == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.02)
        return float(np.random.default_rng(seed).random(100).sum())

    args = list(enumerate(spawn_seeds(11, 6)))
    try:
        run_batches(work, args, workers=2, sleep=lambda s: None)
    except WorkerError as exc:
        print(exc.batch_index, exc)
        sys.exit(0)
    sys.exit(1)
    """
)


class TestBatchBounds:
    def test_covers_range_contiguously(self):
        bounds = batch_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_exact_multiple(self):
        assert batch_bounds(8, 4) == [(0, 4), (4, 8)]

    def test_single_batch(self):
        assert batch_bounds(5, 100) == [(0, 5)]

    def test_empty(self):
        assert batch_bounds(0, 4) == []

    def test_independent_of_anything_but_total_and_size(self):
        # The reproducibility contract: the decomposition is a pure
        # function of (total, batch_size).
        assert batch_bounds(1000, 64) == batch_bounds(1000, 64)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            batch_bounds(-1, 4)
        with pytest.raises(ModelError):
            batch_bounds(10, 0)


class TestSpawnSeeds:
    def test_deterministic(self):
        a = spawn_seeds(42, 5)
        b = spawn_seeds(42, 5)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]

    def test_children_differ(self):
        seeds = spawn_seeds(0, 4)
        draws = [np.random.default_rng(s).random() for s in seeds]
        assert len(set(draws)) == 4

    def test_accepts_seed_sequence(self):
        root = np.random.SeedSequence(7)
        children = spawn_seeds(root, 3)
        assert len(children) == 3

    def test_differs_from_legacy_master_scheme(self):
        # Regression for the old ``master.integers(0, 2**63)`` derivation:
        # spawned children are not the integer-seeded generators.
        master = np.random.default_rng(3)
        legacy = np.random.default_rng(int(master.integers(0, 2**63)))
        spawned = np.random.default_rng(spawn_seeds(3, 1)[0])
        assert legacy.random() != spawned.random()


class TestRunBatches:
    def test_preserves_order(self):
        results = run_batches(lambda i: i * i, [(i,) for i in range(7)])
        assert results == [0, 1, 4, 9, 16, 25, 36]

    def test_workers_do_not_change_results(self):
        args = [(lo, hi) for lo, hi in batch_bounds(20, 3)]

        def work(lo, hi):
            rng = np.random.default_rng(lo)
            return float(rng.random(hi - lo).sum())

        serial = run_batches(work, args, workers=1)
        parallel = run_batches(work, args, workers=4)
        assert serial == parallel

    def test_closure_state_usable_in_workers(self):
        # Workers inherit closed-over state by fork; no pickling of `table`.
        table = {"offset": 100}

        def work(i):
            return i + table["offset"]

        results = run_batches(work, [(i,) for i in range(6)], workers=3)
        assert results == [100, 101, 102, 103, 104, 105]

    def test_single_tuple_runs_in_process(self):
        import os

        pid = os.getpid()
        results = run_batches(lambda: os.getpid(), [()], workers=8)
        assert results == [pid]

    def test_nested_call_degrades_gracefully(self):
        def inner(i):
            return i + 1

        def outer(i):
            return sum(run_batches(inner, [(j,) for j in range(i)], workers=4))

        results = run_batches(outer, [(i,) for i in range(4)], workers=2)
        assert results == [0, 1, 3, 6]

    def test_rejects_bad_workers(self):
        with pytest.raises(ModelError):
            run_batches(lambda: None, [()], workers=0)

    def test_fork_available_reports_platform(self):
        assert isinstance(fork_available(), bool)


class TestSeedProvenance:
    def test_describes_the_seed_sequence(self):
        seed = spawn_seeds(42, 3)[1]
        text = seed_provenance((0, 5, seed))
        assert "entropy=42" in text
        assert "spawn_key=(1,)" in text

    def test_none_without_a_seed(self):
        assert seed_provenance((0, 5)) is None


@needs_fork
class TestWorkerFaults:
    """Dead, hung and failing workers must never corrupt a run."""

    @staticmethod
    def _seeded_work(index, seed):
        rng = np.random.default_rng(seed)
        return float(rng.random(100).sum())

    def _args(self, n=6, entropy=11):
        return [(i, s) for i, s in enumerate(spawn_seeds(entropy, n))]

    def test_killed_worker_recovers_bitwise_identically(self, tmp_path):
        flag = tmp_path / "already-killed"
        main_pid = os.getpid()

        def work(index, seed):
            if index == 1 and os.getpid() != main_pid and not flag.exists():
                # First worker to pick up batch 1 dies mid-run, exactly
                # once (the flag file is visible to later forks).
                flag.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return self._seeded_work(index, seed)

        stats = EvalStats()
        args = self._args()
        survived = run_batches(
            work, args, workers=3, stats=stats, sleep=lambda s: None
        )
        assert flag.exists(), "the fault was never injected"
        assert stats.worker_retries > 0
        serial = run_batches(self._seeded_work, args, workers=1)
        assert survived == serial

    def test_worker_killing_batch_raises_worker_error(self):
        """A batch that kills every process it runs in loses its worker
        in each pool round; ``run_batches`` then reports that batch, not
        one that merely shared its broken pool, as a ``WorkerError``
        instead of running it in the caller, which survives (a
        subprocess, so a regression cannot kill the suite)."""
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        )
        proc = subprocess.run(
            [sys.executable, "-c", _KILLER_BATCH],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        index, message = proc.stdout.strip().split(" ", 1)
        assert index == "1"
        assert "lost its worker in each of 3 pool rounds" in message
        assert "SeedSequence" in message

    def test_hung_worker_bounded_by_deadline(self):
        def work(index, seed):
            time.sleep(30.0)
            return index

        budget = Budget(deadline=0.4)
        start = time.monotonic()
        with pytest.raises(BudgetExceededError) as excinfo:
            run_batches(work, self._args(4), workers=2, budget=budget)
        assert time.monotonic() - start < 10.0, "worker reaping stalled"
        assert "batches" in str(excinfo.value)
        assert excinfo.value.progress["batches_total"] == 4

    def test_deterministic_failure_wrapped_as_worker_error(self):
        def work(index, seed):
            if index == 2:
                raise ValueError("poisoned batch")
            return self._seeded_work(index, seed)

        with pytest.raises(WorkerError) as excinfo:
            run_batches(work, self._args(), workers=3)
        error = excinfo.value
        assert error.batch_index == 2
        assert "ValueError" in str(error)
        assert "poisoned batch" in str(error)
        assert "SeedSequence" in error.seed_provenance
        assert isinstance(error.__cause__, ValueError)

    def test_deterministic_failure_not_retried(self):
        stats = EvalStats()

        def work(index, seed):
            if index == 0:
                raise RuntimeError("always fails")
            return index

        with pytest.raises(WorkerError):
            run_batches(
                work, self._args(4), workers=2, stats=stats,
                sleep=lambda s: None,
            )
        assert stats.worker_retries == 0

    def test_budget_error_from_worker_propagates_unwrapped(self):
        def work(index, seed):
            raise BudgetExceededError(
                "inner deadline", progress={"paths": 7}
            )

        with pytest.raises(BudgetExceededError) as excinfo:
            run_batches(work, self._args(4), workers=2)
        assert not isinstance(excinfo.value, WorkerError)
        assert excinfo.value.progress == {"paths": 7}


@needs_fork
class TestPayloadSlot:
    def test_concurrent_threads_do_not_corrupt_the_slot(self):
        # Regression: two threads dispatching at once used to race on the
        # module-level _PAYLOAD slot; now the loser degrades in-process.
        barrier = threading.Barrier(2, timeout=30.0)
        results = {}
        errors = []

        def work(i, offset):
            time.sleep(0.05)
            return i + offset

        def drive(name, offset):
            args = [(i, offset) for i in range(4)]
            try:
                barrier.wait()
                results[name] = run_batches(work, args, workers=2)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((name, exc))

        threads = [
            threading.Thread(target=drive, args=("a", 10)),
            threading.Thread(target=drive, args=("b", 100)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        assert results["a"] == [10, 11, 12, 13]
        assert results["b"] == [100, 101, 102, 103]
