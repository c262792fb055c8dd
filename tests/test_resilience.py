"""Tests for execution budgets and the backend-downgrade record."""

import pytest

from repro.checking.options import CheckOptions
from repro.diagnostics import DiagnosticTrace, DowngradeRecord
from repro.exceptions import BudgetExceededError, ModelError
from repro.instrumentation import EvalStats
from repro.resilience import RHS_CHECK_INTERVAL, Budget


class FakeClock:
    """Deterministic monotonic clock for budget tests."""

    def __init__(self, start=0.0):
        self.t = float(start)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += float(dt)


class TestBudgetTime:
    def test_elapsed_follows_the_clock(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock)
        assert budget.elapsed() == 0.0
        clock.advance(2.5)
        assert budget.elapsed() == 2.5

    def test_remaining_counts_down(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock)
        clock.advance(4.0)
        assert budget.remaining() == pytest.approx(6.0)

    def test_remaining_none_without_deadline(self):
        assert Budget(clock=FakeClock()).remaining() is None

    def test_expired_flips_at_the_deadline(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        assert not budget.expired()
        clock.advance(0.999)
        assert not budget.expired()
        clock.advance(0.002)
        assert budget.expired()

    def test_never_expires_without_deadline(self):
        clock = FakeClock()
        budget = Budget(clock=clock)
        clock.advance(1e9)
        assert not budget.expired()


class TestBudgetEnforcement:
    def test_checkpoint_passes_before_deadline(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock)
        budget.checkpoint("warm")  # no raise

    def test_checkpoint_raises_after_deadline(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock)
        clock.advance(5.1)
        with pytest.raises(BudgetExceededError, match="deadline 5s passed"):
            budget.checkpoint("late")

    def test_checkpoint_error_names_the_label(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(BudgetExceededError, match="refinement sweep 3"):
            budget.checkpoint("refinement sweep 3")

    def test_charge_solve_counts_and_caps(self):
        budget = Budget(max_solves=3, clock=FakeClock())
        for _ in range(3):
            budget.charge_solve()
        assert budget.solves == 3
        with pytest.raises(BudgetExceededError, match="cap 3 reached"):
            budget.charge_solve()

    def test_charge_solve_unlimited_without_cap(self):
        budget = Budget(clock=FakeClock())
        for _ in range(100):
            budget.charge_solve()
        assert budget.solves == 100

    def test_check_memory_guards_large_allocations(self):
        budget = Budget(max_memory_mb=1.0, clock=FakeClock())
        budget.check_memory(500_000, "cell cache")  # 0.5 MB: fine
        with pytest.raises(BudgetExceededError, match="memory guard 1 MB"):
            budget.check_memory(2_000_000, "cell cache")

    def test_check_memory_noop_without_guard(self):
        Budget(clock=FakeClock()).check_memory(1e12, "huge")

    def test_exceeded_carries_progress_snapshot(self):
        clock = FakeClock()
        budget = Budget(deadline=2.0, max_solves=9, clock=clock)
        budget.advance("batches_completed")
        budget.advance("batches_completed")
        budget.charge_solve()
        clock.advance(1.0)
        error = budget.exceeded("somewhere", "why")
        assert error.progress["batches_completed"] == 2
        assert error.progress["solves"] == 1
        assert error.progress["elapsed_seconds"] == pytest.approx(1.0)
        assert error.progress["deadline_seconds"] == 2.0
        assert error.progress["max_solves"] == 9
        assert "somewhere" in str(error)

    def test_advance_accumulates_amounts(self):
        budget = Budget(clock=FakeClock())
        budget.advance("paths", 32)
        budget.advance("paths", 32)
        assert budget.progress["paths"] == 64

    def test_rhs_check_interval_is_sane(self):
        assert RHS_CHECK_INTERVAL > 0


class TestBudgetValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"max_solves": 0},
            {"max_refinements": -1},
            {"max_memory_mb": 0.0},
        ],
    )
    def test_rejects_bad_limits(self, kwargs):
        with pytest.raises(ModelError):
            Budget(**kwargs)

    def test_non_finite_limits_rejected(self):
        for kwargs in (
            {"deadline": float("nan")},
            {"deadline": float("inf")},
            {"max_memory_mb": float("nan")},
            {"max_solves": "3"},
            {"max_refinements": True},
        ):
            name = next(iter(kwargs))
            with pytest.raises(ModelError, match=name):
                Budget(**kwargs)


class TestFromOptions:
    def test_none_when_no_limit_set(self):
        assert Budget.from_options(CheckOptions()) is None

    def test_built_when_any_limit_set(self):
        budget = Budget.from_options(CheckOptions(deadline=30.0))
        assert budget is not None
        assert budget.deadline == 30.0

    def test_carries_every_limit(self):
        options = CheckOptions(
            deadline=30.0,
            max_solves=100,
            max_refinements=4,
            max_memory_mb=64.0,
        )
        budget = Budget.from_options(options)
        assert budget.deadline == 30.0
        assert budget.max_solves == 100
        assert budget.max_refinements == 4
        assert budget.max_memory_mb == 64.0

    def test_options_validate_limits(self):
        with pytest.raises(ModelError):
            CheckOptions(deadline=-1.0)
        with pytest.raises(ModelError):
            CheckOptions(max_solves=0)
        with pytest.raises(ModelError):
            CheckOptions(max_refinements=-2)
        with pytest.raises(ModelError):
            CheckOptions(max_memory_mb=-5.0)


class TestTraceDowngrades:
    def test_downgrades_count_into_stats(self):
        stats = EvalStats()
        trace = DiagnosticTrace(stats=stats)
        record = trace.downgrade("sparse", "ode", "x")
        assert isinstance(record, DowngradeRecord)
        assert trace.downgrades == [record]
        assert stats.ladder_downgrades == 1

    def test_describe_mentions_the_rungs(self):
        trace = DiagnosticTrace()
        record = trace.downgrade("sparse", "ode", "refinement cap reached")
        assert record.describe() == "sparse -> ode: refinement cap reached"
        text = trace.format()
        assert "ladder downgrades: 1" in text
        assert "downgrade: sparse -> ode" in text


class TestSnapshotNamespacing:
    """Regression: free-form progress keys must never clobber the
    snapshot's reserved fields (a layer calling ``advance("solves", n)``
    used to overwrite the budget's true solve count in the report)."""

    def test_colliding_progress_key_is_namespaced(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, max_solves=50, clock=clock)
        for _ in range(3):
            budget.charge_solve()
        clock.advance(2.0)
        budget.advance("solves", 999)
        budget.advance("elapsed_seconds", 123.0)
        snap = budget.snapshot()
        # Reserved fields report the budget's own truth...
        assert snap["solves"] == 3
        assert snap["elapsed_seconds"] == pytest.approx(2.0)
        assert snap["deadline_seconds"] == 10.0
        assert snap["max_solves"] == 50
        # ...and the colliding counters survive under a namespace.
        assert snap["progress.solves"] == 999
        assert snap["progress.elapsed_seconds"] == 123.0

    def test_ordinary_progress_keys_stay_unprefixed(self):
        budget = Budget(clock=FakeClock())
        budget.advance("batches_completed", 7)
        snap = budget.snapshot()
        assert snap["batches_completed"] == 7
        assert "progress.batches_completed" not in snap
