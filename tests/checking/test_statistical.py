"""Unit tests for the statistical checker's internals."""

import numpy as np
import pytest

from repro.checking.statistical import (
    Estimate,
    StatisticalChecker,
    batch_satisfies_next,
    batch_satisfies_until,
    path_satisfies_next,
    path_satisfies_until,
)
from repro.ctmc.paths import Path, PathBatch
from repro.exceptions import ModelError, UnsupportedFormulaError
from repro.logic.parser import parse_path

G1 = frozenset({0})
G2 = frozenset({1, 2})


def _batch_of(paths, end_time, num_states=4):
    """Pack plain Path objects into the padded PathBatch layout."""
    width = max(len(p.states) for p in paths)
    states = np.full((len(paths), width), -1, dtype=np.intp)
    jump_times = np.full((len(paths), max(width - 1, 0)), float(end_time))
    lengths = np.empty(len(paths), dtype=np.intp)
    for i, p in enumerate(paths):
        n = len(p.states)
        states[i, :n] = p.states
        jump_times[i, : n - 1] = p.jump_times
        lengths[i] = n
    return PathBatch(
        states=states,
        jump_times=jump_times,
        lengths=lengths,
        end_time=float(end_time),
    )


class TestEstimate:
    def test_confidence_interval_symmetric(self):
        est = Estimate(value=0.5, stderr=0.05, samples=100)
        lo, hi = est.confidence_interval()
        assert lo == pytest.approx(0.5 - 1.96 * 0.05)
        assert hi == pytest.approx(0.5 + 1.96 * 0.05)

    def test_confidence_interval_clipped(self):
        est = Estimate(value=0.01, stderr=0.05, samples=100)
        lo, hi = est.confidence_interval()
        assert lo == 0.0
        assert hi < 1.0
        est_high = Estimate(value=0.99, stderr=0.05, samples=100)
        assert est_high.confidence_interval()[1] == 1.0


class TestPathPredicateUntil:
    def test_direct_hit(self):
        # 0 --(t=0.3)--> 1 within window [0, 1].
        path = Path(states=[0, 1], jump_times=[0.3], end_time=2.0)
        assert path_satisfies_until(path, G1, G2, 0.0, 1.0)

    def test_hit_after_window_fails(self):
        path = Path(states=[0, 1], jump_times=[1.5], end_time=2.0)
        assert not path_satisfies_until(path, G1, G2, 0.0, 1.0)

    def test_start_in_gamma2_with_open_window(self):
        path = Path(states=[1], end_time=2.0)
        assert path_satisfies_until(path, G1, G2, 0.0, 1.0)

    def test_start_in_gamma2_waiting_needs_gamma1(self):
        path = Path(states=[1, 2], jump_times=[0.2], end_time=2.0)
        # Window open at time 0: immediate witness, no waiting needed.
        assert path_satisfies_until(path, G1, G2, 0.0, 1.0)
        # Window opens at 0.1: the path must *wait* in state 1, which is
        # not a Γ1 state, so Φ1 is violated on [0, 0.1) and the until
        # fails — even though state 1 is a Γ2 state.
        assert not path_satisfies_until(path, G1, G2, 0.1, 1.0)
        # If state 1 also satisfies Γ1, waiting is allowed.
        assert path_satisfies_until(
            path, frozenset({0, 1}), G2, 0.1, 1.0
        )

    def test_gamma1_violation_blocks(self):
        # 0 -> 3 (neither Γ1 nor Γ2) -> 1: the detour kills the path.
        path = Path(states=[0, 3, 1], jump_times=[0.2, 0.4], end_time=2.0)
        gamma2 = frozenset({1})
        assert not path_satisfies_until(path, G1, gamma2, 0.0, 1.0)

    def test_waiting_in_gamma1_only_fails(self):
        path = Path(states=[0], end_time=5.0)
        assert not path_satisfies_until(path, G1, G2, 0.0, 1.0)

    def test_lower_bound_requires_survival(self):
        # Hit Γ2 at 0.3 but the window is [0.5, 1]: the path sits in the
        # Γ2 state through 0.5, and Γ2 states here are not in Γ1...
        path = Path(states=[0, 1], jump_times=[0.3], end_time=2.0)
        # σ@t for t in [0.3, 2] is state 1 ∈ Γ2: satisfied at t' = 0.5
        # provided Φ1 holds before 0.5 — but state 1 ∉ Γ1 on [0.3, 0.5).
        assert not path_satisfies_until(path, G1, frozenset({1}), 0.5, 1.0)
        # With Γ1 including state 1 the same path succeeds.
        assert path_satisfies_until(
            path, frozenset({0, 1}), frozenset({1}), 0.5, 1.0
        )


class TestPathPredicateNext:
    def test_first_jump_in_window(self):
        path = Path(states=[0, 2], jump_times=[0.7], end_time=2.0)
        assert path_satisfies_next(path, frozenset({2}), 0.5, 1.0)

    def test_first_jump_outside_window(self):
        path = Path(states=[0, 2], jump_times=[1.7], end_time=2.0)
        assert not path_satisfies_next(path, frozenset({2}), 0.5, 1.0)

    def test_wrong_target(self):
        path = Path(states=[0, 1], jump_times=[0.7], end_time=2.0)
        assert not path_satisfies_next(path, frozenset({2}), 0.5, 1.0)

    def test_no_jump(self):
        path = Path(states=[0], end_time=2.0)
        assert not path_satisfies_next(path, frozenset({0}), 0.0, 1.0)


class TestBatchPredicates:
    """The vectorized predicates must agree *exactly* with the serial ones."""

    # Every structurally distinct case the serial until predicate handles:
    # direct hits, waiting for the window, Γ1 violations, padding-length
    # asymmetry (single-state paths packed next to long ones).
    PATHS = [
        Path(states=[0, 1], jump_times=[0.3], end_time=2.0),
        Path(states=[0, 1], jump_times=[1.5], end_time=2.0),
        Path(states=[1], end_time=2.0),
        Path(states=[1, 2], jump_times=[0.2], end_time=2.0),
        Path(states=[0, 3, 1], jump_times=[0.2, 0.4], end_time=2.0),
        Path(states=[0], end_time=2.0),
        Path(states=[0, 1, 0, 2], jump_times=[0.1, 0.5, 0.9], end_time=2.0),
        Path(states=[3], end_time=2.0),
        Path(states=[2, 0, 1], jump_times=[0.6, 1.1], end_time=2.0),
    ]

    WINDOWS = [(0.0, 1.0), (0.1, 1.0), (0.5, 1.0), (0.0, 0.15), (1.9, 2.0)]

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize(
        "g1,g2",
        [
            (G1, G2),
            (frozenset({0, 1}), G2),
            (G1, frozenset({1})),
            (frozenset(), G2),
            (frozenset({0, 1, 2, 3}), frozenset({3})),
        ],
    )
    def test_until_matches_serial(self, window, g1, g2):
        t1, t2 = window
        batch = _batch_of(self.PATHS, end_time=2.0)
        vec = batch_satisfies_until(batch, g1, g2, t1, t2, 4)
        serial = [
            path_satisfies_until(p, g1, g2, t1, t2) for p in self.PATHS
        ]
        assert vec.tolist() == serial

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize(
        "sat", [frozenset({1}), frozenset({0, 2}), frozenset()]
    )
    def test_next_matches_serial(self, window, sat):
        t1, t2 = window
        batch = _batch_of(self.PATHS, end_time=2.0)
        vec = batch_satisfies_next(batch, sat, t1, t2, 4)
        serial = [path_satisfies_next(p, sat, t1, t2) for p in self.PATHS]
        assert vec.tolist() == serial

    def test_all_jumpless(self):
        batch = _batch_of([Path(states=[1], end_time=2.0)], end_time=2.0)
        assert batch_satisfies_next(batch, G2, 0.0, 1.0, 4).tolist() == [False]
        assert batch_satisfies_until(batch, G1, G2, 0.0, 1.0, 4).tolist() == [
            True
        ]


class TestBatchedChecker:
    def test_workers_do_not_change_estimate(self, ctx1):
        """Bit-reproducibility across worker counts — the acceptance
        criterion of the parallel layer."""
        path = parse_path("not_infected U[0,1] infected")
        one = StatisticalChecker(
            ctx1, samples=600, seed=8, batch_size=128, workers=1
        ).path_probability(path, "s1")
        four = StatisticalChecker(
            ctx1, samples=600, seed=8, batch_size=128, workers=4
        ).path_probability(path, "s1")
        assert one.value == four.value

    def test_batched_and_serial_agree_in_distribution(self, ctx1):
        path = parse_path("not_infected U[0,1] infected")
        batched = StatisticalChecker(
            ctx1, samples=1500, seed=4, method="batched"
        ).path_probability(path, "s1")
        serial = StatisticalChecker(
            ctx1, samples=1500, seed=4, method="serial"
        ).path_probability(path, "s1")
        tol = 3.5 * (batched.stderr + serial.stderr)
        assert abs(batched.value - serial.value) <= tol

    def test_workers_default_in_process(self, ctx1):
        assert StatisticalChecker(ctx1).workers == 1
        assert StatisticalChecker(ctx1, workers=3).workers == 3

    def test_invalid_method_rejected(self, ctx1):
        with pytest.raises(ModelError):
            StatisticalChecker(ctx1, method="warp")

    def test_mc_stats_counted(self, ctx1):
        path = parse_path("not_infected U[0,1] infected")
        before = ctx1.stats.mc_paths
        StatisticalChecker(ctx1, samples=100, seed=1).path_probability(
            path, "s1"
        )
        assert ctx1.stats.mc_paths == before + 100
        assert ctx1.stats.mc_candidates > 0


class TestCheckerValidation:
    def test_nested_operand_rejected(self, ctx1):
        stat = StatisticalChecker(ctx1, samples=10, seed=0)
        nested = parse_path("(P[>0.5](tt U[0,1] infected)) U[0,1] infected")
        with pytest.raises(UnsupportedFormulaError):
            stat.path_probability(nested, "s1")

    def test_unbounded_rejected(self, ctx1):
        stat = StatisticalChecker(ctx1, samples=10, seed=0)
        with pytest.raises(UnsupportedFormulaError):
            stat.path_probability(parse_path("tt U infected"), "s1")

    @pytest.mark.parametrize("method", ["batched", "serial"])
    def test_reproducible_with_seed(self, ctx1, method):
        path = parse_path("not_infected U[0,1] infected")
        a = StatisticalChecker(
            ctx1, samples=200, seed=3, method=method
        ).path_probability(path, "s1")
        b = StatisticalChecker(
            ctx1, samples=200, seed=3, method=method
        ).path_probability(path, "s1")
        assert a.value == b.value

    def test_state_by_index(self, ctx1):
        path = parse_path("tt U[0,0.5] infected")
        est = StatisticalChecker(ctx1, samples=50, seed=1).path_probability(
            path, 1
        )
        assert est.value == 1.0  # s2 is already infected
