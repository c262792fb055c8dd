"""Benchmark history persistence and regression flagging.

:mod:`benchmarks.record` is plain library code (the benches only call
it), so its contract — append-only history, corruption tolerance, and
the median-based regression flags that the sparse benchmark family
prints — is tested here in the tier-1 suite.
"""

import json

import numpy as np
import pytest

from benchmarks.record import (
    FAULT_COUNTERS,
    MAX_RECORDS_PER_NAME,
    check_all_regressions,
    check_fault_counters,
    check_regressions,
    record_wall_times,
)


class TestRecordWallTimes:
    def test_appends_records_newest_last(self, tmp_path):
        path = tmp_path / "hist.json"
        record_wall_times("bench", {"fast": 0.1}, path=path)
        record_wall_times("bench", {"fast": 0.2}, path=path)
        history = json.loads(path.read_text())
        times = [r["wall_times_s"]["fast"] for r in history["bench"]]
        assert times == [0.1, 0.2]

    def test_extra_values_coerced_to_json(self, tmp_path):
        path = tmp_path / "hist.json"
        record = record_wall_times(
            "bench",
            {"t": np.float64(0.5)},
            extra={"dev": np.float64(1e-12), "ks": np.arange(3)},
            path=path,
        )
        assert record["dev"] == 1e-12
        assert record["ks"] == [0, 1, 2]
        json.loads(path.read_text())  # round-trips

    def test_corrupt_history_is_reset_not_fatal(self, tmp_path):
        path = tmp_path / "hist.json"
        path.write_text("{not json")
        record_wall_times("bench", {"t": 1.0}, path=path)
        history = json.loads(path.read_text())
        assert len(history["bench"]) == 1

    def test_series_capped(self, tmp_path):
        path = tmp_path / "hist.json"
        for i in range(MAX_RECORDS_PER_NAME + 5):
            record_wall_times("bench", {"t": float(i)}, path=path)
        history = json.loads(path.read_text())
        series = history["bench"]
        assert len(series) == MAX_RECORDS_PER_NAME
        # Oldest dropped, newest kept.
        assert series[-1]["wall_times_s"]["t"] == MAX_RECORDS_PER_NAME + 4


class TestCheckRegressions:
    def _seed(self, path, values, label="sparse", name="bench"):
        for v in values:
            record_wall_times(name, {label: v}, path=path)

    def test_missing_file_is_silent(self, tmp_path):
        assert check_regressions("bench", path=tmp_path / "nope.json") == []

    def test_corrupt_file_is_silent(self, tmp_path):
        path = tmp_path / "hist.json"
        path.write_text("{not json")
        assert check_regressions("bench", path=path) == []

    def test_short_history_not_flagged(self, tmp_path):
        path = tmp_path / "hist.json"
        self._seed(path, [0.1, 0.1, 9.9])  # only 2 prior records
        assert check_regressions("bench", path=path) == []

    def test_steady_series_not_flagged(self, tmp_path):
        path = tmp_path / "hist.json"
        self._seed(path, [0.10, 0.11, 0.09, 0.10, 0.12])
        assert check_regressions("bench", path=path) == []

    def test_regression_flagged_against_median(self, tmp_path):
        path = tmp_path / "hist.json"
        self._seed(path, [0.10, 0.11, 0.09, 0.10, 0.25])
        flags = check_regressions("bench", path=path)
        assert len(flags) == 1
        assert "bench[sparse]" in flags[0]
        assert "0.250" in flags[0]

    def test_one_old_outlier_does_not_skew_median(self, tmp_path):
        path = tmp_path / "hist.json"
        # A single historic spike must not raise the baseline.
        self._seed(path, [0.10, 5.0, 0.10, 0.11, 0.12])
        assert check_regressions("bench", path=path) == []

    def test_ratio_boundary(self, tmp_path):
        below = tmp_path / "below.json"
        self._seed(below, [0.10, 0.10, 0.10, 0.149])
        assert check_regressions("bench", path=below) == []
        above = tmp_path / "above.json"
        self._seed(above, [0.10, 0.10, 0.10, 0.151])
        assert len(check_regressions("bench", path=above)) == 1

    def test_new_label_without_history_not_flagged(self, tmp_path):
        path = tmp_path / "hist.json"
        self._seed(path, [0.1, 0.1, 0.1])
        record_wall_times("bench", {"dense": 9.9}, path=path)
        assert check_regressions("bench", path=path) == []

    def test_only_regressed_label_flagged(self, tmp_path):
        path = tmp_path / "hist.json"
        for v in (0.1, 0.1, 0.1):
            record_wall_times(
                "bench", {"sparse": v, "dense": 1.0}, path=path
            )
        record_wall_times(
            "bench", {"sparse": 0.5, "dense": 1.0}, path=path
        )
        flags = check_regressions("bench", path=path)
        assert len(flags) == 1
        assert "bench[sparse]" in flags[0]

    def test_custom_ratio(self, tmp_path):
        path = tmp_path / "hist.json"
        self._seed(path, [0.10, 0.10, 0.10, 0.13])
        assert check_regressions("bench", path=path) == []
        assert check_regressions("bench", path=path, ratio=1.2) != []


class TestCheckFaultCounters:
    """Server benches record ``service_*`` stats; faults flag strictly."""

    def test_missing_file_is_silent(self, tmp_path):
        assert (
            check_fault_counters("bench", path=tmp_path / "nope.json") == []
        )

    def test_clean_run_not_flagged(self, tmp_path):
        path = tmp_path / "hist.json"
        record_wall_times(
            "bench",
            {"cold": 1.0, "warm": 0.01},
            extra={"stats": {"service_requests": 2, "service_cache_hits": 1}},
            path=path,
        )
        assert check_fault_counters("bench", path=path) == []

    @pytest.mark.parametrize("counter", FAULT_COUNTERS)
    def test_each_fault_counter_flags(self, tmp_path, counter):
        path = tmp_path / "hist.json"
        record_wall_times(
            "bench",
            {"cold": 1.0},
            extra={"stats": {counter: 1}},
            path=path,
        )
        flags = check_fault_counters("bench", path=path)
        assert len(flags) == 1
        assert counter in flags[0]

    def test_only_latest_record_inspected(self, tmp_path):
        # Faults in history are old news; only the newest run gates.
        path = tmp_path / "hist.json"
        record_wall_times(
            "bench",
            {"cold": 1.0},
            extra={"stats": {"service_worker_crashes": 3}},
            path=path,
        )
        record_wall_times(
            "bench",
            {"cold": 1.0},
            extra={"stats": {"service_requests": 1}},
            path=path,
        )
        assert check_fault_counters("bench", path=path) == []

    def test_record_without_stats_is_silent(self, tmp_path):
        path = tmp_path / "hist.json"
        record_wall_times("bench", {"cold": 1.0}, path=path)
        assert check_fault_counters("bench", path=path) == []

    def test_sweep_includes_fault_flags(self, tmp_path):
        path = tmp_path / "BENCH_server.json"
        record_wall_times(
            "bench",
            {"cold": 1.0},
            extra={"stats": {"service_worker_crashes": 2}},
            path=path,
        )
        flags = check_all_regressions(tmp_path)
        assert len(flags) == 1
        assert "BENCH_server.json" in flags[0]
        assert "service_worker_crashes" in flags[0]
