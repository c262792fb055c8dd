"""Append-only persistence of benchmark wall-times.

pytest-benchmark's ``--benchmark-json`` output is a full snapshot of one
run; what it cannot give is a cheap *history* — "what did this bench
measure the last five times it ran?".  :func:`record_wall_times` keeps
exactly that: a small JSON file per benchmark family, each run appending
one record with the measured wall-times (and any extra values such as
speedup ratios or accuracy defects), so regressions show up as a diff in
the series rather than requiring two full benchmark-JSON files to be
compared by hand.

The curve-method benchmark (``test_bench_propagators.py``) writes to
:data:`DEFAULT_PATH` (``benchmarks/BENCH_propagators.json``); other
benches can pass their own ``path``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Optional

#: History file of the propagator benchmark family.
DEFAULT_PATH = Path(__file__).resolve().parent / "BENCH_propagators.json"

#: History file of the sparse-backend benchmark family.
SPARSE_PATH = Path(__file__).resolve().parent / "BENCH_sparse.json"

#: History file of the formula-optimization ablation family.
FORMULA_OPT_PATH = Path(__file__).resolve().parent / "BENCH_formula_opt.json"

#: History file of the checking-server benchmark family.
SERVER_PATH = Path(__file__).resolve().parent / "BENCH_server.json"

#: History file of the batched-checking benchmark family.
BATCH_PATH = Path(__file__).resolve().parent / "BENCH_batch.json"

#: History file of the compiled small-K path (cold paper queries).
COMPILED_PATH = Path(__file__).resolve().parent / "BENCH_compiled.json"

#: Keep at most this many records per benchmark name (oldest dropped).
MAX_RECORDS_PER_NAME = 200

#: A wall-time is flagged when it exceeds this multiple of the median of
#: the preceding records for the same (name, label) series.
REGRESSION_RATIO = 1.5

#: Number of prior records required before flagging — a short history's
#: median is too noisy to accuse anything of regressing.
MIN_HISTORY = 3

#: Fault counters that must stay zero during a benchmark run.  Benches
#: record their ``service_*`` stats alongside wall-times; a crash,
#: quarantined spill or drain rejection *during a benchmark* means the
#: measured timings are not what they claim to be, so — unlike the
#: wall-time flags, which are advisory — these flag deterministically
#: and fail the sweep under ``--strict``.
FAULT_COUNTERS = (
    "service_worker_crashes",
    "service_spill_quarantined",
    "service_connection_timeouts",
    "service_client_disconnects",
    "service_drain_rejections",
)


def _coerce(value):
    """Make numpy scalars/arrays and other oddballs JSON-serializable."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return value


def record_wall_times(
    name: str,
    timings: "dict[str, float]",
    *,
    extra: Optional[dict] = None,
    path: "os.PathLike | str" = DEFAULT_PATH,
) -> dict:
    """Append one benchmark record to the JSON history file.

    Parameters
    ----------
    name:
        Benchmark identifier (e.g. ``"nested_until_propagate_vs_recompute"``).
    timings:
        Mapping of label to wall-time in seconds (e.g.
        ``{"propagate": 0.11, "recompute": 0.43}``).
    extra:
        Optional additional values stored verbatim on the record
        (speedups, defects, workload sizes, …).
    path:
        History file; created (including an empty list) on first use.

    Returns the record that was appended.  The file maps benchmark name
    to a list of records, newest last, capped at
    :data:`MAX_RECORDS_PER_NAME` entries per name.  Corrupt or
    foreign-format files are reset rather than crashing the bench run —
    a benchmark must never fail because its *history* was damaged.
    """
    path = Path(path)
    history: dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict):
                history = loaded
        except (OSError, ValueError):
            history = {}
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "wall_times_s": {k: float(v) for k, v in timings.items()},
    }
    if extra:
        record.update({k: _coerce(v) for k, v in extra.items()})
    series = history.setdefault(name, [])
    if not isinstance(series, list):
        series = history[name] = []
    series.append(record)
    del series[:-MAX_RECORDS_PER_NAME]
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    return record


def _median(values: "list[float]") -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check_regressions(
    name: str,
    *,
    path: "os.PathLike | str" = DEFAULT_PATH,
    ratio: float = REGRESSION_RATIO,
    min_history: int = MIN_HISTORY,
) -> "list[str]":
    """Compare the newest record of ``name`` against its own history.

    For each wall-time label of the newest record, compute the median of
    that label over all *earlier* records in the series; a label whose
    latest value exceeds ``ratio`` times its median is flagged.  Returns
    a list of human-readable flag strings — empty when nothing regressed
    or the history is shorter than ``min_history`` prior records (or the
    file is missing/corrupt: history damage must never fail a bench).

    This is *flagging*, not gating: wall-clock on shared runners is too
    noisy for a hard assert, so benches print the flags (and CI logs
    them) while the accuracy gates stay authoritative.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    series = history.get(name) if isinstance(history, dict) else None
    if not isinstance(series, list) or len(series) < min_history + 1:
        return []
    latest = series[-1]
    prior = series[:-1]
    flags: "list[str]" = []
    latest_times = latest.get("wall_times_s", {})
    if not isinstance(latest_times, dict):
        return []
    for label, value in sorted(latest_times.items()):
        samples = [
            rec["wall_times_s"][label]
            for rec in prior
            if isinstance(rec, dict)
            and isinstance(rec.get("wall_times_s"), dict)
            and isinstance(
                rec["wall_times_s"].get(label), (int, float)
            )
        ]
        if len(samples) < min_history:
            continue
        baseline = _median(samples)
        if baseline > 0 and float(value) > ratio * baseline:
            flags.append(
                f"{name}[{label}]: {float(value):.3f}s vs median "
                f"{baseline:.3f}s over {len(samples)} runs "
                f"(> {ratio:g}x)"
            )
    return flags


def check_fault_counters(
    name: str,
    *,
    path: "os.PathLike | str" = DEFAULT_PATH,
) -> "list[str]":
    """Flag nonzero fault counters on the newest record of ``name``.

    Benchmarks that run against the serving layer store the service's
    ``service_*`` counters under a ``stats`` key.  Wall-times are noisy;
    fault counters are not: a benchmark during which a worker crashed or
    a spill file was quarantined did not measure the workload it claims
    to, whatever its timings say.  Unknown/absent counters are ignored
    so histories written before a counter existed stay green.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    series = history.get(name) if isinstance(history, dict) else None
    if not isinstance(series, list) or not series:
        return []
    latest = series[-1]
    stats = latest.get("stats") if isinstance(latest, dict) else None
    if not isinstance(stats, dict):
        return []
    flags: "list[str]" = []
    for counter in FAULT_COUNTERS:
        value = stats.get(counter)
        if isinstance(value, (int, float)) and value > 0:
            flags.append(
                f"{name}[{counter}]: {value:g} faults during the "
                f"latest benchmark run (must be 0)"
            )
    return flags


def check_all_regressions(
    directory: "os.PathLike | str | None" = None,
    *,
    ratio: float = REGRESSION_RATIO,
    min_history: int = MIN_HISTORY,
    counters_only: bool = False,
) -> "list[str]":
    """Sweep every ``BENCH_*.json`` history file in one call.

    Runs :func:`check_regressions` *and* :func:`check_fault_counters`
    for every benchmark name recorded in every ``BENCH_*.json`` file
    under ``directory`` (default: this directory).  Returns flag
    strings prefixed with the history file name, so one CI step covers
    all benchmark families instead of one hand-written invocation per
    suite.  With ``counters_only=True`` the noisy wall-time medians are
    skipped and only the deterministic fault counters are swept — the
    mode CI gates on with ``--strict``.
    """
    directory = Path(directory) if directory else Path(__file__).parent
    flags: "list[str]" = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            history = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(history, dict):
            continue
        for name in sorted(history):
            if not counters_only:
                for flag in check_regressions(
                    name, path=path, ratio=ratio, min_history=min_history
                ):
                    flags.append(f"{path.name}: {flag}")
            for flag in check_fault_counters(name, path=path):
                flags.append(f"{path.name}: {flag}")
    return flags


def main(argv: "list[str] | None" = None) -> int:
    """``python benchmarks/record.py`` — sweep all histories for flags.

    Prints one ``TIMING FLAG`` line per regression (CI greps the log);
    exits non-zero only under ``--strict``, because wall-clock flags on
    shared runners are advisory by design.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="flag wall-time regressions across all BENCH_*.json "
        "benchmark histories"
    )
    parser.add_argument(
        "--directory",
        default=None,
        help="directory holding BENCH_*.json files (default: benchmarks/)",
    )
    parser.add_argument(
        "--ratio",
        type=float,
        default=REGRESSION_RATIO,
        help="flag when latest > ratio * median of prior runs",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any flag fires (default: always exit 0)",
    )
    parser.add_argument(
        "--counters-only",
        action="store_true",
        help="sweep only the service_* fault counters (deterministic), "
        "skipping the advisory wall-time flags — combine with --strict "
        "to gate CI on fault-free benchmark runs",
    )
    args = parser.parse_args(argv)
    flags = check_all_regressions(
        args.directory, ratio=args.ratio, counters_only=args.counters_only
    )
    for flag in flags:
        prefix = "FAULT FLAG" if "faults during" in flag else "TIMING FLAG"
        print(f"{prefix}: {flag}")
    if not flags:
        print("no regressions flagged")
    return 1 if (flags and args.strict) else 0


if __name__ == "__main__":
    raise SystemExit(main())
