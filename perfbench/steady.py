"""Steadiness report: run one workload over several seeds, summarize spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload deep-sparse --runs 10 --first-seed 1

Runs ``perfbench/run.py`` once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json`` unless ``--seconds`` is given) and prints, for every
end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound.  A metric is *steady* when its
spread is below a third of its bound.  ``setup_s`` is exempt from the
spread rule (its median is what later changes are judged on).

The quartiles here are ``statistics.quantiles(values, n=4)`` (the
exclusive method), not :func:`common.quantile`: the steadiness rule of
the benchmark is stated in those terms, while ``common.quantile`` is the
percentile the benchmark reports within a run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds)
        row = {name: result["metrics"][name]["value"] for name in values}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)

    unsteady = []
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        s = summarize(values[m["name"]])
        if m["name"] == "setup_s":
            verdict = "exempt"
        elif s["spread"] < m["bound"] / 3:
            verdict = "steady"
        elif s["spread"] <= m["bound"]:
            verdict = "within bound, not steady"
            unsteady.append(m["name"])
        else:
            verdict = "SPREAD EXCEEDS BOUND"
            unsteady.append(m["name"])
        print(f"{m['name']:<16} {s['median']:>10.4g} {s['q1']:>10.4g} "
              f"{s['q3']:>10.4g} {s['spread']:>8.3f} {m['bound']:>6}  "
              f"{verdict}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
