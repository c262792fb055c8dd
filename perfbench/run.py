"""The repository benchmark: one command, three workloads, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
workload for half the time untraced and for half the time in a fresh
process (or server) with every layer wrapped (:mod:`layers`), and reports
the per-layer metrics plus the tracing overhead.  Either way the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  Every answer is compared with a reference
computed after the measured phases (:class:`common.ReferenceBook`); a
wrong or failed answer counts in ``failed`` and makes ``correct`` false.

End-to-end times are scaled to the reference host by reference slices
that each phase times throughout, outside its timed regions
(:mod:`hostspeed`): each query or request by the slices around it,
set-up by the phase's factor.  Layer times stay as measured.

``--dump-inputs`` prints the workload's generated inputs as canonical
JSON instead of running (the same seed gives byte-identical output).

``perfbench/steady.py`` runs one workload over several seeds and reports
each end-to-end metric's spread against its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time

import common
from common import Phase

WORKLOADS = ("paper-cold", "deep-sparse", "serve-mix")
#: Units printed by ``--dump-inputs``: more than a run gets through (the
#: generators make far more units than any run uses).
DUMP_UNITS = {"paper-cold": 64, "deep-sparse": 8}
#: Fresh processes timed per phase for ``setup_s``; the median is reported.
SETUP_PROBES = 3


def _module(workload: str):
    if workload == "paper-cold":
        import paper_cold as module
    elif workload == "deep-sparse":
        import deep_sparse as module
    else:
        import serve_mix as module
    return module


def _inputs(module, workload: str, seed: int, seconds: float):
    if workload == "serve-mix":
        return module.generate(seed, int(module.RATE * seconds))
    return module.generate(seed)


def _argv(workload: str, seed: int, seconds: float, traced: bool) -> list:
    return [
        sys.executable, str(common.ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "1" if traced else "0",
    ]


def time_setup_probes(workload: str, seed: int, traced: bool) -> list:
    """Seconds from process start to ready, for :data:`SETUP_PROBES`
    fresh processes running :func:`setup_probe`."""
    cmd = _argv(workload, seed, 1.0, traced) + ["--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=common.child_env(),
            cwd=str(common.ROOT), text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        times.append(elapsed)
    return times


def setup_probe(workload: str, seed: int, traced: bool) -> None:
    """Everything an in-process run does before its first query, then
    ``ready`` (serve-mix times its set-up by spawning the server)."""
    module = _module(workload)
    if traced:
        import layers

        layers.install(layers.Tracer())
    _inputs(module, workload, seed, 1.0)
    module.models()
    print("ready", flush=True)


# ----------------------------------------------------------------------
# in-process workloads


def _closed_loop(module, units, seconds: float, stats_sink, speed=None):
    """Run whole units for about ``seconds``.

    The loop stops at the unit boundary nearest to ``seconds`` (judged by
    the mean unit time so far), so a run of long units (deep-sparse:
    about 7 s) overshoots no more than it falls short.  Returns one
    ``(query, answer, latency_s)`` per query, the summed query time of
    each unit run (its wall time less the untimed work between queries),
    and the peak resident memory so far.  Between queries ``speed`` (a
    :class:`hostspeed.HostSpeed`) may time a reference slice; with
    ``speed`` the latencies returned are scaled to the reference host.
    Between units, outside the timed region, the cyclic collector frees
    the last unit's contexts, so the memory peak is one unit's working
    set rather than depending on when automatic collection happened to
    run.
    """
    env = module.models()
    records = []
    starts = []
    unit_walls = []
    for unit in units:
        unit_busy = 0.0
        for query in unit:
            t0 = time.perf_counter()
            try:
                answer = module.execute(env, query, stats_sink)
            except Exception as exc:  # a failed query is a failed answer
                print(f"query failed: {query['formula']}: {exc!r}",
                      file=sys.stderr)
                answer = None
            latency = time.perf_counter() - t0
            records.append((query, answer, latency))
            starts.append(t0)
            unit_busy += latency
            if speed is not None:
                speed.after(latency)
        unit_walls.append(unit_busy)
        spent = sum(unit_walls)
        if spent + 0.5 * spent / len(unit_walls) >= seconds:
            break
        gc.collect()
    if speed is not None:
        records = [
            (query, answer, speed.scaled(t0, latency))
            for (query, answer, latency), t0 in zip(records, starts)
        ]
    return records, unit_walls, common.peak_rss_mb()


def _sum_counters(stats_list) -> dict:
    """Summed ``EvalStats`` counters (one object per evaluation context)."""
    total: dict = {}
    for stats in stats_list:
        for name, value in stats.as_dict().items():
            total[name] = total.get(name, 0) + value
    return total


def traced_child(workload: str, seed: int, seconds: float) -> dict:
    """The traced phase's measurement, run in a process of its own so its
    memory peak and warm-up are its own: answers, scaled latencies, unit
    times as measured, peak memory, host factor, layer summary and summed
    counters."""
    import layers
    from hostspeed import HostSpeed

    module = _module(workload)
    units = _inputs(module, workload, seed, seconds)
    speed = HostSpeed()
    tracer = layers.Tracer()
    stats_sink: list = []
    layers.install(tracer)
    records, unit_walls, rss = _closed_loop(module, units, seconds, stats_sink,
                                            speed)
    return {
        "answers": [answer for _, answer, _ in records],
        "latencies": [latency for _, _, latency in records],
        "unit_walls": unit_walls,
        "rss_mb": rss,
        "host_factor": speed.factor,
        "summary": tracer.summary(),
        "counters": _sum_counters(stats_sink),
    }


def in_process_phase(workload: str, seed: int, seconds: float,
                     traced: bool) -> Phase:
    """One phase of an in-process workload; the traced one runs in a
    process of its own (:func:`traced_child`)."""
    from hostspeed import HostSpeed

    setup = time_setup_probes(workload, seed, traced)
    module = _module(workload)
    units = _inputs(module, workload, seed, seconds)
    if not traced:
        speed = HostSpeed()
        records, _, rss = _closed_loop(module, units, seconds, None, speed)
        factor = speed.factor
        return Phase(
            records=[(q["id"], [(q, a)], lat) for q, a, lat in records],
            busy_s=sum(lat for _, _, lat in records),
            setup_s=[s * factor for s in setup], rss_mb=rss,
            host_factor=factor,
        )
    proc = subprocess.run(
        _argv(workload, seed, seconds, True) + ["--traced-child"],
        cwd=str(common.ROOT), env=common.child_env(), capture_output=True,
        text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"traced phase failed (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    out = json.loads(lines[-1])
    queries = [q for unit in units for q in unit]
    factor = out["host_factor"]
    return Phase(
        records=[
            (q["id"], [(q, a)], lat)
            for q, a, lat in zip(queries, out["answers"], out["latencies"])
        ],
        busy_s=sum(out["latencies"]),
        setup_s=[s * factor for s in setup],
        rss_mb=out["rss_mb"],
        host_factor=factor,
        trace={
            "summary": out["summary"],
            "counters": out["counters"],
            "share_base_ms": 1000.0 * sum(out["unit_walls"]),
        },
    )


# ----------------------------------------------------------------------
# every workload


def _judge(phase: Phase, book, slo_ms) -> dict:
    """Correct and wrong items, the largest value error, and the requests
    over the latency limit ``slo_ms`` (``None``: no limit) or with a
    wrong item."""
    good = bad = slo_miss = 0
    err_max = 0.0
    for _label, items, latency in phase.records:
        request_ok = True
        for query, answer in items:
            ok, err = common.judge(query, answer, book.answer(query))
            err_max = max(err_max, err)
            if ok:
                good += 1
            else:
                bad += 1
                request_ok = False
                print(f"wrong answer: {query['formula']} at "
                      f"{query['occupancy'][:4]}: {answer}", file=sys.stderr)
        if not request_ok or (slo_ms is not None and 1000.0 * latency > slo_ms):
            slo_miss += 1
    return {"good": good, "bad": bad, "err_max": err_max,
            "slo_miss": slo_miss}


def _print_samples(workload: str, phase: Phase) -> None:
    """Sample count and per-class latency medians (diagnostic lines)."""
    print(f"{workload}: {len(phase.records)} latency samples in the "
          f"untraced phase (latency_p90_ms needs at least 100)")
    by_class: dict = {}
    for label, _, latency in phase.records:
        by_class.setdefault(label, []).append(1000.0 * latency)
    for key, values in sorted(by_class.items()):
        print(f"  {key}: n={len(values)} median={common.median(values):.2f} "
              f"ms max={max(values):.2f} ms total={sum(values):.0f} ms")


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run the untraced (and, with ``traced``, the traced) phase, judge
    every answer and assemble the result object."""
    import report

    if workload == "serve-mix":
        import serve_mix

        phase_of, slo_ms = serve_mix.phase, serve_mix.SLO_MS
    else:
        def phase_of(seed, seconds, traced):
            return in_process_phase(workload, seed, seconds, traced)

        slo_ms = None
    phase_seconds = seconds / 2.0 if traced else seconds
    phases = [phase_of(seed, phase_seconds, False)]
    if traced:
        phases.append(phase_of(seed, phase_seconds, True))

    # References are computed after every measured phase.
    started = time.perf_counter()
    book = common.ReferenceBook()
    verdicts = [_judge(phase, book, slo_ms) for phase in phases]
    print(f"measured {phases[0].busy_s:.1f} s busy (scaled); references "
          f"took {time.perf_counter() - started:.1f} s; host speed factor "
          f"{phases[0].host_factor:.4f}")
    _print_samples(workload, phases[0])

    metrics = report.end_to_end(phases[0], verdicts[0]["good"])
    good = sum(v["good"] for v in verdicts)
    bad = sum(v["bad"] for v in verdicts)
    if traced:
        metrics = report.per_layer(
            phases[1],
            untraced=metrics,
            traced=report.end_to_end(phases[1], verdicts[1]["good"]),
            failed_share=bad / (good + bad),
            value_abs_err_max=max(v["err_max"] for v in verdicts),
            slo_miss_share=verdicts[1]["slo_miss"] / len(phases[1].records),
            host_factor=phases[1].host_factor,
        )
    faults = {}
    for phase in phases:
        faults.update(phase.faults)
    if faults:
        print(f"fault counters nonzero: {faults}", file=sys.stderr)
    return {
        "correct": bad == 0 and not faults,
        "attempted": good + bad,
        "failed": bad,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dump-inputs", action="store_true")
    args = parser.parse_args(argv)
    common.require_program()

    if args.setup_probe:
        setup_probe(args.workload, args.seed, bool(args.trace))
        return 0
    if args.traced_child:
        print(json.dumps(traced_child(args.workload, args.seed, args.seconds)))
        return 0
    if args.dump_inputs:
        module = _module(args.workload)
        inputs = _inputs(module, args.workload, args.seed, args.seconds)
        if args.workload in DUMP_UNITS:
            inputs = inputs[:DUMP_UNITS[args.workload]]
        print(json.dumps(inputs, sort_keys=True, separators=(",", ":")))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
