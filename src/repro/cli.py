"""Command-line interface: check MF-CSL formulas against built-in models.

Examples
--------
Check the paper's Example 1 formula::

    mfcsl check --model virus1 --occupancy 0.8,0.15,0.05 \
        "EP[<0.3](not_infected U[0,1] infected)"

Compute the conditional satisfaction set over a horizon::

    mfcsl csat --model virus1 --occupancy 0.8,0.15,0.05 --theta 20 \
        "EP[<0.3](not_infected U[0,1] infected)"

Simulate a finite-N ensemble against the mean-field limit::

    mfcsl simulate --model virus1 --occupancy 0.8,0.15,0.05 \
        -N 1000 --runs 100 --horizon 2 --workers 4

Estimate a path probability by Monte-Carlo sampling::

    mfcsl mc --model virus1 --occupancy 0.8,0.15,0.05 --state s1 \
        --samples 5000 --workers 4 "not_infected U[0,1] infected"

List the models and their atomic propositions::

    mfcsl models

Run the checking server and query it (warm cross-request cache;
see docs/serving.md)::

    mfcsl serve --port 8349 &
    mfcsl query --url http://127.0.0.1:8349 \
        --occupancy 0.8,0.15,0.05 "EP[<0.3](not_infected U[0,1] infected)"
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

import numpy as np

from repro.checking import CheckOptions, MFModelChecker

# The exit-code taxonomy and its exception mapping live in
# repro.exceptions (the checking server shares them for its HTTP-status
# mapping); re-exported here because scripts and tests import them from
# the CLI module.
from repro.exceptions import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CHECKING_ERROR,
    EXIT_FORMULA_ERROR,
    EXIT_MODEL_ERROR,
    EXIT_NOT_SATISFIED,
    EXIT_SATISFIED,
    EXIT_WORKER_FAILURE,
    BudgetExceededError,
    ReproError,
    WorkerError,
    exit_code_for,
)
from repro.meanfield.overall_model import MeanFieldModel
from repro.models import MODEL_REGISTRY

#: Backward-compatible alias: the registry moved to :mod:`repro.models`
#: so the checking server can resolve model names without importing the
#: CLI.
MODELS: Dict[str, Callable[[], MeanFieldModel]] = MODEL_REGISTRY


def _parse_occupancy(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise SystemExit(f"error: cannot parse occupancy vector {text!r}")


def _resolve_model(args: argparse.Namespace) -> MeanFieldModel:
    """The model selected by ``--model`` / ``--model-file``."""
    if getattr(args, "model_file", None):
        from repro.io import load_model

        return load_model(args.model_file)
    if args.model not in MODELS:
        raise SystemExit(
            f"error: unknown model {args.model!r}; choose from "
            f"{', '.join(sorted(MODELS))}"
        )
    return MODELS[args.model]()


def _budget_options(args: argparse.Namespace) -> CheckOptions:
    """Only the budget fields of :class:`CheckOptions`, from the CLI flags.

    Every subcommand funnels its execution limits through this +
    :meth:`~repro.resilience.Budget.from_options`, so ``--deadline``,
    ``--max-solves``, ``--max-refinements`` and ``--max-memory-mb`` mean
    the same thing everywhere (``simulate`` and ``mc`` used to build a
    bare deadline-only budget by hand and silently drop the rest).
    """
    return CheckOptions(
        deadline=getattr(args, "deadline", None),
        max_solves=getattr(args, "max_solves", None),
        max_refinements=getattr(args, "max_refinements", None),
        max_memory_mb=getattr(args, "max_memory_mb", None),
    )


def _build_checker(args: argparse.Namespace) -> MFModelChecker:
    budget = _budget_options(args)
    options = CheckOptions(
        start_convention=args.convention,
        curve_method=getattr(args, "curve_method", "propagate"),
        matrix_backend=getattr(args, "matrix_backend", "auto"),
        propagator_tol=getattr(args, "propagator_tol", 1e-6),
        deadline=budget.deadline,
        max_solves=budget.max_solves,
        max_refinements=budget.max_refinements,
        max_memory_mb=budget.max_memory_mb,
        formula_optimizations=(
            "none" if getattr(args, "no_formula_optimizations", False)
            else "all"
        ),
    )
    return MFModelChecker(_resolve_model(args), options)


def _cmd_models(_args: argparse.Namespace) -> int:
    for name in sorted(MODELS):
        model = MODELS[name]()
        local = model.local
        states = list(local.states)
        if len(states) > 8:
            shown = ", ".join(states[:4] + ["..."] + states[-2:])
            print(f"{name}: K={len(states)} states=[{shown}]")
        else:
            print(f"{name}: states={states}")
        print(f"    atomic propositions: {sorted(local.atomic_propositions)}")
    return 0


def _print_diagnostics(ctx) -> None:
    """Render the context's DiagnosticTrace (``--diagnose``)."""
    print(ctx.trace.format(ctx.stats))


def _cmd_check(args: argparse.Namespace) -> int:
    checker = _build_checker(args)
    occupancy = _parse_occupancy(args.occupancy)
    ctx = checker.context(occupancy)
    holds = checker.check(args.formula, occupancy, ctx=ctx)
    print("SATISFIED" if holds else "NOT SATISFIED")
    if args.explain:
        report = checker.explain(args.formula, occupancy, ctx=ctx)
        for text, value, leaf_holds in report:
            print(f"    {text}: value={value:.6f} -> {leaf_holds}")
    if args.diagnose:
        _print_diagnostics(ctx)
    return EXIT_SATISFIED if holds else EXIT_NOT_SATISFIED


def _cmd_value(args: argparse.Namespace) -> int:
    checker = _build_checker(args)
    occupancy = _parse_occupancy(args.occupancy)
    ctx = checker.context(occupancy)
    print(f"{checker.value(args.formula, occupancy, ctx=ctx):.10f}")
    if args.diagnose:
        _print_diagnostics(ctx)
    return 0


def _cmd_csat(args: argparse.Namespace) -> int:
    checker = _build_checker(args)
    occupancy = _parse_occupancy(args.occupancy)
    ctx = checker.context(occupancy)
    result = checker.conditional_sat(
        args.formula, occupancy, args.theta, ctx=ctx
    )
    if result.is_empty:
        print("empty")
    else:
        for a, b in result.intervals:
            print(f"[{a:.6f}, {b:.6f}]")
    if args.diagnose:
        _print_diagnostics(ctx)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.instrumentation import EvalStats
    from repro.meanfield.simulation import FiniteNSimulator, occupancy_rmse

    model = _resolve_model(args)
    occupancy = _parse_occupancy(args.occupancy)
    simulator = FiniteNSimulator(model.local, args.population)
    stats = EvalStats()
    from repro.resilience import Budget

    budget = Budget.from_options(_budget_options(args))
    paths = simulator.simulate_ensemble(
        occupancy,
        args.horizon,
        args.runs,
        seed=args.seed,
        method=args.method,
        workers=args.workers,
        batch_size=args.batch_size,
        stats=stats,
        budget=budget,
    )
    finals = np.vstack([p(args.horizon) for p in paths])
    mean = finals.mean(axis=0)
    std = finals.std(axis=0)
    names = list(model.local.states)
    print(
        f"N={args.population} runs={args.runs} horizon={args.horizon} "
        f"method={args.method} workers={args.workers} seed={args.seed}"
    )
    print("final occupancy (ensemble mean +/- std):")
    for i, name in enumerate(names):
        print(f"    {name}: {mean[i]:.6f} +/- {std[i]:.6f}")
    limit = model.trajectory(occupancy, horizon=args.horizon)
    rmse = float(np.mean([occupancy_rmse(p, limit) for p in paths]))
    print(f"mean RMSE vs mean-field limit: {rmse:.6f}")
    print(f"events={stats.sim_events} batches={stats.sim_batches}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.checking.context import EvaluationContext
    from repro.checking.statistical import StatisticalChecker
    from repro.logic.parser import parse_path

    model = _resolve_model(args)
    occupancy = _parse_occupancy(args.occupancy)
    # The context builds its budget via Budget.from_options, so mc
    # honors every limit flag, not just the deadline.
    ctx = EvaluationContext(model, occupancy, _budget_options(args))
    checker = StatisticalChecker(
        ctx,
        samples=args.samples,
        seed=args.seed,
        method=args.method,
        batch_size=args.batch_size,
        workers=args.workers,
    )
    formula = parse_path(args.formula)
    if args.state is not None:
        estimate = checker.path_probability(formula, args.state)
        label = f"Prob({args.state}, {args.formula})"
    else:
        estimate = checker.expected_probability(formula)
        label = f"EP({args.formula})"
    lo, hi = estimate.confidence_interval()
    print(f"{label} = {estimate.value:.6f} +/- {estimate.stderr:.6f}")
    print(f"95% CI: [{lo:.6f}, {hi:.6f}]  ({estimate.samples} paths)")
    print(
        f"paths={ctx.stats.mc_paths} candidates={ctx.stats.mc_candidates} "
        f"workers={args.workers}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.server.http import make_server
    from repro.server.service import ServerConfig

    config = ServerConfig(
        max_entries=args.max_entries,
        default_deadline=args.default_deadline,
        max_concurrent=args.max_concurrent,
        queue_timeout=args.queue_timeout,
        max_batch_items=args.max_batch_items,
        isolate=args.isolate,
        drain_deadline=args.drain_deadline,
        connection_timeout=args.connection_timeout or None,
    )
    server = make_server(
        host=args.host, port=args.port, config=config, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    # Parsed by scripts (and the CI smoke job) to learn the bound port,
    # which matters when --port 0 asks the OS to pick a free one.
    print(f"listening on http://{host}:{port}", flush=True)

    # SIGTERM (and a second Ctrl-C path below) triggers a *graceful*
    # stop: new requests answer 503 + Retry-After, in-flight ones get
    # the drain deadline to finish.
    # The drain must run off the serve_forever thread — shutdown() from
    # that thread deadlocks by design of ThreadingHTTPServer.
    drain_threads: list = []

    def _graceful_stop(*_args) -> None:
        if drain_threads:
            return
        thread = threading.Thread(
            target=server.drain_and_shutdown,
            name="mfcsl-drain",
            daemon=True,
        )
        drain_threads.append(thread)
        thread.start()

    try:
        signal.signal(signal.SIGTERM, _graceful_stop)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _graceful_stop()
        # serve_forever was interrupted before shutdown(); wait for the
        # drain thread's shutdown() call to finish the accept loop.
    finally:
        server.server_close()
        # The drain thread is a daemon: exiting before it finishes would
        # cut in-flight responses short, so wait for it (its deadline
        # bounds the drain).
        for thread in drain_threads:
            thread.join()
        server.service.close()
    return 0


def _parse_option_overrides(pairs) -> dict:
    """``--option name=value`` pairs -> CheckOptions field overrides.

    Values are parsed as JSON when possible (numbers, booleans, lists)
    and fall back to plain strings (``--option curve_method=recompute``).
    """
    import json as _json

    overrides = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(
                f"error: --option expects name=value, got {pair!r}"
            )
        try:
            overrides[name] = _json.loads(value)
        except _json.JSONDecodeError:
            overrides[name] = value
    return overrides


def _summarize_batch_item(body: dict) -> str:
    """One human-readable line for one batch item's response body."""
    if body.get("status") != "ok":
        return (
            f"ERROR({body.get('error_class', '?')}): "
            f"{body.get('message', body)}"
        )
    if "verdict" in body:
        return "SATISFIED" if body["verdict"].get("holds") else "NOT SATISFIED"
    if "value" in body:
        return f"{body['value']:.10f}"
    if "intervals" in body:
        intervals = body["intervals"]
        if not intervals:
            return "empty"
        return " ".join(f"[{a:.6f}, {b:.6f}]" for a, b in intervals)
    return "ok"


def _run_query_batch(client, args: argparse.Namespace) -> int:
    """``mfcsl query --batch file.json``: one POST /batch, per-item lines."""
    import json as _json
    from pathlib import Path

    try:
        doc = _json.loads(Path(args.batch_file).read_text())
    except (OSError, _json.JSONDecodeError) as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return EXIT_CHECKING_ERROR
    if isinstance(doc, list):
        queries = doc
    elif isinstance(doc, dict) and isinstance(doc.get("queries"), list):
        queries = doc["queries"]
    else:
        print(
            "error: batch file must hold a JSON list of requests or a "
            "{'queries': [...]} object",
            file=sys.stderr,
        )
        return EXIT_CHECKING_ERROR

    status, body = client.query_batch(
        queries, deadline=args.deadline, max_solves=args.max_solves
    )
    if body.get("status") != "ok":
        print(
            f"error: batch failed (HTTP {status}): "
            f"{body.get('message', body)}",
            file=sys.stderr,
        )
        return int(body.get("exit_code", EXIT_CHECKING_ERROR))
    results = body.get("results", [])
    exit_codes = [int(c) for c in body.get("exit_codes", [])]
    for i, item in enumerate(results):
        code = exit_codes[i] if i < len(exit_codes) else EXIT_CHECKING_ERROR
        print(f"[{i}] exit={code} {_summarize_batch_item(item)}")
    cache = body.get("cache", {})
    print(
        f"batch: items={body.get('items')} errors={body.get('errors')} "
        f"cache_hits={cache.get('hits')}"
    )
    return max(exit_codes, default=EXIT_CHECKING_ERROR)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.server.client import ServerClient

    with ServerClient(
        args.url, timeout=args.timeout, retries=max(0, args.retries)
    ) as client:
        if args.server_stats:
            import json as _json

            print(_json.dumps(client.stats(), indent=2))
            return 0
        if args.batch_file is not None:
            return _run_query_batch(client, args)
        return _run_query_single(client, args)


def _run_query_single(client, args: argparse.Namespace) -> int:
    """``mfcsl query FORMULA``: one POST /query, the CLI's answer lines."""
    if args.formula is None:
        raise SystemExit("error: a formula is required (or --server-stats)")
    if args.occupancy is None:
        raise SystemExit("error: --occupancy is required for queries")
    payload = {
        "command": args.query_command,
        "occupancy": [
            float(x) for x in _parse_occupancy(args.occupancy)
        ],
        "formula": args.formula,
    }
    if args.model_file:
        import json as _json
        from pathlib import Path

        payload["model_document"] = _json.loads(
            Path(args.model_file).read_text()
        )
    else:
        payload["model"] = args.model
    if args.query_command == "csat":
        payload["theta"] = args.theta
    if args.deadline is not None:
        payload["deadline"] = args.deadline
    if args.max_solves is not None:
        payload["max_solves"] = args.max_solves
    overrides = _parse_option_overrides(args.option)
    if overrides:
        payload["options"] = overrides

    _status, body = client.query(payload)
    if body.get("status") != "ok":
        print(f"error: {body.get('message', body)}", file=sys.stderr)
        progress = body.get("progress")
        if progress:
            parts = ", ".join(
                f"{k}={v}" for k, v in sorted(progress.items())
            )
            print(f"progress: {parts}", file=sys.stderr)
        return int(body.get("exit_code", EXIT_CHECKING_ERROR))
    if args.query_command == "check":
        print("SATISFIED" if body["verdict"]["holds"] else "NOT SATISFIED")
    elif args.query_command == "value":
        print(f"{body['value']:.10f}")
    else:
        intervals = body["intervals"]
        if not intervals:
            print("empty")
        else:
            for a, b in intervals:
                print(f"[{a:.6f}, {b:.6f}]")
    cache = body.get("cache", {})
    print(
        f"cache: hit={cache.get('hit')} "
        f"cold_entry={cache.get('cold_entry')}"
    )
    return int(body.get("exit_code", EXIT_CHECKING_ERROR))


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="mfcsl",
        description="MF-CSL model checking of mean-field models "
        "(Kolesnichenko et al., DSN 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list built-in models").set_defaults(
        func=_cmd_models
    )

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="virus1", help="built-in model name")
        p.add_argument(
            "--model-file",
            default=None,
            help="JSON model document (overrides --model; see repro.io)",
        )
        p.add_argument(
            "--occupancy",
            required=True,
            help="comma-separated occupancy vector, e.g. 0.8,0.15,0.05",
        )
        p.add_argument(
            "--deadline",
            type=float,
            default=None,
            help="wall-clock budget in seconds; expiry raises a "
            "budget-exceeded error (exit code 5) with partial progress",
        )
        p.add_argument(
            "--max-solves",
            type=int,
            default=None,
            help="cap on solve_ivp attempts charged against the budget",
        )
        p.add_argument(
            "--max-refinements",
            type=int,
            default=None,
            help="cap on propagator-grid refinements; exceeding it "
            "triggers the degradation ladder instead of more refinement",
        )
        p.add_argument(
            "--max-memory-mb",
            type=float,
            default=None,
            help="refuse any single estimated allocation above this "
            "(propagator cell caches); exceeded = exit code 5",
        )

    def add_workers(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes (results are bitwise identical for "
            "every value)",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        add_model_args(p)
        p.add_argument(
            "--convention",
            default="standard",
            choices=("standard", "phi1"),
            help="until start-state convention (see CheckOptions)",
        )
        p.add_argument(
            "--curve-method",
            default="propagate",
            choices=("propagate", "recompute"),
            help="how time-dependent until probabilities are evaluated: "
            "the window-shift ODE or per-time recomputation "
            "(see CheckOptions.curve_method)",
        )
        p.add_argument(
            "--matrix-backend",
            default="auto",
            choices=("auto", "dense", "sparse"),
            help="transient linear-algebra backend: dense (K, K) arrays, "
            "sparse CSR action kernels for large local models, or auto "
            "selection by size and structural density "
            "(see CheckOptions.matrix_backend; docs/performance.md §8)",
        )
        p.add_argument(
            "--propagator-tol",
            type=float,
            default=1e-6,
            help="defect tolerance of the sparse action engine "
            "(docs/performance.md §8)",
        )
        p.add_argument(
            "--no-formula-optimizations",
            action="store_true",
            help="check the formula as written: no vacuity rewrite and "
            "no demand-driven evaluation shortcuts "
            "(see CheckOptions.formula_optimizations)",
        )
        p.add_argument(
            "--diagnose",
            action="store_true",
            help="print the numerical diagnostic trace (solver choices, "
            "fallbacks, residual maxima, cache hits) after the answer",
        )
        p.add_argument("formula", help="MF-CSL formula text")

    p_check = sub.add_parser("check", help="check m |= Psi")
    add_common(p_check)
    p_check.add_argument(
        "--explain",
        action="store_true",
        help="print every expectation leaf's value",
    )
    p_check.set_defaults(func=_cmd_check)

    p_value = sub.add_parser(
        "value", help="print an E/ES/EP leaf's expectation value"
    )
    add_common(p_value)
    p_value.set_defaults(func=_cmd_value)

    p_csat = sub.add_parser(
        "csat", help="conditional satisfaction set over [0, theta]"
    )
    add_common(p_csat)
    p_csat.add_argument("--theta", type=float, default=10.0)
    p_csat.set_defaults(func=_cmd_csat)

    p_sim = sub.add_parser(
        "simulate",
        help="finite-N ensemble simulation vs the mean-field limit",
    )
    add_model_args(p_sim)
    add_workers(p_sim)
    p_sim.add_argument(
        "-N", "--population", type=int, default=1000, help="objects per run"
    )
    p_sim.add_argument("--runs", type=int, default=100)
    p_sim.add_argument("--horizon", type=float, default=2.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--method",
        default="batched",
        choices=("batched", "serial"),
        help="vectorized ensemble engine or the per-event reference loop",
    )
    p_sim.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="replicas per batch (part of the reproducibility contract)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_mc = sub.add_parser(
        "mc", help="Monte-Carlo estimate of a path-formula probability"
    )
    add_model_args(p_mc)
    add_workers(p_mc)
    p_mc.add_argument(
        "--state",
        default=None,
        help="start state name; omitted = EP (start drawn from occupancy)",
    )
    p_mc.add_argument("--samples", type=int, default=2000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument(
        "--method", default="batched", choices=("batched", "serial")
    )
    p_mc.add_argument("--batch-size", type=int, default=256)
    p_mc.add_argument("formula", help="path formula, e.g. 'a U[0,1] b'")
    p_mc.set_defaults(func=_cmd_mc)

    p_serve = sub.add_parser(
        "serve",
        help="run the checking server (persistent cross-request cache; "
        "see docs/serving.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8349, help="0 picks a free port"
    )
    p_serve.add_argument(
        "--max-entries",
        type=int,
        default=32,
        help="LRU bound on warm (model, options) cache entries",
    )
    p_serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="deadline in seconds applied to requests that set none",
    )
    p_serve.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        help="admission control: concurrent computations allowed",
    )
    p_serve.add_argument(
        "--queue-timeout",
        type=float,
        default=30.0,
        help="seconds a request may wait for a worker slot before "
        "being rejected with HTTP 429",
    )
    p_serve.add_argument(
        "--max-batch-items",
        type=int,
        default=256,
        help="upper bound on queries per POST /batch envelope",
    )
    p_serve.add_argument(
        "--isolate",
        default="none",
        choices=("none", "process"),
        help="query-execution isolation: 'process' forks a worker per "
        "computation so a segfault/OOM answers one query with exit "
        "code 5 instead of killing the server; 'none' runs in-process "
        "(default)",
    )
    p_serve.add_argument(
        "--drain-deadline",
        type=float,
        default=30.0,
        help="graceful-shutdown budget: seconds in-flight requests get "
        "to finish after SIGTERM before the server stops anyway",
    )
    p_serve.add_argument(
        "--connection-timeout",
        type=float,
        default=60.0,
        help="per-connection socket timeout; idle keep-alive clients "
        "are disconnected after this many silent seconds "
        "(0 disables)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_query = sub.add_parser(
        "query", help="send one request to a running checking server"
    )
    p_query.add_argument(
        "--url",
        default="http://127.0.0.1:8349",
        help="base URL of the server (mfcsl serve prints it on startup)",
    )
    p_query.add_argument(
        "--command",
        dest="query_command",
        default="check",
        choices=("check", "value", "csat"),
    )
    p_query.add_argument("--model", default="virus1")
    p_query.add_argument(
        "--model-file",
        default=None,
        help="JSON model document sent inline (overrides --model)",
    )
    p_query.add_argument(
        "--occupancy",
        default=None,
        help="comma-separated occupancy vector, e.g. 0.8,0.15,0.05",
    )
    p_query.add_argument("--theta", type=float, default=10.0)
    p_query.add_argument("--deadline", type=float, default=None)
    p_query.add_argument("--max-solves", type=int, default=None)
    p_query.add_argument(
        "--option",
        action="append",
        metavar="NAME=VALUE",
        help="CheckOptions override, repeatable "
        "(e.g. --option curve_method=recompute)",
    )
    p_query.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="client-side socket timeout in seconds",
    )
    p_query.add_argument(
        "--retries",
        type=int,
        default=3,
        help="retry attempts on connect errors and transient 429/503 "
        "responses (exponential backoff with full jitter; 0 fails "
        "on the first error)",
    )
    p_query.add_argument(
        "--server-stats",
        action="store_true",
        help="print the server's /stats payload and exit",
    )
    p_query.add_argument(
        "--batch",
        dest="batch_file",
        default=None,
        metavar="FILE",
        help="JSON file with a list of request objects (or a "
        "{'queries': [...]} envelope) sent as one POST /batch; "
        "prints one result line per item and exits with the worst "
        "per-item exit code",
    )
    p_query.add_argument(
        "formula", nargs="?", default=None, help="MF-CSL formula text"
    )
    p_query.set_defaults(func=_cmd_query)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point for the ``mfcsl`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError) and exc.progress:
            parts = ", ".join(
                f"{k}={v}" for k, v in sorted(exc.progress.items())
            )
            print(f"progress: {parts}", file=sys.stderr)
        if isinstance(exc, WorkerError) and exc.batch_index is not None:
            provenance = exc.seed_provenance or "unknown seed"
            print(
                f"failed batch: {exc.batch_index} ({provenance})",
                file=sys.stderr,
            )
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
