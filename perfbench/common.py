"""Shared pieces of the benchmark: paths, statistics, answers, references."""

from __future__ import annotations

import math
import os
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Absolute tolerance on a returned expectation value against its reference.
VALUE_TOL = 1e-5
#: Absolute tolerance on a cSat interval endpoint against its reference.
ENDPOINT_TOL = 1e-4

#: Options of the reference checker: the simplest configuration the
#: library has (dense matrices, per-time recomputation of curves, one ODE
#: solve per transient, no formula rewriting, the until algorithm chosen
#: from the operand sets) at tight tolerances.  They override a query's
#: own algorithm options, so a query forcing ``until_method="nested"`` is
#: checked against the simple algorithm; semantic options such as
#: ``start_convention`` come from the query.
REFERENCE_OPTIONS = dict(
    matrix_backend="dense",
    curve_method="recompute",
    transient_method="ode",
    formula_optimizations="none",
    until_method="auto",
    ode_rtol=1e-10,
    ode_atol=1e-12,
)

#: Per-model changes to :data:`REFERENCE_OPTIONS`.  At K = 1001 a dense
#: Kolmogorov solve takes about 9 s per window, so the deep model's
#: reference keeps the sparse backend (still with per-time recomputation
#: and no rewriting) and a tolerance one decade looser.
REFERENCE_OVERRIDES = {
    "loadbalance-deep": dict(
        matrix_backend="sparse", ode_rtol=1e-9, ode_atol=1e-11
    ),
}


def require_program() -> None:
    """Put the checkout's sources on ``sys.path``; exit 2 without them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env() -> dict:
    """Environment for subprocesses that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH", "")) if p
    )
    return env


# ----------------------------------------------------------------------
# statistics


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (``numpy.quantile``'s default)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of another process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


@dataclass
class Phase:
    """One measured phase of a workload, untraced or traced.

    ``records`` holds one ``(label, [(query, answer)], latency_s)`` per
    request (an in-process query is a request of one item; ``answer`` is
    ``None`` for a failed item).  ``busy_s`` is the time the program spent
    answering them, the denominator of ``queries_per_s``.  Latencies,
    ``busy_s`` and ``setup_s`` are scaled to the reference host by the
    phase's own reference slices (:mod:`hostspeed`), whose factor for
    the whole phase is ``host_factor``; the ``trace`` times are as
    measured.  ``trace`` is
    set on a traced phase only: the layer summary, the summed counters,
    the time the layer shares are taken of (``share_base_ms``), and for
    the server the per-request transport and handle times and the client
    retries.
    """

    records: list
    busy_s: float
    setup_s: list
    rss_mb: float
    host_factor: float
    trace: "dict | None" = None
    late_ms: list = field(default_factory=list)
    faults: dict = field(default_factory=dict)


def perturbed(rng, base, size: float) -> list:
    """``base`` with each entry scaled by a seeded factor in ``1 ± size``,
    renormalized and rounded to six decimals (summing to one)."""
    raw = [x * (1.0 + rng.uniform(-size, size)) for x in base]
    rounded = [round(x / sum(raw), 6) for x in raw]
    rounded[0] = round(1.0 - sum(rounded[1:]), 6)
    return rounded


# ----------------------------------------------------------------------
# answers


def _holds(op: str, value: float, threshold: float) -> bool:
    return {
        "<": value < threshold,
        "<=": value <= threshold,
        ">": value > threshold,
        ">=": value >= threshold,
    }[op]


def answer_of(command: str, result) -> dict:
    """Normalize a library result (Verdict / float / IntervalSet)."""
    if command == "check":
        return {"holds": result.holds, "value": result.value}
    if command == "value":
        return {"value": float(result)}
    return {"intervals": [[float(a), float(b)] for a, b in result.intervals]}


def answer_of_response(command: str, body: dict):
    """Normalize a server response body; ``None`` for an error body."""
    if body.get("status") != "ok":
        return None
    if command == "check":
        verdict = body["verdict"]
        return {"holds": verdict["holds"], "value": verdict["value"]}
    if command == "value":
        return {"value": body["value"]}
    return {"intervals": body["intervals"]}


class ReferenceBook:
    """Reference answers from :data:`REFERENCE_OPTIONS`, one context per input.

    A query carries ``leaf`` (its expectation leaf with the bound
    stripped, so re-thresholded repeats share one reference value) and
    ``bound`` (``[op, p]``); a boolean combination carries neither and is
    checked as written.
    """

    def __init__(self):
        from repro.checking import CheckOptions, MFModelChecker
        from repro.models import MODEL_REGISTRY

        self._checker_cls = MFModelChecker
        self._options_cls = CheckOptions
        self._registry = MODEL_REGISTRY
        self._models: dict = {}
        self._contexts: dict = {}
        self._memo: dict = {}

    def _checker_and_context(self, query):
        import numpy as np

        options = dict(query.get("options", {}))
        options.update(REFERENCE_OPTIONS)
        options.update(REFERENCE_OVERRIDES.get(query["model"], {}))
        opt_key = tuple(sorted(options.items()))
        model = self._models.get(query["model"])
        if model is None:
            model = self._models[query["model"]] = self._registry[
                query["model"]
            ]()
        occ = np.asarray(query["occupancy"], dtype=float)
        key = (query["model"], opt_key, tuple(query["occupancy"]))
        pair = self._contexts.get(key)
        if pair is None:
            checker = self._checker_cls(model, self._options_cls(**options))
            pair = self._contexts[key] = (checker, checker.context(occ))
        return pair[0], pair[1], occ, key

    def answer(self, query) -> dict:
        checker, ctx, occ, key = self._checker_and_context(query)
        command = query["command"]
        if command == "csat":
            memo_key = (key, "csat", query["formula"], query["theta"])
            if memo_key not in self._memo:
                self._memo[memo_key] = answer_of(
                    "csat",
                    checker.conditional_sat(
                        query["formula"], occ, query["theta"], ctx=ctx
                    ),
                )
            return self._memo[memo_key]
        leaf = query.get("leaf")
        if leaf is None:
            memo_key = (key, "check", query["formula"])
            if memo_key not in self._memo:
                verdict = checker.check_detailed(query["formula"], occ, ctx=ctx)
                self._memo[memo_key] = {"holds": verdict.holds, "value": None}
            return self._memo[memo_key]
        memo_key = (key, "value", leaf)
        if memo_key not in self._memo:
            self._memo[memo_key] = float(checker.value(leaf, occ, ctx=ctx))
        value = self._memo[memo_key]
        if command == "value":
            return {"value": value}
        op, threshold = query["bound"]
        return {"holds": _holds(op, value, threshold), "value": value}


def judge(query, got, ref) -> "tuple[bool, float]":
    """``(correct, |value - reference|)`` for one answer.

    A verdict may differ from the reference only when the reference value
    lies within :data:`VALUE_TOL` of the threshold.  Answers to the
    paper's own inputs must also match the values EXPERIMENTS.md locks.
    """
    if got is None:
        return False, 0.0
    err = 0.0
    ok = True
    if "intervals" in ref:
        ok = _same_intervals(got["intervals"], ref["intervals"])
    else:
        if ref.get("value") is not None:
            if got.get("value") is None:
                return False, 0.0
            err = abs(got["value"] - ref["value"])
            ok = err <= VALUE_TOL
        if "holds" in ref and got.get("holds") != ref["holds"]:
            near = query.get("bound") is not None and ref.get(
                "value"
            ) is not None and abs(ref["value"] - query["bound"][1]) <= VALUE_TOL
            ok = ok and near
    locked = query.get("locked")
    if locked:
        if "holds" in locked and got.get("holds") != locked["holds"]:
            ok = False
        if "value" in locked and abs(
            got["value"] - locked["value"]
        ) > locked["tol"]:
            ok = False
        if "intervals" in locked and not _same_intervals(
            got["intervals"], locked["intervals"]
        ):
            ok = False
    return ok, err


def _same_intervals(a, b) -> bool:
    return len(a) == len(b) and all(
        abs(x - y) <= ENDPOINT_TOL
        for pa, pb in zip(a, b)
        for x, y in zip(pa, pb)
    )
