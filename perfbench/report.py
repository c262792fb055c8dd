"""Metric assembly: end-to-end metrics of a phase, per-layer metrics of a traced one."""

from __future__ import annotations

from common import Phase, median, metric, quantile
from layers import LAYERS

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Layers whose self time is reported as ``<layer>.self_ms``.
_SELF_MS = (
    "logic.parse", "logic.rewrite", "meanfield.ode", "meanfield.stationary",
    "meanfield.compiled", "ctmc.propagators", "ctmc.inhomogeneous",
    "checking.context", "checking.reachability", "checking.nested",
    "checking.csat", "checking.global_", "io.model_hash", "models.registry",
    "server.service",
)
_CALLS = (
    "logic.parse", "meanfield.ode", "meanfield.stationary",
    "checking.global_", "io.model_hash", "models.registry",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(phase: Phase, good: int) -> dict:
    """The end-to-end metrics of one phase with ``good`` correct answers
    (the phase's times are already scaled to the reference host)."""
    ms = [1000.0 * latency for _, _, latency in phase.records]
    return {
        "setup_s": metric(median(phase.setup_s), "s"),
        "queries_per_s": metric(good / phase.busy_s, "1/s"),
        "latency_p50_ms": metric(quantile(ms, 0.5), "ms"),
        "latency_p90_ms": metric(quantile(ms, 0.9), "ms"),
        "peak_rss_mb": metric(phase.rss_mb, "MB"),
    }


def per_layer(
    phase: Phase,
    *,
    untraced: dict,
    traced: dict,
    failed_share: float,
    value_abs_err_max: float,
    slo_miss_share: float,
    host_factor: float,
) -> dict:
    """Every per-layer metric of a traced phase.

    ``phase.trace`` carries the layer summary (:meth:`layers.Tracer.summary`),
    the summed ``EvalStats`` and ``service_*`` counters of the phase and
    the time the shares are taken of (measured wall time in-process,
    summed request round trips for the server).  ``untraced``/``traced``
    are the two phases' end-to-end metrics; their difference is the
    tracing overhead.
    """
    trace = phase.trace
    summary = trace["summary"]
    c = trace["counters"].get
    transport_ms = trace.get("transport_ms", [])
    handle_ms = trace.get("handle_ms", [])
    out = {}
    for layer in _CALLS:
        out[f"{layer}.calls"] = metric(summary[layer]["calls"], "count")
    for layer in _SELF_MS:
        out[f"{layer}.self_ms"] = metric(summary[layer]["self_ms"], "ms")
    out["logic.rewrite.rewrites_applied"] = metric(
        c("rewrites_applied", 0), "count")
    out["meanfield.ode.rhs_evaluations"] = metric(
        c("rhs_evaluations", 0), "count")
    out["meanfield.compiled.generator_evals"] = metric(
        c("generator_evals", 0), "count")
    out["meanfield.compiled.cache_hit_ratio"] = metric(
        _ratio(c("generator_cache_hits", 0),
               c("generator_cache_hits", 0) + c("generator_cache_misses", 0)),
        "ratio")
    cells = c("propagator_cells_built", 0) + c("sparse_cells_built", 0)
    out["ctmc.propagators.cells_built"] = metric(cells, "count")
    out["ctmc.propagators.cache_hit_ratio"] = metric(
        _ratio(c("propagator_cache_hits", 0),
               c("propagator_cache_hits", 0) + cells), "ratio")
    out["ctmc.propagators.refinements"] = metric(
        c("propagator_refinements", 0) + c("sparse_refinements", 0), "count")
    out["ctmc.solve_ivp_calls"] = metric(c("solve_ivp_calls", 0), "count")
    out["ctmc.solver_fallbacks"] = metric(c("solver_fallbacks", 0), "count")
    out["checking.context.transient_cache_hit_ratio"] = metric(
        _ratio(c("transient_cache_hits", 0),
               c("transient_cache_hits", 0) + c("transient_cache_misses", 0)),
        "ratio")
    out["checking.context.ladder_downgrades"] = metric(
        c("ladder_downgrades", 0), "count")
    out["checking.nested.early_exits"] = metric(c("early_exits", 0), "count")
    out["checking.csat.segments_skipped"] = metric(
        c("segments_skipped", 0), "count")
    out["server.service.compute_ms"] = metric(
        summary["checking.global_"]["total_ms"]
        if summary["server.service"]["calls"] else 0.0, "ms")
    requests = c("service_requests", 0)
    hits = c("service_cache_hits", 0)
    computed = requests - hits - c("service_coalesced", 0) - c(
        "service_rejections", 0)
    out["server.service.response_hit_ratio"] = metric(
        _ratio(hits, requests), "ratio")
    out["server.service.context_reuse_ratio"] = metric(
        _ratio(c("service_context_reuses", 0), computed), "ratio")
    for name in ("coalesced", "rejections", "batch_items"):
        out[f"server.service.{name}"] = metric(c(f"service_{name}", 0),
                                               "count")
    out["server.service.handle_p50_ms"] = metric(
        quantile(handle_ms, 0.5) if handle_ms else 0.0, "ms")
    out["server.http.transport_ms"] = metric(
        quantile(transport_ms, 0.5) if transport_ms else 0.0, "ms")
    out["server.client.retries"] = metric(trace.get("retries", 0), "count")

    base_ms = trace["share_base_ms"]
    attributed = 0.0
    for layer in LAYERS:
        share = 100.0 * _ratio(summary[layer]["self_ms"], base_ms)
        attributed += share
        out[f"share.{layer}"] = metric(share, "%")
    http_share = 100.0 * _ratio(sum(transport_ms), base_ms)
    attributed += http_share
    out["share.server.http"] = metric(http_share, "%")
    out["share.unattributed"] = metric(100.0 - attributed, "%")

    for name, _unit in END_TO_END:
        out[f"trace_overhead.{name}"] = metric(
            traced[name]["value"] - untraced[name]["value"],
            untraced[name]["unit"])

    out["answers.failed_share"] = metric(failed_share, "ratio")
    out["answers.value_abs_err_max"] = metric(value_abs_err_max, "prob")
    out["answers.slo_miss_share"] = metric(slo_miss_share, "ratio")
    out["loadgen.late_p90_ms"] = metric(
        quantile(phase.late_ms, 0.9) if phase.late_ms else 0.0, "ms")
    out["latency.samples"] = metric(len(phase.records), "count")
    out["host.speed_factor"] = metric(host_factor, "ratio")
    return out
