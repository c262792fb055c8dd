"""Cheap performance counters for the numerical pipeline.

Every ODE solve in this library bottoms out in right-hand-side
evaluations that assemble the generator ``Q(m̄(t))``, and the checkers
routinely re-solve identical Kolmogorov problems (nested untils revisit
the same windows, global operators re-check the same formulas).  The
compiled-generator fast path and the solve-level caches exist to drive
that cost down; :class:`EvalStats` is how the speedup is *measured*
instead of asserted.

An :class:`EvalStats` instance hangs off every
:class:`~repro.checking.context.EvaluationContext` as ``ctx.stats`` and
is shared with its steady-state child (``steady_context``), so the
counters aggregate over one logical checking run.  The benchmark suite
records ``stats.as_dict()`` into ``benchmark.extra_info``.

The counters are plain integer attributes — incrementing one is a single
attribute store, cheap enough for the hottest loops.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class EvalStats:
    """Counters of the expensive operations behind one checking run.

    Attributes
    ----------
    rhs_evaluations:
        Occupancy-ODE drift evaluations (one per solver stage step), on
        the trajectory and on the steady-state long run.
    generator_evals:
        Generator assemblies ``Q(m̄(t))`` actually performed.
    generator_cache_hits / generator_cache_misses:
        Hits/misses of the ``t -> Q(m̄(t))`` memo behind
        :meth:`~repro.checking.context.EvaluationContext.generator_function`.
    transient_cache_hits / transient_cache_misses:
        Hits/misses of the context's transient-matrix cache
        ``Π(t', t'+T)`` (keyed by generator-transform signature, window
        and tolerances).
    solve_ivp_calls:
        Number of ``scipy.integrate.solve_ivp`` invocations (occupancy
        extensions, steady-state long-run doublings, Kolmogorov solves,
        window-shift propagations).
    sim_events:
        Transition events fired by the finite-N Gillespie engines
        (:mod:`repro.meanfield.simulation`), across all replicas.
    sim_batches:
        Vectorized ensemble batches simulated (one per
        ``_simulate_batch`` sweep-loop run).
    mc_paths:
        Paths sampled by the statistical checker.
    mc_candidates:
        Candidate (thinning) events proposed while sampling those paths —
        accepted or not; the cost driver of the samplers.
    propagator_engines:
        :class:`~repro.ctmc.propagators.SparseActionPropagator`
        instances built by evaluation contexts (one per transformed
        chain).
    propagator_cells_built:
        Grid-cell / boundary-sliver propagators actually computed by the
        piecewise-homogeneous engine (``expm`` or uniformization calls).
    propagator_cache_hits:
        Cell or sliver propagators served from the engine cache instead
        of being recomputed.
    propagator_products:
        Matrix multiplications performed when composing ``Π(a, b)`` from
        cached cells — the whole marginal cost of a propagator query.
    propagator_refinements:
        Grid halvings forced by the defect-control probe (see
        :meth:`~repro.ctmc.propagators.PropagatorEngine.ensure`).
    sparse_cells_built:
        Sparse exponent cells/slivers assembled by
        :class:`~repro.ctmc.propagators.SparseActionPropagator` (cache
        hits count into ``propagator_cache_hits`` like the dense engine).
    sparse_applies:
        Window actions (``v @ Π`` / ``Π @ v``) evaluated by the sparse
        engine through chains of its cells' cached action plans.
    sparse_refinements:
        Grid halvings forced by the sparse engine's Richardson defect
        control.
    solver_fallbacks:
        Extra ``solve_ivp`` attempts made after a primary method failed
        (see :func:`repro.diagnostics.robust_solve_ivp`); non-zero means
        a stiff fallback rescued at least one solve.
    residual_checks:
        Probability-simplex / stochasticity self-verification checks run
        after solves (see :mod:`repro.diagnostics`).
    residual_warnings:
        Residual checks whose violation exceeded the configured
        tolerance — the answer is still returned, but flagged.
    ladder_downgrades:
        Descents of the graceful degradation ladder (sparse action
        engine → ODE chain), one per failed window; non-zero means at
        least one window was not served by its first-choice backend
        (see docs/robustness.md §2).
    worker_retries:
        Batches re-dispatched by :func:`repro.parallel.run_batches`
        after a worker process died or the pool broke; the retried
        batches produce bitwise-identical results, so this only
        measures fault-recovery activity.
    rewrites_applied:
        Vacuous bounds (``⩾ 0``, ``⩽ 1``, ``< 0``, ``> 1``) replaced by
        constants by :func:`repro.logic.rewrite.optimize` before
        checking (``formula_optimizations="all"``).
    formula_memo_hits:
        Subformula evaluations answered from a memo instead of being
        recomputed: local-checker satisfaction-set, curve and
        path-probability cache hits plus cSat-evaluator memo hits.
    early_exits:
        Threshold comparisons decided from partial probability-mass
        bounds before the full computation finished
        (``formula_optimizations="all"``); each exit leaves a
        certificate note in the trace.
    segments_skipped:
        Nested-until goal-chain segments an early exit skipped.
    service_requests:
        Requests accepted by a :class:`repro.server.service.CheckingService`
        (every command, before any cache probe).
    service_cache_hits:
        Requests answered from the cross-request response cache without
        recomputing anything.
    service_cache_misses:
        Requests whose ``(model hash, options signature)`` entry had to
        be created cold (no entry with stored responses existed).
    service_cache_evictions:
        Cache entries dropped, with their stored responses, by the LRU
        bound.
    service_rejections:
        Requests refused by admission control (worker pool saturated
        beyond the queue timeout).
    service_supervised:
        Queries executed under worker isolation
        (:class:`repro.server.supervisor.QuerySupervisor`,
        ``ServerConfig(isolate="process")``).
    service_worker_crashes:
        Supervised query workers that died (killed, segfaulted,
        OOM-killed) or stalled past their wall-clock allowance; each
        crash answers its query with exit code 5 and leaves a
        ``WorkerCrash`` record on the supervisor (``/stats`` under
        ``supervisor.recent_crashes``) — the server and its cached
        answers survive, and the next computation forks a fresh worker.
    service_client_disconnects:
        Responses that could not be written because the client hung up
        mid-response (``BrokenPipeError``/``ConnectionResetError``);
        swallowed — a vanished client must never kill a handler thread.
    service_connection_timeouts:
        Keep-alive connections closed because the client sent nothing
        for ``connection_timeout`` seconds (idle sockets and slow-loris
        stalls both land here).
    service_drain_rejections:
        Requests refused with 503 + ``Retry-After`` because the server
        was draining (graceful shutdown in progress).
    service_batch_requests:
        ``/batch`` envelopes accepted by the service (each also counts
        its items into ``service_requests``).
    service_batch_items:
        Individual queries carried by those envelopes.
    service_batch_item_errors:
        Batch items that produced an error response (the batch itself
        still succeeds — partial failure is per-item).
    """

    rhs_evaluations: int = 0
    generator_evals: int = 0
    generator_cache_hits: int = 0
    generator_cache_misses: int = 0
    transient_cache_hits: int = 0
    transient_cache_misses: int = 0
    solve_ivp_calls: int = 0
    sim_events: int = 0
    sim_batches: int = 0
    mc_paths: int = 0
    mc_candidates: int = 0
    propagator_engines: int = 0
    propagator_cells_built: int = 0
    propagator_cache_hits: int = 0
    propagator_products: int = 0
    propagator_refinements: int = 0
    sparse_cells_built: int = 0
    sparse_applies: int = 0
    sparse_refinements: int = 0
    solver_fallbacks: int = 0
    residual_checks: int = 0
    residual_warnings: int = 0
    ladder_downgrades: int = 0
    worker_retries: int = 0
    rewrites_applied: int = 0
    formula_memo_hits: int = 0
    early_exits: int = 0
    segments_skipped: int = 0
    service_requests: int = 0
    service_cache_hits: int = 0
    service_cache_misses: int = 0
    service_cache_evictions: int = 0
    service_rejections: int = 0
    service_supervised: int = 0
    service_worker_crashes: int = 0
    service_client_disconnects: int = 0
    service_connection_timeouts: int = 0
    service_drain_rejections: int = 0
    service_batch_requests: int = 0
    service_batch_items: int = 0
    service_batch_item_errors: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-friendly, for benchmark records)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"EvalStats({parts})"
