"""Numerical options shared by all checkers.

Every tolerance and grid size used anywhere in the checking pipeline is
collected here so that (a) experiments are reproducible from a single
record, and (b) accuracy/cost trade-offs can be studied systematically
(bench A6).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.exceptions import ModelError

#: Fields excluded from :meth:`CheckOptions.signature`.  They are pure
#: *execution* limits — they bound how long a run may take but never
#: change any number a run produces (a violated limit aborts the run
#: before anything wrong is cached) — so two requests differing only in
#: them can share every warm cache.  ``max_refinements`` and
#: ``max_memory_mb`` stay *in* the signature: they decide which
#: degradation-ladder rungs succeed and therefore shape cached state.
SIGNATURE_EXCLUDED_FIELDS = ("deadline", "max_solves")

#: Every individually-switchable checking optimization, in canonical
#: order.  The first four are the rewrite-rule families of
#: :mod:`repro.logic.rewrite` (``dedup`` additionally enables the shared
#: local checker and cSat memo at evaluation time); the last three are
#: the demand-driven evaluation strategies of the checking layer.
OPTIMIZATION_NAMES = (
    "fold",
    "negation",
    "vacuity",
    "dedup",
    "lazy-csat",
    "early-exit",
    "lazy-segments",
)


@dataclass(frozen=True)
class CheckOptions:
    """Tunable numerical parameters of the model checkers.

    Attributes
    ----------
    ode_rtol, ode_atol:
        Tolerances of every Kolmogorov / occupancy ODE solve.
    grid_points:
        Number of samples used when scanning a probability curve for
        threshold crossings (crossings are then refined by Brent's
        method, so this only needs to separate distinct crossings).
    crossing_xtol:
        Absolute time tolerance of the threshold-crossing refinement.
    probability_tol:
        Slack used when comparing computed probabilities against formula
        thresholds; values within this distance of the threshold are
        resolved by the exact comparison but flagged in curve metadata.
    until_method:
        ``"auto"`` (simple algorithm when operand sets are constant,
        nested otherwise), ``"simple"`` or ``"nested"`` to force one.
    curve_method:
        How time-dependent until probabilities are evaluated:
        ``"propagate"`` uses the window-shift ODE of Equations (6)/(12)
        (the paper's Appendix algorithm); ``"recompute"`` re-solves the
        forward equation from scratch at every evaluation time — the
        reference the production method is checked against.  Both
        methods must agree (bench A3 and the propagator bench measure
        the speed difference).
    transient_method:
        Backend of :meth:`EvaluationContext.transient_matrix`; the only
        value is ``"ode"``: the dense backend solves each Kolmogorov
        problem with ``solve_ivp`` and the sparse backend serves it
        from its action engine.
    matrix_backend:
        Matrix representation of the transient pipeline.  ``"dense"``
        is the classical path (dense ``(K, K)`` generators and
        propagators); ``"sparse"`` assembles CSR generators and serves
        transient queries through Krylov/uniformization *actions*
        (:class:`repro.ctmc.propagators.SparseActionPropagator`) that
        never form a dense propagator unless explicitly asked for a full
        matrix.  ``"auto"`` (default) picks sparse when the local model
        is large and its generator structurally sparse — see
        docs/performance.md, "Backend selection".
    propagator_tol:
        Defect tolerance of the sparse action engine: its cell grid is
        refined until the Richardson defect over the probe windows is
        below this bound (see ``docs/performance.md`` §8).
    horizon_margin:
        Extra time beyond the strictly-needed horizon when solving the
        occupancy ODE, so root refinement near the boundary never falls
        off the trajectory.
    start_convention:
        Semantics of ``Φ1 U^[0,t2] Φ2`` for a start state satisfying
        ``Φ2`` but not ``Φ1``.  ``"standard"`` (default) follows the
        paper's Definition 4 (and classical CSL): the until is trivially
        satisfied at ``t' = 0``, so the probability is one.  ``"phi1"``
        reproduces the convention the paper's Example 1 actually computes
        (its Equation (4) requires the start state to satisfy ``Φ1``,
        yielding probability zero from ``Φ2 \\ Φ1`` states).  The two only
        differ when ``t1 = 0`` and the start state is in ``Φ2 \\ Φ1``;
        see EXPERIMENTS.md.
    workers:
        Worker processes for the Monte-Carlo engines (statistical
        checking, finite-N ensembles).  ``1`` runs in-process.  Results
        are bit-identical for every value — the reproducibility contract
        of :mod:`repro.parallel` — so this is purely a speed knob.
    solver_fallbacks:
        Stiff ``solve_ivp`` methods retried (with tightened ``atol``)
        when a primary explicit solve fails — see
        :func:`repro.diagnostics.robust_solve_ivp`.  An empty tuple
        disables graceful degradation: the first failure raises.
    residual_tol:
        Tolerance of the post-solve self-verification checks
        (probability-simplex row sums, negativity, monotone absorbed
        mass); violations beyond it are recorded as warnings in the
        context's :class:`~repro.diagnostics.DiagnosticTrace` and
        counted in ``EvalStats.residual_warnings``.
    deadline:
        Wall-clock seconds a checking run may take.  Enforced
        cooperatively through a :class:`~repro.resilience.Budget` on the
        evaluation context: solver attempts, propagator refinements,
        nested-until segment scans and Monte-Carlo batches all
        checkpoint against it, raising
        :class:`~repro.exceptions.BudgetExceededError` with a
        partial-progress report.  ``None`` (default) disables the
        deadline.
    max_solves:
        Cap on ``solve_ivp`` attempts charged against the budget;
        ``None`` disables the cap.
    max_refinements:
        Cap on propagator-grid refinements per engine (overrides the
        engine's built-in bound when set); exceeding it triggers the
        degradation ladder instead of more refinement.
    max_memory_mb:
        Memory guard: any single estimated allocation (propagator cell
        caches) above this raises ``BudgetExceededError`` instead of
        being attempted.
    formula_optimizations:
        Which checking optimizations are active — ``"all"`` (default),
        ``"none"``, or an iterable of names from
        :data:`OPTIMIZATION_NAMES` (normalized to a sorted tuple; the
        options object stays hashable for cache keys).  ``fold``,
        ``negation`` and ``vacuity`` are formula rewrite rules applied
        before checking (:func:`repro.logic.rewrite.optimize`);
        ``dedup`` rewrites shared subtrees into a DAG *and* routes leaf
        evaluation through one memoizing local checker per context;
        ``lazy-csat`` materializes conditional satisfaction sets per
        query window instead of over the whole ``[0, θ]`` domain;
        ``early-exit`` stops threshold comparisons as soon as partial
        probability-mass bounds decide them (certificate recorded in
        the trace); ``lazy-segments`` defers nested-until segment
        solves until an evaluation time actually probes them.  Every
        combination returns identical verdicts — the benchmark ablation
        (``benchmarks/test_bench_formula_opt.py``) enforces agreement
        within 1e-9 — so this is purely a speed/ablation knob.
    """

    ode_rtol: float = 1e-8
    ode_atol: float = 1e-10
    grid_points: int = 129
    crossing_xtol: float = 1e-10
    probability_tol: float = 1e-7
    until_method: str = "auto"
    curve_method: str = "propagate"
    transient_method: str = "ode"
    matrix_backend: str = "auto"
    propagator_tol: float = 1e-6
    horizon_margin: float = 1.0
    start_convention: str = "standard"
    workers: int = 1
    solver_fallbacks: "tuple[str, ...]" = ("Radau", "LSODA")
    residual_tol: float = 1e-6
    deadline: "float | None" = None
    max_solves: "int | None" = None
    max_refinements: "int | None" = None
    max_memory_mb: "float | None" = None
    formula_optimizations: "str | tuple[str, ...]" = "all"

    def __post_init__(self) -> None:
        if self.grid_points < 3:
            raise ModelError("grid_points must be at least 3")
        if self.until_method not in ("auto", "simple", "nested"):
            raise ModelError(
                f"until_method must be auto/simple/nested, got "
                f"{self.until_method!r}"
            )
        if self.curve_method not in ("propagate", "recompute"):
            raise ModelError(
                f"curve_method must be propagate/recompute, got "
                f"{self.curve_method!r}"
            )
        if self.transient_method != "ode":
            raise ModelError(
                f"transient_method must be ode, got "
                f"{self.transient_method!r}"
            )
        if self.matrix_backend not in ("auto", "dense", "sparse"):
            raise ModelError(
                f"matrix_backend must be auto/dense/sparse, got "
                f"{self.matrix_backend!r}"
            )
        if self.propagator_tol <= 0:
            raise ModelError("propagator_tol must be positive")
        for name in ("ode_rtol", "ode_atol", "crossing_xtol", "probability_tol"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")
        if self.horizon_margin < 0:
            raise ModelError("horizon_margin must be non-negative")
        if self.start_convention not in ("standard", "phi1"):
            raise ModelError(
                f"start_convention must be standard/phi1, got "
                f"{self.start_convention!r}"
            )
        if self.workers < 1:
            raise ModelError(f"workers must be >= 1, got {self.workers}")
        if not isinstance(self.solver_fallbacks, tuple):
            # Accept any iterable of method names but store a hashable
            # tuple (CheckOptions is frozen and used in cache keys).
            object.__setattr__(
                self, "solver_fallbacks", tuple(self.solver_fallbacks)
            )
        _known = {"RK45", "RK23", "DOP853", "Radau", "BDF", "LSODA"}
        for fb in self.solver_fallbacks:
            if fb not in _known:
                raise ModelError(
                    f"unknown solver fallback {fb!r}; choose from "
                    f"{sorted(_known)}"
                )
        if self.residual_tol <= 0:
            raise ModelError("residual_tol must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ModelError(
                f"deadline must be positive, got {self.deadline}"
            )
        if self.max_solves is not None and self.max_solves <= 0:
            raise ModelError(
                f"max_solves must be positive, got {self.max_solves}"
            )
        if self.max_refinements is not None and self.max_refinements < 0:
            raise ModelError(
                f"max_refinements must be non-negative, got "
                f"{self.max_refinements}"
            )
        if self.max_memory_mb is not None and self.max_memory_mb <= 0:
            raise ModelError(
                f"max_memory_mb must be positive, got {self.max_memory_mb}"
            )
        opts = self.formula_optimizations
        if opts == "all":
            opts = OPTIMIZATION_NAMES
        elif opts == "none":
            opts = ()
        elif isinstance(opts, str):
            raise ModelError(
                f"formula_optimizations must be 'all', 'none' or an "
                f"iterable of names, got {opts!r}"
            )
        normalized = tuple(sorted(set(opts)))
        unknown = [n for n in normalized if n not in OPTIMIZATION_NAMES]
        if unknown:
            raise ModelError(
                f"unknown formula optimizations {unknown}; choose from "
                f"{list(OPTIMIZATION_NAMES)}"
            )
        object.__setattr__(self, "formula_optimizations", normalized)

    def with_(self, **changes) -> "CheckOptions":
        """A copy with some fields replaced (frozen-dataclass helper)."""
        return replace(self, **changes)

    def signature(self) -> str:
        """Stable canonical signature of every answer-shaping option.

        A deterministic ``name=value`` rendering of all fields except
        :data:`SIGNATURE_EXCLUDED_FIELDS`, identical across processes
        and interpreter restarts (every field is plain data after
        ``__post_init__`` normalization — no ``id()``/hash-randomized
        values).  The serving cache keys warm engine state by
        ``(model hash, options signature)``: two requests with equal
        signatures may share compiled generators, propagator cells and
        transient matrices; requests differing only in excluded fields
        (per-request deadlines and solve caps) share them too.
        """
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in SIGNATURE_EXCLUDED_FIELDS:
                continue
            value = getattr(self, f.name)
            if isinstance(value, float):
                rendered = repr(value)
            elif isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            else:
                rendered = str(value)
            parts.append(f"{f.name}={rendered}")
        return ";".join(parts)
