"""Numerical options shared by all checkers.

A field lives here only when some caller sets it: the ODE tolerances,
the crossing-scan grid, the algorithm and backend choices, the until
start convention and the execution budget.  Numerics that every caller
leaves at one value are constants next to their readers: the stiff
fallback chain and residual tolerance
(:data:`repro.diagnostics.DEFAULT_FALLBACKS`,
:data:`~repro.diagnostics.DEFAULT_RESIDUAL_TOL`), the trajectory's
horizon margin (:data:`repro.checking.context.HORIZON_MARGIN`), the
crossing tolerance (the ``xtol`` default of
:func:`repro.checking.reachability.grid_crossings`) and the early-exit
slack (:data:`repro.checking.local.PROBABILITY_TOL`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.exceptions import ModelError
from repro.resilience import BUDGET_LIMITS, check_limit

#: Fields excluded from :meth:`CheckOptions.signature`.  They are pure
#: *execution* limits — they bound how long a run may take but never
#: change any number a run produces (a violated limit aborts the run
#: before anything wrong is cached) — so two requests differing only in
#: them can share every warm cache.  ``max_refinements`` and
#: ``max_memory_mb`` stay *in* the signature: they decide which
#: degradation-ladder rungs succeed and therefore shape cached state.
SIGNATURE_EXCLUDED_FIELDS = ("deadline", "max_solves")

#: Numeric fields validated by :func:`repro.resilience.check_limit`:
#: ``name -> (integer, nonnegative)``.  The budget limits
#: (:data:`repro.resilience.BUDGET_LIMITS`) are validated the same way
#: and may also be ``None``.
_NUMERIC_FIELDS = {
    "ode_rtol": (False, False),
    "ode_atol": (False, False),
    "grid_points": (True, False),
    "propagator_tol": (False, False),
}

#: The string-valued fields and the values each accepts.
_CHOICE_FIELDS = {
    "until_method": ("auto", "nested"),
    "curve_method": ("propagate", "recompute"),
    "transient_method": ("ode",),
    "matrix_backend": ("auto", "dense", "sparse"),
    "start_convention": ("standard", "phi1"),
    "formula_optimizations": ("all", "none"),
}


@dataclass(frozen=True)
class CheckOptions:
    """Tunable numerical parameters of the model checkers.

    Attributes
    ----------
    ode_rtol, ode_atol:
        Tolerances of every Kolmogorov / occupancy ODE solve.
    grid_points:
        Number of samples per smooth segment when scanning a curve for
        threshold crossings; each sign change between neighbouring
        samples is refined by Brent's method.  A window in which the
        predicate flips and flips back between two samples is missed, so
        a window narrower than the sample spacing (a 128th of the
        segment at the default) can go unseen.  ROADMAP.md item 3 has a
        reproducer: on ``diurnal``, a 0.056-wide cSat window over
        θ = 40 appears only with ``grid_points=100001``.
    until_method:
        ``"auto"`` (simple algorithm when both operand sets are
        constant, nested otherwise) or ``"nested"`` to force the
        time-varying-set algorithm everywhere (its reference check).
        There is no way to force the simple algorithm: on a time-varying
        operand set it would freeze the set at ``t = 0`` and answer
        wrongly.
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
        transient queries through Al-Mohy–Higham Taylor *actions*
        (:class:`repro.ctmc.propagators.SparseActionPropagator`) that
        never form a dense propagator unless explicitly asked for a full
        matrix.  ``"auto"`` (default) picks sparse when the local model
        is large and its generator structurally sparse — see
        docs/performance.md, "Backend selection".
    propagator_tol:
        Defect tolerance of the sparse action engine: its cell grid is
        refined until the Richardson defect over the probe windows is
        below this bound (see ``docs/performance.md`` §8).
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
        Memory guard: any single estimated allocation above this raises
        ``BudgetExceededError`` instead of being attempted.  Screened:
        the evaluation context's dense Kolmogorov solves and window-shift
        solves, dense generator assembly, and the sparse action engine's
        cell cache and densified propagators.
    formula_optimizations:
        ``"all"`` (default) or ``"none"``.  ``"all"`` rewrites
        vacuously bounded operators (``⩾ 0``, ``⩽ 1``, ``< 0``, ``> 1``)
        to constants before checking (:func:`repro.logic.rewrite.optimize`),
        routes leaf evaluation through one memoizing local checker per
        context, materializes conditional satisfaction sets per query
        window instead of over the whole ``[0, θ]`` domain, and stops
        threshold comparisons as soon as partial probability-mass
        bounds decide them (certificate recorded in the trace).
        ``"none"`` is the as-written reference: no rewrite, a fresh
        local checker per leaf, the eager Table I cSat recursion and no
        early exit.  Both return identical verdicts — the benchmark
        (``benchmarks/test_bench_formula_opt.py``) enforces agreement
        within 1e-9 — so this is purely a speed knob.
    """

    ode_rtol: float = 1e-8
    ode_atol: float = 1e-10
    grid_points: int = 129
    until_method: str = "auto"
    curve_method: str = "propagate"
    transient_method: str = "ode"
    matrix_backend: str = "auto"
    propagator_tol: float = 1e-6
    start_convention: str = "standard"
    deadline: "float | None" = None
    max_solves: "int | None" = None
    max_refinements: "int | None" = None
    max_memory_mb: "float | None" = None
    formula_optimizations: str = "all"

    def __post_init__(self) -> None:
        for name, (integer, nonnegative) in _NUMERIC_FIELDS.items():
            check_limit(
                name, getattr(self, name),
                integer=integer, nonnegative=nonnegative,
            )
        for name, (integer, nonnegative) in BUDGET_LIMITS.items():
            check_limit(
                name, getattr(self, name),
                integer=integer, nonnegative=nonnegative, optional=True,
            )
        if self.grid_points < 3:
            raise ModelError("grid_points must be at least 3")
        for name, choices in _CHOICE_FIELDS.items():
            value = getattr(self, name)
            if not isinstance(value, str) or value not in choices:
                raise ModelError(
                    f"{name} must be {'/'.join(choices)}, got {value!r}"
                )

    def signature(self) -> str:
        """Stable canonical signature of every answer-shaping option.

        A deterministic ``name=value`` rendering of all fields except
        :data:`SIGNATURE_EXCLUDED_FIELDS`, identical across processes
        and interpreter restarts (every field is a plain number or
        string — no ``id()``/hash-randomized values).  The server keys
        its stored responses by ``(model hash, options signature)``:
        two requests with equal signatures share one entry and the
        responses it stores; requests differing only in excluded fields
        (per-request deadlines and solve caps) share them too.
        """
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in SIGNATURE_EXCLUDED_FIELDS:
                continue
            value = getattr(self, f.name)
            rendered = repr(value) if isinstance(value, float) else str(value)
            parts.append(f"{f.name}={rendered}")
        return ";".join(parts)
