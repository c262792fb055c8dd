"""Evaluation context: the bridge between a formula and the numerics.

Checking any CSL formula "in state ``m̄``" (Definition 4) implicitly fixes
the whole future of the overall model: the occupancy trajectory solving
Equation (1) from ``m̄``, the induced time-inhomogeneous local generator
``Q(m̄(t))``, and — for steady-state operators — the stationary point the
trajectory converges to.  :class:`EvaluationContext` bundles these (with
caching) so the checker modules stay stateless.

Caching layers (see ``docs/performance.md``):

- the occupancy trajectory itself is solved once, densely, to the
  horizon the first caller names, and extended lazily past it
  (:class:`~repro.meanfield.ode.OccupancyTrajectory`);
- :meth:`generator_function` memoizes ``t -> Q(m̄(t))`` so the many ODE
  solves sharing one trajectory never assemble the same generator twice;
- :meth:`transient_matrix` caches Kolmogorov solutions ``Π(t', t'+T)``
  keyed by (generator-transform signature, window), so nested untils
  and repeated global-operator checks stop re-solving identical
  problems; a miss is served by the sparse action engine on the sparse
  backend and otherwise by the forward Kolmogorov ODE chain;
- :meth:`steady_context` derives the child context anchored at the
  stationary point, sharing the steady-state result;
- on the sparse backend (``options.matrix_backend``, resolved by
  :attr:`matrix_backend`), :meth:`sparse_generator_function` memoizes
  CSR assemblies of ``Q(m̄(t))`` and :meth:`action_engine` keeps one
  :class:`~repro.ctmc.propagators.SparseActionPropagator` per
  transformed chain, invalidated together with the other solve caches;
  :meth:`transient_apply` then answers vector-propagation queries
  through the engine's Taylor actions without ever forming a dense
  ``(K, K)`` matrix (docs/performance.md, "Backend selection").

A context is built once from a model, an occupancy and options, and is
never moved to another time origin or re-optioned.  A context and its
steady-state child share a single
:class:`~repro.instrumentation.EvalStats` as :attr:`stats`, so counters
aggregate over a logical checking run.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

import numpy as np

from repro.checking.options import CheckOptions
from repro.ctmc.inhomogeneous import solve_forward_kolmogorov
from repro.ctmc.propagators import SparseActionPropagator
from repro.diagnostics import DiagnosticTrace, check_transient_residual
from repro.exceptions import NumericalError, SteadyStateError
from repro.instrumentation import EvalStats
from repro.meanfield.overall_model import MeanFieldModel, validate_occupancy
from repro.meanfield.stationary import find_fixed_point, stationary_from_long_run
from repro.resilience import Budget

#: The generator memo is cleared wholesale beyond this many entries; with
#: K local states an entry is one (K, K) float array, so the bound keeps
#: worst-case memory at a few tens of megabytes even for large K.
GENERATOR_CACHE_LIMIT = 200_000

#: Cache keys round times to this many decimals, comfortably below every
#: solver tolerance in use while still merging bit-wobbled duplicates.
_KEY_DECIMALS = 12

#: Extra time a probability curve asks the occupancy ODE to cover beyond
#: the last time it reads, so root refinement near the boundary never
#: falls off the trajectory.
HORIZON_MARGIN = 1.0

#: ``matrix_backend="auto"`` resolves to sparse only for local models at
#: least this large — below it dense BLAS wins and the dense pipeline
#: stays bitwise-stable for the paper's small examples.
SPARSE_AUTO_MIN_K = 256

#: ... and only when the compiled generator's structural density
#: ``nnz / K²`` is at most this (birth–death-like transition tables sit
#: near 3/K; anything denser gains little from CSR actions).
SPARSE_AUTO_MAX_DENSITY = 0.05


class EvaluationContext:
    """Everything needed to evaluate CSL formulas from one occupancy vector.

    Parameters
    ----------
    model:
        The mean-field model.
    initial:
        The occupancy vector ``m̄`` at (local) time 0 — the state against
        which the satisfaction relation is checked.
    options:
        Numerical options; defaults are suitable for the paper's examples.
    stats:
        Instrumentation counters to record into; a fresh
        :class:`~repro.instrumentation.EvalStats` is created when omitted.
        :meth:`steady_context` passes the parent's so counts aggregate.
    trace:
        Structured numerical diagnostics (solver fallback chains,
        simplex residual checks, ``sparse -> ode`` downgrades); a fresh
        :class:`~repro.diagnostics.DiagnosticTrace` feeding ``stats`` is
        created when omitted.  Shared with the steady context, like
        ``stats``.
    budget:
        Execution budget enforced cooperatively by every expensive path
        reachable from this context (solver attempts, propagator
        refinements, statistical-checker batches).  Built from the
        budget fields of ``options`` when omitted (``None`` when none of
        them are set).  Shared with the steady context so one deadline
        covers the whole logical checking run.
    """

    def __init__(
        self,
        model: MeanFieldModel,
        initial: np.ndarray,
        options: Optional[CheckOptions] = None,
        stats: Optional[EvalStats] = None,
        trace: Optional[DiagnosticTrace] = None,
        budget: Optional[Budget] = None,
    ):
        self.model = model
        self._options = options or CheckOptions()
        self.initial = validate_occupancy(initial, model.num_states)
        self.stats = stats if stats is not None else EvalStats()
        self.trace = (
            trace if trace is not None else DiagnosticTrace(stats=self.stats)
        )
        self.budget = (
            budget if budget is not None else Budget.from_options(self._options)
        )
        self._resolved_backend: Optional[str] = None
        # Hoisted so the evaluation hot paths test one attribute.
        self._optimized = self._options.formula_optimizations == "all"
        self._local_checker = None
        self._trajectory = None
        self._generator_fn: Optional[Callable[[float], np.ndarray]] = None
        self._generator_batch_fn: Optional[
            Callable[[np.ndarray], np.ndarray]
        ] = None
        self._generator_cache: dict = {}
        self._sparse_generator_fn = None
        self._sparse_generator_cache: dict = {}
        self._transient_cache: dict = {}
        # Sparse action engines keyed by transform signature.
        self._action_engines: dict = {}
        # One-slot box for the stationary point, shared with the steady
        # context derived from this one.
        self._steady_box: dict = {"value": None}
        self._steady_context: Optional["EvaluationContext"] = None

    # ------------------------------------------------------------------

    @property
    def options(self) -> CheckOptions:
        """Numerical options, fixed at construction (read-only).

        Every cache of the context was filled under these options, so a
        context is never re-optioned: build a new one instead.
        """
        return self._options

    @property
    def num_states(self) -> int:
        """Number of local states ``K``."""
        return self.model.num_states

    @property
    def matrix_backend(self) -> str:
        """The resolved matrix backend — ``"dense"`` or ``"sparse"``.

        ``options.matrix_backend == "auto"`` resolves per model: sparse
        when the local model is large (``K >= SPARSE_AUTO_MIN_K``) and
        its compiled generator structurally sparse
        (``structural_density <= SPARSE_AUTO_MAX_DENSITY``), dense
        otherwise.  Resolved once per context — the model does not
        change under a context.
        """
        if self._resolved_backend is None:
            mode = self.options.matrix_backend
            if mode != "auto":
                self._resolved_backend = mode
            else:
                backend = "dense"
                if self.model.num_states >= SPARSE_AUTO_MIN_K:
                    compiled = self.model.local.compiled_generator()
                    if (
                        compiled.structural_density
                        <= SPARSE_AUTO_MAX_DENSITY
                    ):
                        backend = "sparse"
                self._resolved_backend = backend
        return self._resolved_backend

    @property
    def trajectory(self):
        """The occupancy trajectory from ``initial``.

        Built unsolved: its first solve ends at the horizon the first
        caller names through
        :meth:`~repro.meanfield.ode.OccupancyTrajectory.cover` (or, for a
        read nobody announced, past it by the lazy growth).
        """
        if self._trajectory is None:
            self._trajectory = self.model.trajectory(
                self.initial,
                horizon=0.0,
                rtol=self.options.ode_rtol * 1e-1,
                atol=self.options.ode_atol * 1e-1,
                stats=self.stats,
                trace=self.trace,
                budget=self.budget,
            )
        return self._trajectory

    def occupancy(self, t: float) -> np.ndarray:
        """``m̄(t)`` along the trajectory."""
        return self.trajectory(t)

    def occupancy_many(self, ts) -> np.ndarray:
        """``m̄(t)`` for a whole array of times — shape ``(len(ts), K)``.

        Vectorized through
        :meth:`~repro.meanfield.ode.OccupancyTrajectory.eval_many`; the
        grid scans of the conditional-satisfaction machinery use this
        instead of one trajectory call per grid point.
        """
        return self.trajectory.eval_many(ts)

    def generator_function(self) -> Callable[[float], np.ndarray]:
        """``t -> Q(m̄(t))`` — the inhomogeneous local generator, memoized.

        The returned callable assembles the generator through the
        compiled fast path and caches it per time point, so the several
        ODE solves that probe the same trajectory (phase-1/phase-2
        Kolmogorov solves, window-shift propagations, nested re-checks)
        share one assembly per distinct ``t``.  Treat the returned
        arrays as read-only — every downstream transform already copies.
        """
        if self._generator_fn is None:
            base = self.model.generator_along(self.trajectory)
            cache = self._generator_cache
            stats = self.stats
            # Hot path: every RHS evaluation of every transient solve
            # lands here, so pre-bind the dict probe once instead of
            # re-resolving the method per call.
            cache_get = cache.get

            def q_of_t(t: float) -> np.ndarray:
                t = float(t)
                key = round(t, _KEY_DECIMALS)
                q = cache_get(key)
                if q is not None:
                    stats.generator_cache_hits += 1
                    return q
                stats.generator_cache_misses += 1
                stats.generator_evals += 1
                q = base(t)
                if len(cache) >= GENERATOR_CACHE_LIMIT:
                    cache.clear()
                cache[key] = q
                return q

            self._generator_fn = q_of_t
        return self._generator_fn

    def generator_batch_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """Batched generator ``ts -> (len(ts), K, K)`` along the trajectory.

        The vectorized Monte-Carlo sampler calls this once per thinning
        sweep with the candidate times of *every* replica; memoizing per
        time point would defeat the vectorization, so (unlike
        :meth:`generator_function`) the batch path is uncached and only
        counts its assemblies into :attr:`stats`.
        """
        if self._generator_batch_fn is None:
            base = self.model.generator_batch_along(self.trajectory)
            stats = self.stats

            def q_batch(ts: np.ndarray) -> np.ndarray:
                ts = np.asarray(ts, dtype=float)
                stats.generator_evals += int(ts.size)
                return base(ts)

            self._generator_batch_fn = q_batch
        return self._generator_batch_fn

    def sparse_generator_function(self):
        """``t -> Q(m̄(t))`` as CSR with one shared structure, memoized.

        Sparse counterpart of :meth:`generator_function`: rates are
        evaluated through the compiled transition table and scattered
        into the fixed structural-nonzero pattern
        (:meth:`repro.meanfield.compiled.CompiledGenerator.sparse`), so
        each assembly costs O(T + nnz) instead of O(K²).  Cached per
        time point under the same bound as the dense memo.  Treat
        returned matrices as read-only.
        """
        if self._sparse_generator_fn is None:
            compiled = self.model.local.compiled_generator()
            trajectory = self.trajectory
            cache = self._sparse_generator_cache
            stats = self.stats

            def q_sparse(t: float):
                key = round(float(t), _KEY_DECIMALS)
                q = cache.get(key)
                if q is not None:
                    stats.generator_cache_hits += 1
                    return q
                stats.generator_cache_misses += 1
                stats.generator_evals += 1
                t = float(t)
                q = compiled.sparse(trajectory(t), t)
                if len(cache) >= GENERATOR_CACHE_LIMIT:
                    cache.clear()
                cache[key] = q
                return q

            self._sparse_generator_fn = q_sparse
        return self._sparse_generator_fn

    # ------------------------------------------------------------------
    # Transient-matrix cache and backends (Equations (4)/(5) solves)
    # ------------------------------------------------------------------

    def transient_matrix(
        self,
        signature: Hashable,
        q_of_t: Callable[[float], np.ndarray],
        t_start: float,
        duration: float,
    ) -> np.ndarray:
        """Cached ``Π(t_start, t_start + duration)`` for a transformed chain.

        Parameters
        ----------
        signature:
            Hashable description of how ``q_of_t`` was derived from this
            context's base generator — e.g. ``("absorbing", frozenset)``
            or ``("goal", partition)``.  Two calls with equal signatures
            **must** describe the same generator function; the cache key
            is (signature, t_start, duration) — see :meth:`_transient_key`.
        q_of_t:
            The transformed generator function, used only on a miss.

        Returns
        -------
        numpy.ndarray
            The ``(K', K')`` transient matrix.  Treat as read-only — the
            same array is returned to every caller with the same key.
        """
        return self._cached_transient(
            self._transient_ladder, signature, q_of_t, t_start, duration
        )

    def _transient_key(
        self, signature: Hashable, t_start: float, duration: float
    ) -> tuple:
        """The transient-cache key of one window.

        The tolerances that shape the answer are fixed with the
        context's options, so the window alone tells entries apart.
        """
        return (
            signature,
            round(float(t_start), _KEY_DECIMALS),
            round(float(duration), _KEY_DECIMALS),
        )

    def _cached_transient(
        self,
        solve: Callable[..., np.ndarray],
        signature: Hashable,
        q_of_t: Callable[[float], np.ndarray],
        t_start: float,
        duration: float,
    ) -> np.ndarray:
        """:meth:`transient_matrix`'s cache probe; ``solve`` runs on a miss
        (:meth:`_transient_ode` once the sparse engine failed the window)."""
        key = self._transient_key(signature, t_start, duration)
        pi = self._transient_cache.get(key)
        if pi is not None:
            self.stats.transient_cache_hits += 1
            return pi
        self.stats.transient_cache_misses += 1
        if self.budget is not None:
            self.budget.checkpoint(
                f"transient_matrix @ {float(t_start):g}+{float(duration):g}"
            )
        pi = solve(signature, q_of_t, float(t_start), float(duration))
        self._transient_cache[key] = pi
        return pi

    def _transient_ladder(
        self,
        signature: Hashable,
        q_of_t: Callable[[float], np.ndarray],
        t_start: float,
        duration: float,
    ) -> np.ndarray:
        """Serve ``Π`` from the sparse action engine, else the ODE chain.

        On the sparse backend a non-empty window tries the shared action
        engine first; its :class:`~repro.exceptions.NumericalError`
        (refinement cap, no sparse transform) is recorded as one
        ``sparse -> ode`` downgrade (see docs/robustness.md).  Both
        backends are tolerance-controlled, so the answer is the same to
        tolerance either way.
        An ODE-chain failure propagates as the ``NumericalError`` naming
        every method it tried; budget errors always propagate.
        """
        if duration > 0.0 and self.matrix_backend == "sparse":
            try:
                return self._transient_sparse(signature, t_start, duration)
            except NumericalError as exc:
                self.trace.downgrade("sparse", "ode", str(exc))
        return self._transient_ode(signature, q_of_t, t_start, duration)

    def _transient_sparse(
        self,
        signature: Hashable,
        t_start: float,
        duration: float,
    ) -> np.ndarray:
        """Sparse backend: densified action product from the shared engine.

        :meth:`transient_matrix` returns a dense array by contract, so
        this backend only makes sense where a ``(K', K')`` result is
        affordable — the densification is screened by the budget's
        memory guard inside
        :meth:`~repro.ctmc.propagators.SparseActionPropagator.propagate`.
        Pipelines that merely *apply* ``Π`` should call
        :meth:`transient_apply` instead, which never densifies.
        Signatures without a sparse transform raise
        :class:`~repro.exceptions.NumericalError` so the window falls
        back to the ODE chain.
        """
        engine = self.action_engine(signature)
        if engine is None:
            raise NumericalError(
                f"sparse rung: no sparse transform for signature "
                f"{signature!r}"
            )
        pi = engine.propagate(t_start, t_start + duration)
        check_transient_residual(
            pi,
            label=f"Pi({t_start:g}, {t_start + duration:g}) [sparse]",
            trace=self.trace,
        )
        return pi

    def _transient_ode(
        self,
        signature: Hashable,
        q_of_t: Callable[[float], np.ndarray],
        t_start: float,
        duration: float,
    ) -> np.ndarray:
        """Forward Kolmogorov solve through the stiff fallback chain."""
        if duration > 0.0:
            if self.budget is not None:
                # A dense Kolmogorov solve integrates the flattened
                # (K', K') matrix; the RK stage stack holds roughly
                # eight copies of that state.  The chain size is read
                # off the signature (goal chains append one state)
                # rather than probing q_of_t, whose first evaluation
                # belongs to the solver's protected attempt loop.
                k = self.model.num_states
                if (
                    isinstance(signature, tuple)
                    and len(signature) == 2
                    and str(signature[0]).startswith("goal")
                ):
                    k += 1
                self.budget.check_memory(
                    k * k * 8 * 8, "dense Kolmogorov solve"
                )
            self.trajectory.cover(t_start + duration)
            self.stats.solve_ivp_calls += 1
        return solve_forward_kolmogorov(
            q_of_t,
            t_start,
            duration,
            rtol=self.options.ode_rtol,
            atol=self.options.ode_atol,
            trace=self.trace,
            monotone_columns=self._monotone_columns(signature),
            budget=self.budget,
        )

    def _sparse_for_signature(self, signature: Hashable):
        """Sparse ``t -> CSR`` function for a known transform signature.

        The two standard transforms have O(nnz) sparse constructions
        (:func:`~repro.checking.transform.absorbing_generator_sparse`,
        :func:`~repro.checking.transform.goal_generator_sparse`).
        ``("goal-literal", ...)`` and unknown signatures return ``None``
        — those chains stay on the dense pipeline.
        """
        from repro.checking.transform import (
            UntilPartition,
            absorbing_generator_sparse_function,
            goal_generator_sparse_function,
        )

        if not isinstance(signature, tuple) or len(signature) != 2:
            return None
        kind, arg = signature
        if kind == "absorbing" and isinstance(arg, frozenset):
            return absorbing_generator_sparse_function(
                self.sparse_generator_function(), arg
            )
        if kind == "goal" and isinstance(arg, UntilPartition):
            return goal_generator_sparse_function(
                self.sparse_generator_function(), arg
            )
        return None

    def action_engine(
        self, signature: Hashable
    ) -> Optional[SparseActionPropagator]:
        """The sparse action engine for the chain ``signature``.

        One :class:`~repro.ctmc.propagators.SparseActionPropagator` is
        kept per transform signature, so every window of that chain
        checked in this context shares one exponent cache.  Returns
        ``None`` when the signature has no sparse transform
        (goal-literal chains, ad-hoc generator functions); callers then
        fall back to the dense pipeline.
        """
        engine = self._action_engines.get(signature)
        if engine is None:
            q_sparse = self._sparse_for_signature(signature)
            if q_sparse is None:
                return None
            engine_kwargs = {}
            if self.options.max_refinements is not None:
                engine_kwargs["max_refinements"] = (
                    self.options.max_refinements
                )
            engine = SparseActionPropagator(
                q_sparse,
                tol=self.options.propagator_tol,
                trace=self.trace,
                stats=self.stats,
                budget=self.budget,
                **engine_kwargs,
            )
            self.stats.propagator_engines += 1
            self._action_engines[signature] = engine
        return engine

    def transient_apply(
        self,
        signature: Hashable,
        q_of_t: Callable[[float], np.ndarray],
        t_start: float,
        duration: float,
        vector: np.ndarray,
        side: str = "left",
    ) -> np.ndarray:
        """``vector @ Π`` (``side="left"``) or ``Π @ vector`` (right).

        The vector-propagation face of :meth:`transient_matrix`: on the
        dense backend it multiplies through the cached matrix (repeated
        calls share one solve); on the sparse backend, chains with a
        sparse transform are served by the context's :meth:`action_engine`
        through Taylor actions and **no dense ``(K', K')`` array is
        ever formed**.  A sparse-engine
        :class:`~repro.exceptions.NumericalError` (grid refinement cap)
        is recorded as one ``sparse -> ode`` downgrade and the window is
        served by the ODE chain through the transient cache; the cache
        is probed before the engine, so a failed window costs one engine
        attempt and one downgrade however often it is asked for.  Budget
        errors always propagate.
        """
        vector = np.asarray(vector, dtype=float)
        solve = self._transient_ladder
        if self.matrix_backend == "sparse":
            engine = self.action_engine(signature)
            if engine is not None and (
                self._transient_key(signature, t_start, duration)
                not in self._transient_cache
            ):
                if self.budget is not None:
                    self.budget.checkpoint(
                        f"transient_apply @ {float(t_start):g}"
                        f"+{float(duration):g}"
                    )
                start = float(t_start)
                try:
                    return engine.apply(
                        vector, start, start + float(duration), side=side
                    )
                except NumericalError as exc:
                    self.trace.downgrade("sparse", "ode", str(exc))
                    solve = self._transient_ode
        pi = self._cached_transient(
            solve, signature, q_of_t, t_start, duration
        )
        if side == "right":
            return pi @ vector
        return vector @ pi

    @staticmethod
    def _monotone_columns(signature: Hashable) -> "Optional[list]":
        """Absorbing columns implied by a transform signature, if known.

        Mass sitting in absorbing states can only grow with the window
        length, so the self-verification layer checks it is monotone
        (Equations (5)/(7) give reachability CDFs).  ``("absorbing", S)``
        signatures absorb exactly ``S``; goal-chain transforms are left
        unchecked (their absorbing set depends on the partition object).
        """
        if (
            isinstance(signature, tuple)
            and len(signature) == 2
            and signature[0] == "absorbing"
            and isinstance(signature[1], frozenset)
        ):
            return sorted(signature[1])
        return None

    def local_checker(self):
        """The per-context memoizing :class:`~repro.checking.local.LocalChecker`.

        Satisfaction sets, probability curves and path-probability
        vectors are functions of (formula, context, θ or t) only, so one
        checker per context can serve every occurrence of a repeated
        subformula — and every re-thresholded ``EP``/``P`` leaf — from
        its caches.  Leaf evaluation uses it under
        ``formula_optimizations="all"``; its memos are keyed by formula
        equality, so equal subtrees share entries.  Lazily imported to
        keep the context module free of a checking-layer dependency
        cycle.
        """
        if self._local_checker is None:
            from repro.checking.local import LocalChecker

            self._local_checker = LocalChecker(self)
        return self._local_checker

    def clear_caches(self) -> None:
        """Drop the generator memo, transient cache, the shared local
        checker with its memos and every cached action-engine cell
        (keeps the trajectory).  Engines are cleared *in place* — each
        engine's internal cell/sliver caches are emptied rather than
        merely dropping the lookup dict — so an engine captured from
        :meth:`action_engine` before the clear never serves stale
        cells.  The engines themselves stay registered, so
        :meth:`action_engine` keeps returning them and they simply
        rebuild their grids on the next query."""
        self._generator_cache.clear()
        self._sparse_generator_cache.clear()
        self._transient_cache.clear()
        for engine in self._action_engines.values():
            engine.clear_caches()
        self._local_checker = None

    # ------------------------------------------------------------------
    # Steady state (Sections IV-D / V-A)
    # ------------------------------------------------------------------

    def steady_state(self) -> np.ndarray:
        """The stationary occupancy ``m̃`` this trajectory converges to.

        Found by long-run integration from ``initial`` (which selects the
        right basin of attraction when several fixed points exist) and
        polished by Newton iteration on ``m̃ Q(m̃) = 0``.  Cached, and
        shared with the :meth:`steady_context` — the stationary point
        lies in the same basin.

        Raises
        ------
        SteadyStateError
            If the trajectory does not settle — the paper's steady-state
            operators are then not meaningful for this model.
        """
        if self._steady_box["value"] is None:
            coarse = stationary_from_long_run(
                self.model,
                self.initial,
                drift_tol=1e-7,
                trace=self.trace,
                budget=self.budget,
                stats=self.stats,
            )
            try:
                fp = find_fixed_point(self.model, coarse)
                self._steady_box["value"] = fp.occupancy
                self.trace.note(
                    f"steady state: Newton-polished, residual "
                    f"{fp.residual:.2e}, stable={fp.stable}"
                )
            except SteadyStateError:
                # The long-run point itself is already accurate to 1e-7.
                self._steady_box["value"] = coarse
                self.trace.note(
                    "steady state: Newton polish failed, using long-run "
                    "point (drift residual <= 1e-7)"
                )
        return self._steady_box["value"].copy()

    def steady_context(self) -> "EvaluationContext":
        """A context anchored at the stationary point ``m̃``.

        Because ``m̃`` is a fixed point, the trajectory from it is
        constant and the local model is *homogeneous* there; nested
        formulas under a steady-state operator are checked in this
        context (Definition 4 uses ``Sat(Φ, m̃)``).  Shares this
        context's stats and steady-state result.
        """
        if self._steady_context is None:
            child = EvaluationContext(
                self.model,
                self.steady_state(),
                self.options,
                stats=self.stats,
                trace=self.trace,
                budget=self.budget,
            )
            child._steady_box = self._steady_box
            self._steady_context = child
        return self._steady_context
