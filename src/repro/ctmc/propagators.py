"""Piecewise-homogeneous propagator engine for inhomogeneous CTMCs.

Every time-dependent query in the checking pipeline (Equations (5)–(7),
(9)–(13)) ultimately needs transient matrices ``Π(a, b)`` of the
time-inhomogeneous chain ``Q(m̄(t))`` for *many* overlapping windows:
`TimeVaryingUntil.curve` samples dozens of evaluation times, `cSat`
threshold scans probe a whole grid, and global ``EP⋈p`` checks revisit
the same trajectory again and again.  Solving a fresh Kolmogorov ODE per
window (:func:`repro.ctmc.inhomogeneous.solve_forward_kolmogorov`) makes
each query pay the full integration cost.

:class:`PropagatorEngine` instead freezes the generator per cell of a
uniform global-time grid and caches one propagator per cell, so that any
window ``Π(a, b)`` becomes an ordered product
``S_L · P_j · … · P_{j'-1} · S_R`` of cached cell propagators plus two
boundary *slivers* — amortized **O(cells in window)** tiny matrix
products per query instead of one ODE solve.
:meth:`PropagatorEngine.propagate_many` evaluates a whole batch of query
windows ``Π(t_i, t_i + T)`` at once, building every missing cell in a
single vectorized ``scipy.linalg.expm`` call.

Two cell kernels are provided:

- ``order=4`` (default with ``kernel="expm"``): the commutator-free
  4th-order Magnus scheme of Blanes & Moan — two exponentials of
  Gauss-node generator combinations per cell.  Its ``O(h⁴)`` window
  error keeps the grid 10–20× coarser than the midpoint rule at equal
  tolerance, which is what makes the engine beat per-query ODE solves
  even on tiny state spaces;
- ``order=2``: the classical midpoint product integral
  ``P_i = e^{Q(mid_i) h}`` (PRISM-style uniformization composition —
  Baier et al., *Model-Checking Algorithms for CTMCs*).  Always used
  with ``kernel="uniformization"``, whose series requires an actual
  generator matrix (the CF4 node combinations are not one).

The approximation is *defect-controlled*: before serving queries,
:meth:`PropagatorEngine.ensure` compares cell products against reference
:func:`repro.diagnostics.robust_solve_ivp` solves of the forward
Kolmogorov equation at probe windows (of the same length as the actual
queries) and refines the cell width — jumping several halvings at once
using the kernel's convergence order — until the defect is below ``tol``
times a safety factor.  The exact ODE path therefore remains both the
fallback and the built-in cross-check; residual (stochasticity) checks
run on every probe like on any other solve.

For large local models (the sparse backend of docs/performance.md
"Backend selection") the dense cell cache itself is the problem: each
cached cell is a dense ``(K, K)`` propagator and each window product
costs ``O(K³)``.  :class:`SparseActionPropagator` keeps the same grid
geometry but caches only the *sparse CF4 exponents* per cell, each with
its Al-Mohy–Higham action plan (shift, norm and Taylor parameters, paid
once per exponent), and applies ``Π(a, b)`` to vectors/blocks through
chains of truncated-Taylor actions — ``O(nnz)`` per matvec, never a
dense matrix unless a caller explicitly densifies (which then passes
through ``Budget.max_memory_mb``).  Its defect
control is Richardson extrapolation (grid ``h`` vs ``h/2`` on probe
blocks) instead of dense ODE references, which would themselves be
``O(K²)`` state solves — the trade-off is documented in
docs/numerics.md.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse
from scipy.linalg import expm

from repro.ctmc.transient import transient_matrix_uniformization
from repro.diagnostics import (
    DEFAULT_FALLBACKS,
    DiagnosticTrace,
    check_transient_residual,
    robust_solve_ivp,
)
from repro.exceptions import ModelError, NumericalError
from repro.resilience import Budget

GeneratorFunction = Callable[[float], np.ndarray]

#: Default defect tolerance of the cell-product approximation.
DEFAULT_PROPAGATOR_TOL = 1e-6

#: Fraction of ``tol`` the refinement loop actually targets.  Probe
#: windows sample the defect at a few locations only, so the safety
#: factor keeps un-probed windows comfortably below the advertised
#: tolerance.
REFINEMENT_SAFETY = 0.25

#: State-space size beyond which ``kernel="auto"`` switches from the
#: batched Padé ``expm`` to Jensen's uniformization per cell.
AUTO_UNIFORMIZATION_K = 64

#: Window widths below this are served as an identity matrix.
_TINY = 1e-12

#: Sliver-cache keys round endpoints to this many decimals (same
#: convention as the context-level caches).
_KEY_DECIMALS = 12

#: Below this many generator evaluations a batch uses the scalar
#: (memoized) path; the vectorized pipeline has fixed setup cost.
_BATCH_MIN_NODES = 6

#: Gauss–Legendre node offset and the Blanes–Moan CF4 weights: the cell
#: propagator for the *right*-multiplicative system ``dΠ/dt = Π Q(t)``
#: is ``exp(h(b·Q₁ + a·Q₂)) · exp(h(a·Q₁ + b·Q₂))`` with ``Q₁``/``Q₂``
#: the generator at the early/late Gauss node (transpose of the standard
#: left-system scheme).
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_CF4_A = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_CF4_B = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0

#: Random probe directions per side used by the sparse engine's
#: Richardson defect control (plus the uniform distribution).
_SPARSE_PROBE_COLUMNS = 4

#: Fixed seed of the sparse probe directions — deterministic defect
#: estimates across runs (same convention as the MC ladder seed).
_SPARSE_PROBE_SEED = 20130613

#: Unit roundoff of double precision: the truncation tolerance of the
#: sparse engine's exponential actions.
_ACTION_TOL = 2.0 ** -53

#: ``(m, θ_m)`` at tolerance 2⁻⁵³: ``m`` Taylor terms of ``e^{A/s}``
#: meet the tolerance while ``‖A/s‖₁ ≤ θ_m`` (Higham, *Functions of
#: Matrices*, Table A.3, for ``m ≤ 30``; Al-Mohy & Higham, SIAM J. Sci.
#: Comput. 33(2), 2011, Table 3.1, beyond).
_THETA = (
    (1, 2.29e-16), (2, 2.58e-8), (3, 1.39e-5), (4, 3.40e-4),
    (5, 2.40e-3), (6, 9.07e-3), (7, 2.38e-2), (8, 5.00e-2),
    (9, 8.96e-2), (10, 1.44e-1), (11, 2.14e-1), (12, 3.00e-1),
    (13, 4.00e-1), (14, 5.14e-1), (15, 6.41e-1), (16, 7.81e-1),
    (17, 9.31e-1), (18, 1.09), (19, 1.26), (20, 1.44),
    (21, 1.62), (22, 1.82), (23, 2.01), (24, 2.22),
    (25, 2.43), (26, 2.64), (27, 2.86), (28, 3.08),
    (29, 3.31), (30, 3.54), (35, 4.7), (40, 6.0),
    (45, 7.2), (50, 8.5), (55, 9.9),
)


def split_window(h: float, a: float, b: float):
    """Decompose ``[a, b]`` on a width-``h`` grid into
    (left sliver, cell range, right sliver).

    Returns ``(left, j0, j1, right)`` where ``left``/``right`` are
    optional ``(start, end)`` sliver intervals and ``j0..j1-1`` the full
    grid cells in between (empty when ``j0 >= j1``).  A window with no
    interior grid point comes back as a single left sliver.  Shared by
    the dense and sparse propagator engines so both compose the *same*
    piece sequence for a given grid.
    """
    snap = h * 1e-9
    j0 = int(math.ceil((a - snap) / h))
    j1 = int(math.floor((b + snap) / h))
    if j0 > j1:
        # Both endpoints inside one cell: a single sliver.
        return (a, b), 0, 0, None
    left = (a, j0 * h) if j0 * h - a > snap else None
    right = (j1 * h, b) if b - j1 * h > snap else None
    return left, j0, j1, right


class PropagatorEngine:
    """Cached piecewise-constant propagators for one inhomogeneous chain.

    Parameters
    ----------
    q_of_t:
        Generator function of global time (typically the memoized
        ``t -> Q(m̄(t))`` of an evaluation context, or a transformed —
        absorbing / goal-chain — version of it).  Must be defined on
        every time the engine is asked about.
    q_many:
        Optional batched generator function ``ts -> (len(ts), K, K)``
        agreeing with ``q_of_t``.  When given, cell/sliver construction
        evaluates all Gauss nodes of a batch in one vectorized call
        (compiled-generator fast path) instead of one scalar call per
        node — the dominant per-cell cost on small state spaces.
    tol:
        Defect tolerance: after :meth:`ensure`, cell-product transient
        matrices differ from reference ODE solves at the probe windows
        by at most ``REFINEMENT_SAFETY * tol`` (entrywise), leaving
        margin so un-probed windows stay below ``tol``.
    kernel:
        Per-cell transient kernel: ``"expm"`` (batched Padé),
        ``"uniformization"`` (Jensen's series, better for large ``K``),
        or ``"auto"`` (pick by state-space size).
    order:
        Convergence order of the cell rule: ``4`` (CF4 Magnus, expm
        kernel only) or ``2`` (midpoint).  ``None`` picks 4 for the expm
        kernel and 2 for uniformization.
    initial_cells:
        Cell count the first probed range starts from (refined from
        there as needed).
    max_refinements:
        Bound on accumulated grid halvings; exceeding it raises
        :class:`~repro.exceptions.NumericalError` (callers can then fall
        back to the exact ODE path).
    rtol, atol:
        Tolerances of the reference ODE solves used for defect control.
    fallbacks, trace:
        Passed through to :func:`repro.diagnostics.robust_solve_ivp`.
    stats:
        Optional :class:`~repro.instrumentation.EvalStats`; the engine
        counts cell builds, cache hits, matrix products and grid
        refinements into it.
    budget:
        Optional :class:`~repro.resilience.Budget`.  The refinement
        loop checkpoints the wall-clock deadline every sweep, the
        reference probes charge their solver attempts against it, and
        cell builds are screened by its memory guard — so a grid that
        refuses to converge surfaces a
        :class:`~repro.exceptions.BudgetExceededError` (with progress)
        instead of grinding until the ``max_refinements`` bound.
    """

    def __init__(
        self,
        q_of_t: GeneratorFunction,
        *,
        q_many: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        tol: float = DEFAULT_PROPAGATOR_TOL,
        kernel: str = "auto",
        order: Optional[int] = None,
        initial_cells: int = 16,
        max_refinements: int = 16,
        rtol: float = 1e-8,
        atol: float = 1e-10,
        fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
        trace: Optional[DiagnosticTrace] = None,
        stats=None,
        residual_tol: float = 1e-6,
        budget: Optional[Budget] = None,
    ):
        if tol <= 0.0:
            raise ModelError(f"tol must be positive, got {tol}")
        if kernel not in ("auto", "expm", "uniformization"):
            raise ModelError(
                f"kernel must be auto/expm/uniformization, got {kernel!r}"
            )
        if initial_cells < 1:
            raise ModelError(
                f"initial_cells must be >= 1, got {initial_cells}"
            )
        self.q_of_t = q_of_t
        self.q_many = q_many
        self.tol = float(tol)
        self._initial_cells = int(initial_cells)
        self._max_refinements = int(max_refinements)
        self._rtol = float(rtol)
        self._atol = float(atol)
        self._residual_tol = float(residual_tol)
        self._fallbacks = tuple(fallbacks)
        self._trace = trace
        self._stats = stats
        self._budget = budget
        self.k = int(np.asarray(q_of_t(0.0), dtype=float).shape[0])
        if kernel == "auto":
            kernel = (
                "expm" if self.k <= AUTO_UNIFORMIZATION_K else "uniformization"
            )
        self.kernel = kernel
        if order is None:
            order = 4 if kernel == "expm" else 2
        if order not in (2, 4):
            raise ModelError(f"order must be 2 or 4, got {order}")
        if order == 4 and kernel != "expm":
            raise ModelError(
                "order-4 cells require the expm kernel (the CF4 node "
                "combinations are not generator matrices)"
            )
        self.order = int(order)
        #: Cell width of the current grid; ``None`` until the first probe.
        self._h: Optional[float] = None
        #: ``(lo, hi, window)`` already defect-validated: queries inside
        #: ``[lo, hi]`` with windows up to ``window`` never trigger
        #: another reference solve.
        self._validated: Optional["tuple[float, float, float]"] = None
        self.refinements = 0
        self._cells: "dict[int, np.ndarray]" = {}
        self._slivers: "dict[tuple, np.ndarray]" = {}
        #: Reference solutions of past probe windows, reused across
        #: refinement sweeps: ``(a, b) -> Π(a, b)``.
        self._references: "dict[tuple, np.ndarray]" = {}

    # ------------------------------------------------------------------
    # Instrumentation helpers (stats is optional)
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self._stats is not None and amount:
            setattr(self._stats, name, getattr(self._stats, name) + amount)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def _q_stack(self, ts: np.ndarray) -> np.ndarray:
        """Generators at all of ``ts`` — vectorized when ``q_many`` is set.

        Tiny batches (a single sliver's Gauss nodes) stay on the scalar
        memoized path: the vectorized pipeline's fixed setup cost only
        pays off from a handful of nodes upward.
        """
        if self.q_many is not None and ts.size >= _BATCH_MIN_NODES:
            return np.asarray(self.q_many(ts), dtype=float)
        return np.stack(
            [np.asarray(self.q_of_t(t), dtype=float) for t in ts]
        )

    def _kernel_many(
        self, starts: np.ndarray, widths: np.ndarray
    ) -> np.ndarray:
        """Propagators over ``[start_i, start_i + width_i]``, batched."""
        starts = np.atleast_1d(np.asarray(starts, dtype=float))
        widths = np.atleast_1d(np.asarray(widths, dtype=float))
        n = starts.size
        if self.kernel == "uniformization":
            eps = max(min(self.tol * 1e-3, 1e-10), 1e-15)
            qs = self._q_stack(starts + 0.5 * widths)
            return np.stack(
                [
                    transient_matrix_uniformization(q, w, epsilon=eps)
                    for q, w in zip(qs, widths)
                ]
            )
        if self.order == 2:
            qs = self._q_stack(starts + 0.5 * widths)
            return expm(qs * widths[:, None, None])
        # CF4: all Gauss-node generators in one vectorized evaluation,
        # both exponents of every cell in ONE batched expm call, then
        # one batched pairwise product.
        c1 = starts + widths * (0.5 - _GAUSS_OFFSET)
        c2 = starts + widths * (0.5 + _GAUSS_OFFSET)
        nodes = self._q_stack(np.concatenate([c1, c2]))
        q1, q2 = nodes[:n], nodes[n:]
        w = widths[:, None, None]
        exponents = np.concatenate(
            [
                w * (_CF4_B * q1 + _CF4_A * q2),
                w * (_CF4_A * q1 + _CF4_B * q2),
            ]
        )
        factors = expm(exponents)
        return factors[:n] @ factors[n:]

    # ------------------------------------------------------------------
    # Grid cells and boundary slivers
    # ------------------------------------------------------------------

    def _build_cells(self, indices) -> int:
        """Build (and cache) missing cell propagators; return how many."""
        missing = [i for i in indices if i not in self._cells]
        if not missing:
            return 0
        if self._budget is not None:
            # One (K, K) float matrix per cell, double that transiently
            # for the CF4 kernel's two batched exponents.
            per_cell = self.k * self.k * 8 * (2 if self.order == 4 else 1)
            self._budget.check_memory(
                (len(missing) + len(self._cells)) * per_cell,
                "propagator cell cache",
            )
        h = self._h
        starts = np.array([i * h for i in missing])
        mats = self._kernel_many(starts, np.full(len(missing), h))
        for i, mat in zip(missing, mats):
            self._cells[i] = mat
        self._count("propagator_cells_built", len(missing))
        return len(missing)

    def _sliver(self, a: float, b: float) -> np.ndarray:
        """Cached propagator for a partial-cell window ``[a, b]``."""
        key = (round(a, _KEY_DECIMALS), round(b, _KEY_DECIMALS))
        mat = self._slivers.get(key)
        if mat is not None:
            self._count("propagator_cache_hits")
            return mat
        mat = self._kernel_many(np.array([a]), np.array([b - a]))[0]
        self._slivers[key] = mat
        self._count("propagator_cells_built")
        return mat

    def _window_pieces(self, a: float, b: float):
        """Decompose ``[a, b]`` into (left sliver, cell range, right sliver).

        Returns ``(left, j0, j1, right)`` where ``left``/``right`` are
        optional ``(start, end)`` sliver intervals and ``j0..j1-1`` the
        full grid cells in between (empty when ``j0 >= j1``).  A window
        with no interior grid point comes back as a single left sliver.
        """
        return split_window(self._h, a, b)

    # ------------------------------------------------------------------
    # Defect control
    # ------------------------------------------------------------------

    def _reference(self, a: float, b: float) -> np.ndarray:
        """Exact-ODE transient matrix ``Π(a, b)`` for defect probes."""
        key = (round(a, _KEY_DECIMALS), round(b, _KEY_DECIMALS))
        cached = self._references.get(key)
        if cached is not None:
            return cached
        k = self.k

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            pi = y.reshape(k, k)
            return (pi @ np.asarray(self.q_of_t(t), dtype=float)).reshape(-1)

        # The probe must out-resolve the defect target, or the
        # refinement loop chases the reference solver's own error.
        target = REFINEMENT_SAFETY * self.tol
        sol = robust_solve_ivp(
            rhs,
            (a, b),
            np.eye(k).reshape(-1),
            method="RK45",
            rtol=max(min(self._rtol, 1e-2 * target), 1e-13),
            atol=max(min(self._atol, 1e-3 * target), 1e-14),
            fallbacks=self._fallbacks,
            label="propagator defect probe",
            trace=self._trace,
            budget=self._budget,
        )
        pi = sol.y[:, -1].reshape(k, k)
        check_transient_residual(
            pi,
            label=f"propagator probe Π({a:g}, {b:g})",
            tol=self._residual_tol,
            trace=self._trace,
        )
        self._references[key] = pi
        return pi

    def _probe_windows(
        self, lo: float, hi: float, window: float
    ) -> "list[tuple[float, float]]":
        """Probe windows of length ``window``: start, middle and end of
        the validated range (deduplicated when they overlap)."""
        if window >= (hi - lo) - _TINY:
            return [(lo, hi)]
        mid_start = 0.5 * (lo + hi - window)
        starts = sorted({lo, mid_start, hi - window})
        probes = []
        prev_end = -np.inf
        for s in starts:
            if s >= prev_end - _TINY:
                probes.append((s, s + window))
                prev_end = s + window
        return probes

    def ensure(
        self, t_lo: float, t_hi: float, window: Optional[float] = None
    ) -> None:
        """Defect-validate the grid for windows up to ``window`` long
        anywhere inside ``[t_lo, t_hi]``.

        Extends the validated range/window to the union with any earlier
        call, solves reference Kolmogorov ODEs at a few probe windows of
        the query length, and refines the cell width — using the
        kernel's convergence order to jump several halvings at once —
        until the worst probe defect is below ``REFINEMENT_SAFETY *
        tol``.  Probing query-length windows (rather than the whole
        range) keeps the grid matched to what queries actually accumulate;
        see ``docs/performance.md`` §7.
        """
        t_lo, t_hi = float(t_lo), float(t_hi)
        if t_lo < -1e-9:
            raise ModelError(f"propagator times must be >= 0, got {t_lo}")
        t_lo = max(t_lo, 0.0)
        if t_hi < t_lo:
            raise ModelError(f"empty ensure range [{t_lo}, {t_hi}]")
        window = float(window) if window is not None else t_hi - t_lo
        window = min(max(window, 0.0), t_hi - t_lo)
        if self._validated is not None:
            lo, hi, w = self._validated
            if (
                lo - 1e-12 <= t_lo
                and t_hi <= hi + 1e-12
                and window <= w + 1e-12
            ):
                return
            t_lo, t_hi = min(lo, t_lo), max(hi, t_hi)
            window = max(w, window)
        if t_hi - t_lo <= _TINY or window <= _TINY:
            self._validated = (t_lo, t_hi, window)
            return
        if self._h is None:
            self._h = (t_hi - t_lo) / self._initial_cells
        target = REFINEMENT_SAFETY * self.tol
        probes = self._probe_windows(t_lo, t_hi, window)
        references = [self._reference(a, b) for a, b in probes]
        while True:
            if self._budget is not None:
                self._budget.checkpoint(
                    f"propagator refinement sweep {self.refinements}"
                )
            defect = max(
                float(np.max(np.abs(self._product(a, b) - ref)))
                for (a, b), ref in zip(probes, references)
            )
            if defect <= target:
                break
            if self.refinements >= self._max_refinements:
                raise NumericalError(
                    f"propagator grid did not reach tol={self.tol:g} over "
                    f"[{t_lo:g}, {t_hi:g}] after {self.refinements} "
                    f"refinements (defect {defect:.2e}); use the exact "
                    f"ODE path"
                )
            # The cell rule converges at O(h^order): jump straight to
            # the halving depth the measured defect calls for.
            jumps = max(
                1, math.ceil(math.log2(defect / target) / self.order)
            )
            jumps = min(jumps, self._max_refinements - self.refinements)
            self._h /= 2.0 ** jumps
            self._cells.clear()
            self._slivers.clear()
            self.refinements += jumps
            self._count("propagator_refinements", jumps)
        if self._trace is not None and self.refinements:
            self._trace.note(
                f"propagator grid at h={self._h:g} over "
                f"[{t_lo:g}, {t_hi:g}] after {self.refinements} "
                f"refinements (probe defect {defect:.2e})"
            )
        self._validated = (t_lo, t_hi, window)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _product(self, a: float, b: float) -> np.ndarray:
        """Ordered cell/sliver product for ``Π(a, b)`` (grid assumed set)."""
        if b - a <= _TINY:
            return np.eye(self.k)
        left, j0, j1, right = self._window_pieces(a, b)
        indices = range(j0, j1)
        built = self._build_cells(indices)
        self._count("propagator_cache_hits", len(indices) - built)
        if left is not None:
            result = self._sliver(*left).copy()
        else:
            result = np.eye(self.k)
        products = 0
        for i in indices:
            result = result @ self._cells[i]
            products += 1
        if right is not None:
            result = result @ self._sliver(*right)
            products += 1
        self._count("propagator_products", products)
        return result

    def propagate(self, a: float, b: float) -> np.ndarray:
        """``Π(a, b)`` by the cached cell product (defect-controlled).

        The first query over a not-yet-validated range triggers the
        reference probes (see :meth:`ensure`); subsequent queries inside
        the validated range cost only the matrix products.
        """
        a, b = float(a), float(b)
        if b < a:
            raise ModelError(f"empty window [{a}, {b}]")
        self.ensure(a, b, window=b - a)
        return self._product(a, b)

    def prepare_windows(self, starts, ends) -> None:
        """Warm the cache for a whole batch of windows ``[a_i, b_i]``.

        Validates the covering range once (with the longest window as
        the probe length), then builds every missing cell and boundary
        sliver the batch touches in one vectorized kernel call each.
        Subsequent :meth:`propagate` calls over these windows reduce to
        pure cached-matrix products — this is what lets a curve with
        dozens of evaluation times amortize all generator evaluations
        into a handful of numpy kernels.
        """
        starts = np.asarray(starts, dtype=float).reshape(-1)
        ends = np.asarray(ends, dtype=float).reshape(-1)
        if starts.shape != ends.shape:
            raise ModelError(
                f"mismatched window arrays: {starts.shape} vs {ends.shape}"
            )
        if starts.size == 0:
            return
        if float(np.min(ends - starts)) < -_TINY:
            raise ModelError("prepare_windows got a reversed window")
        self.ensure(
            float(starts.min()),
            float(ends.max()),
            window=float(np.max(ends - starts)),
        )
        needed: "set[int]" = set()
        slivers: "dict[tuple, tuple[float, float]]" = {}
        for a, b in zip(starts, ends):
            if b - a <= _TINY:
                continue
            left, j0, j1, right = self._window_pieces(a, b)
            needed.update(range(j0, j1))
            for piece in (left, right):
                if piece is None:
                    continue
                key = (
                    round(piece[0], _KEY_DECIMALS),
                    round(piece[1], _KEY_DECIMALS),
                )
                if key not in self._slivers:
                    slivers[key] = piece
        self._build_cells(sorted(needed))
        if slivers:
            keys = list(slivers)
            sliver_starts = np.array([slivers[key][0] for key in keys])
            sliver_ends = np.array([slivers[key][1] for key in keys])
            mats = self._kernel_many(sliver_starts, sliver_ends - sliver_starts)
            for key, mat in zip(keys, mats):
                self._slivers[key] = mat
            self._count("propagator_cells_built", len(keys))

    def propagate_many(self, ts, duration: float) -> np.ndarray:
        """Batched ``Π(t_i, t_i + duration)`` — shape ``(len(ts), K, K)``.

        Validates the covering range once, pre-builds every missing cell
        and sliver in one vectorized kernel call each
        (:meth:`prepare_windows`), then composes each window from the
        shared cache.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        duration = float(duration)
        if duration < 0.0:
            raise ModelError(
                f"duration must be non-negative, got {duration}"
            )
        if ts.size == 0:
            return np.zeros((0, self.k, self.k))
        self.prepare_windows(ts, ts + duration)
        return np.stack([self._product(t, t + duration) for t in ts])

    def _apply_pieces(
        self, a: float, b: float, v: np.ndarray, side: str
    ) -> np.ndarray:
        """Push ``v`` through the cell/sliver sequence of ``[a, b]``.

        The block analogue of :meth:`_product`: instead of composing the
        full ``(K, K)`` window product and multiplying once, the vector
        (or block) is carried through the pieces directly — one
        ``(M, K) @ (K, K)`` matmat per piece, never a ``(K, K) @ (K, K)``
        matmul.  For ``M < K`` this is strictly cheaper; for a single
        vector it is the classical matvec chain.
        """
        if b - a <= _TINY:
            return np.array(v, dtype=float, copy=True)
        left, j0, j1, right = self._window_pieces(a, b)
        indices = range(j0, j1)
        built = self._build_cells(indices)
        self._count("propagator_cache_hits", len(indices) - built)
        pieces = []
        if left is not None:
            pieces.append(self._sliver(*left))
        pieces.extend(self._cells[i] for i in indices)
        if right is not None:
            pieces.append(self._sliver(*right))
        w = v
        if side == "right":
            for mat in reversed(pieces):
                w = mat @ w
        else:
            for mat in pieces:
                w = w @ mat
        self._count("propagator_products", len(pieces))
        return w

    def apply(
        self, v: np.ndarray, a: float, b: float, side: str = "left"
    ) -> np.ndarray:
        """``v @ Π(a, b)`` (``side="left"``) or ``Π(a, b) @ v``
        (``side="right"``), defect-controlled.

        ``v`` may be a vector ``(K,)`` or a block — ``(M, K)`` rows for
        the left action, ``(K, M)`` columns for the right action — and
        the whole block rides through each cached cell in a single
        matmat (see :meth:`_apply_pieces`).  Same contract as
        :meth:`SparseActionPropagator.apply`.
        """
        a, b = float(a), float(b)
        if b < a:
            raise ModelError(f"empty window [{a}, {b}]")
        if side not in ("left", "right"):
            raise ModelError(f"side must be left/right, got {side!r}")
        self.ensure(a, b, window=b - a)
        return self._apply_pieces(a, b, np.asarray(v, dtype=float), side)

    def apply_many(
        self, ts, duration: float, v: np.ndarray, side: str = "left"
    ) -> np.ndarray:
        """Batched ``v @ Π(t_i, t_i + duration)`` (or right actions).

        Warms every cell and sliver the batch touches in one vectorized
        kernel call each (:meth:`prepare_windows`), then applies each
        window from the shared cache.  Returns one stacked array, first
        axis indexing ``ts``.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        duration = float(duration)
        if duration < 0.0:
            raise ModelError(f"duration must be non-negative, got {duration}")
        if side not in ("left", "right"):
            raise ModelError(f"side must be left/right, got {side!r}")
        if ts.size == 0:
            return np.zeros((0,) + np.asarray(v).shape)
        self.prepare_windows(ts, ts + duration)
        v = np.asarray(v, dtype=float)
        return np.stack(
            [self._apply_pieces(t, t + duration, v, side) for t in ts]
        )

    # ------------------------------------------------------------------

    @property
    def cell_width(self) -> Optional[float]:
        """Current grid cell width (``None`` before the first probe)."""
        return self._h

    @property
    def num_cached_cells(self) -> int:
        """Cells plus boundary slivers currently held in the cache."""
        return len(self._cells) + len(self._slivers)

    def clear_caches(self) -> None:
        """Drop every cached cell, sliver and reference solve *in place*.

        The grid geometry is reset too (``cell_width`` back to ``None``,
        nothing validated), so the next query re-probes from scratch.
        Because the clearing is in place, every holder of this engine
        observes the invalidation instead of serving stale cells.
        """
        self._cells.clear()
        self._slivers.clear()
        self._references.clear()
        self._h = None
        self._validated = None
        self.refinements = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PropagatorEngine(k={self.k}, kernel={self.kernel!r}, "
            f"order={self.order}, h={self._h}, "
            f"validated={self._validated}, cells={len(self._cells)}, "
            f"slivers={len(self._slivers)})"
        )


SparseGeneratorFunction = Callable[[float], scipy.sparse.csr_matrix]


def _taylor_parameters(norm: float) -> "tuple[int, int]":
    """``(m*, s)`` minimising ``m·⌈‖A‖₁/θ_m⌉`` over :data:`_THETA`.

    This is code fragment (3.1) of Al-Mohy & Higham under their
    condition (3.13).  Where (3.13) fails the choice stays valid, only
    conservative: the paper's sharper bound uses ``α_p(A) ≤ ‖A‖₁``.
    A zero operator needs no terms: ``(0, 1)``.
    """
    if norm == 0.0:
        return 0, 1
    best_m, best_s = 0, 0
    for m, theta in _THETA:
        s = int(math.ceil(norm / theta))
        if best_m == 0 or m * s < best_m * best_s:
            best_m, best_s = m, s
    return best_m, best_s


def _inf_norm(x: np.ndarray) -> float:
    """``‖x‖_∞`` of a vector, or the largest absolute row sum of a block."""
    x = np.abs(x)
    if x.ndim == 1:
        return x.max()
    return (x @ np.ones(x.shape[1])).max()


class _ActionPlan:
    """``e^E`` for one fixed sparse exponent ``E``, ready to apply.

    Holds what Al-Mohy & Higham's Algorithm 3.2 needs of the operator,
    computed once: the shift ``μ = trace(E)/n``, the shifted operator
    ``A = E − μI`` as CSR, its exact 1-norm and the Taylor degree and
    step count ``(m*, s)`` chosen from it.  :meth:`right` is then the
    algorithm's loop alone.  The transposed plan behind :meth:`left` is
    built on first use.
    """

    __slots__ = ("op", "mu", "norm", "m_star", "s", "_eta", "_pattern",
                 "_transposed")

    def __init__(self, op, mu, norm: float, pattern: "_ExponentPattern"):
        self.op = op
        self.mu = mu
        self.norm = norm
        self.m_star, self.s = _taylor_parameters(norm)
        self._eta = np.exp(mu / float(self.s))
        self._pattern = pattern
        self._transposed: "Optional[_ActionPlan]" = None

    def right(self, b: np.ndarray) -> np.ndarray:
        """``e^E @ b`` for a vector ``(n,)`` or a block ``(n, B)``.

        Algorithm 3.2 at tolerance 2⁻⁵³: ``s`` steps of at most ``m*``
        Taylor terms each, a step ending early once two consecutive
        terms are negligible against the partial sum.
        """
        op, s = self.op, self.s
        f = b
        for _ in range(s):
            c1 = _inf_norm(b)
            for j in range(self.m_star):
                b = (1.0 / float(s * (j + 1))) * op.dot(b)
                c2 = _inf_norm(b)
                f = f + b
                if c1 + c2 <= _ACTION_TOL * _inf_norm(f):
                    break
                c1 = c2
            f = self._eta * f
            b = f
        return f

    def left(self, v: np.ndarray) -> np.ndarray:
        """``v @ e^E`` for a row ``(n,)`` or a block ``(B, n)``."""
        transposed = self._transposed
        if transposed is None:
            transposed = self._transposed = self._pattern.transpose(self)
        return transposed.right(v.T).T


class _ExponentPattern:
    """The one CSR pattern every exponent of an engine lives on.

    It is the generator's fixed structure with a diagonal slot added to
    every row that lacks one (goal chains have empty rows), so the shift
    ``E − μI`` never changes the pattern.  Exponent values arrive on the
    generator's structure and are scattered into the completed one; the
    transposed pattern for left actions is derived on first use.
    """

    def __init__(self, q: scipy.sparse.csr_matrix):
        n = int(q.shape[0])
        self.n = n
        #: The generator structure every ``q_of_t`` result must repeat.
        self.q_indptr = q.indptr
        self.q_indices = q.indices
        rows = np.repeat(np.arange(n), np.diff(q.indptr))
        missing = np.setdiff1d(np.arange(n), rows[rows == q.indices])
        if missing.size:
            all_rows = np.concatenate([rows, missing])
            all_cols = np.concatenate([q.indices, missing])
            order = np.lexsort((all_cols, all_rows))
            self.indices = all_cols[order].astype(q.indices.dtype)
            self.indptr = np.zeros(n + 1, dtype=q.indptr.dtype)
            np.cumsum(np.bincount(all_rows, minlength=n), out=self.indptr[1:])
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            #: Slot of each generator entry in the completed pattern.
            self._scatter: Optional[np.ndarray] = rank[: q.indices.size]
            rows = all_rows[order]
        else:
            self.indices, self.indptr = q.indices, q.indptr
            self._scatter = None
        self._rows = rows
        self._diagonal = np.flatnonzero(rows == self.indices)
        self._transpose_order: Optional[tuple] = None

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def plan(self, data: np.ndarray) -> _ActionPlan:
        """Plan for the exponent with values ``data`` on the generator's
        structure (a fresh array; it may become the plan's own)."""
        if self._scatter is not None:
            full = np.zeros(self.nnz)
            full[self._scatter] = data
            data = full
        n = self.n
        mu = data[self._diagonal].sum() / float(n)
        data[self._diagonal] -= mu
        norm = np.bincount(self.indices, weights=np.abs(data), minlength=n)
        op = scipy.sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(n, n)
        )
        return _ActionPlan(op, mu, float(norm.max()), self)

    def transpose(self, plan: _ActionPlan) -> _ActionPlan:
        """The plan of ``Eᵀ``: same shift, the transposed operator and
        its own 1-norm (the largest absolute row sum of ``A``)."""
        if self._transpose_order is None:
            order = np.argsort(self.indices, kind="stable")
            indptr = np.zeros(self.n + 1, dtype=self.indptr.dtype)
            np.cumsum(
                np.bincount(self.indices, minlength=self.n), out=indptr[1:]
            )
            self._transpose_order = (
                order, self._rows[order].astype(self.indices.dtype), indptr
            )
        order, indices, indptr = self._transpose_order
        data = plan.op.data
        norm = np.bincount(self._rows, weights=np.abs(data), minlength=self.n)
        op = scipy.sparse.csr_matrix(
            (data[order], indices, indptr), shape=(self.n, self.n)
        )
        return _ActionPlan(op, plan.mu, float(norm.max()), self)


class SparseActionPropagator:
    """Action-based propagator for large sparse inhomogeneous chains.

    The grid geometry matches :class:`PropagatorEngine` (uniform cells,
    boundary slivers, CF4 or midpoint cell rule), but the cache holds
    the *sparse exponent matrices* of each cell — for CF4 the pair
    ``E₁ = h(b·Q₁ + a·Q₂)``, ``E₂ = h(a·Q₁ + b·Q₂)``, computed on the
    generator's own CSR structure — each with its Al-Mohy–Higham action
    plan (shift, 1-norm and Taylor parameters, built with the cell), and
    ``Π(a, b)`` is only ever *applied*:

    - right action ``Π(a, b) @ w`` (reach-probability vectors):
      ``exp(E₁)·exp(E₂)·…·w`` evaluated right-to-left, one Algorithm 3.2
      loop per factor (docs/numerics.md §2);
    - left action ``v @ Π(a, b)`` (distribution rows): the transposed
      chain evaluated left-to-right (each factor's transposed plan is
      built on first use).

    Memory is O(cells · nnz) instead of O(cells · K²) and a window
    application costs O(cells · nnz · series terms) — no dense matrix
    exists unless :meth:`propagate` explicitly densifies the result
    (guarded by ``Budget.max_memory_mb``).

    Defect control is Richardson extrapolation: probe blocks (the
    uniform distribution plus a few fixed-seed random directions) are
    pushed through the actual piece sequence at width ``h`` and at
    ``h/2``; the difference estimates the O(h^order) composition error
    and drives the same order-aware refinement jumps as the dense
    engine.  docs/numerics.md discusses why the dense engine's exact-ODE
    references are not affordable here.

    Parameters mirror :class:`PropagatorEngine` where they apply;
    ``q_of_t`` must return a canonical :class:`scipy.sparse.csr_matrix`
    with one fixed sparsity structure for every ``t`` (e.g. from
    :meth:`repro.meanfield.compiled.CompiledGenerator.sparse`).  Each
    evaluation is checked against the structure of ``q_of_t(0)``, and a
    change raises :class:`~repro.exceptions.ModelError`.
    """

    def __init__(
        self,
        q_of_t: SparseGeneratorFunction,
        *,
        tol: float = DEFAULT_PROPAGATOR_TOL,
        order: int = 4,
        initial_cells: int = 16,
        max_refinements: int = 16,
        trace: Optional[DiagnosticTrace] = None,
        stats=None,
        budget: Optional[Budget] = None,
    ):
        if tol <= 0.0:
            raise ModelError(f"tol must be positive, got {tol}")
        if order not in (2, 4):
            raise ModelError(f"order must be 2 or 4, got {order}")
        if initial_cells < 1:
            raise ModelError(f"initial_cells must be >= 1, got {initial_cells}")
        self.q_of_t = q_of_t
        self.tol = float(tol)
        self.order = int(order)
        self._initial_cells = int(initial_cells)
        self._max_refinements = int(max_refinements)
        self._trace = trace
        self._stats = stats
        self._budget = budget
        q0 = q_of_t(0.0)
        if not scipy.sparse.issparse(q0):
            raise ModelError(
                "SparseActionPropagator needs a sparse generator function; "
                f"got {type(q0).__name__} (use PropagatorEngine for dense)"
            )
        q0 = q0.tocsr()
        if not q0.has_canonical_format:
            raise ModelError(
                "SparseActionPropagator needs a canonical CSR generator "
                "(sorted indices, no duplicate entries)"
            )
        self.k = int(q0.shape[0])
        self._nnz = int(q0.nnz)
        self._pattern = _ExponentPattern(q0)
        self._h: Optional[float] = None
        self._validated: Optional["tuple[float, float, float]"] = None
        self.refinements = 0
        #: Cell index -> tuple of sparse exponents in *product order*
        #: (left factor first); the cell propagator is the product of
        #: their exponentials.
        self._cells: "dict[int, tuple]" = {}
        self._slivers: "dict[tuple, tuple]" = {}
        rng = np.random.default_rng(_SPARSE_PROBE_SEED)
        probes = rng.standard_normal((self.k, _SPARSE_PROBE_COLUMNS))
        probes /= np.max(np.abs(probes), axis=0, keepdims=True)
        #: Probe block for Richardson defect control: the uniform
        #: distribution plus fixed random directions, ∞-normalized so
        #: the defect reads as an absolute entrywise error.
        self._probe_block = np.column_stack(
            [np.full(self.k, 1.0 / self.k), probes]
        )

    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self._stats is not None and amount:
            setattr(self._stats, name, getattr(self._stats, name) + amount)

    def _generator_data(self, t: float) -> np.ndarray:
        """Values of ``q_of_t(t)``, checked against the fixed structure."""
        q = self.q_of_t(t).tocsr()
        pattern = self._pattern
        if not (
            q.shape == (self.k, self.k)
            and np.array_equal(q.indptr, pattern.q_indptr)
            and np.array_equal(q.indices, pattern.q_indices)
        ):
            raise ModelError(
                f"q_of_t({t:g}) changed the sparsity structure; the sparse "
                f"engine needs one fixed structure for every time point"
            )
        return q.data

    def _factors(self, start: float, width: float) -> tuple:
        """Action plans of the cell rule's exponents over one interval."""
        if self.order == 2:
            data = self._generator_data(start + 0.5 * width) * width
            return (self._pattern.plan(data),)
        q1 = self._generator_data(start + width * (0.5 - _GAUSS_OFFSET))
        q2 = self._generator_data(start + width * (0.5 + _GAUSS_OFFSET))
        return (
            self._pattern.plan((width * _CF4_B) * q1 + (width * _CF4_A) * q2),
            self._pattern.plan((width * _CF4_A) * q1 + (width * _CF4_B) * q2),
        )

    def _cell(self, i: int) -> tuple:
        factors = self._cells.get(i)
        if factors is not None:
            self._count("propagator_cache_hits")
            return factors
        if self._budget is not None:
            # A factor's operator values, and those of its transpose.
            per_factor = 16 * self._pattern.nnz
            per_cell = per_factor * (2 if self.order == 4 else 1)
            self._budget.check_memory(
                (len(self._cells) + len(self._slivers) + 1) * per_cell,
                "sparse propagator cell cache",
            )
        factors = self._factors(i * self._h, self._h)
        self._cells[i] = factors
        self._count("sparse_cells_built")
        return factors

    def _sliver_factors(self, a: float, b: float) -> tuple:
        key = (round(a, _KEY_DECIMALS), round(b, _KEY_DECIMALS))
        factors = self._slivers.get(key)
        if factors is not None:
            self._count("propagator_cache_hits")
            return factors
        factors = self._factors(a, b - a)
        self._slivers[key] = factors
        self._count("sparse_cells_built")
        return factors

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    @staticmethod
    def _right_action(factors, w: np.ndarray) -> np.ndarray:
        """``(∏ exp(E_f)) @ w`` — factors applied right-to-left."""
        for plan in reversed(factors):
            w = plan.right(w)
        return w

    @staticmethod
    def _left_action(factors, v: np.ndarray) -> np.ndarray:
        """``v @ (∏ exp(E_f))`` — transposed chain, left-to-right."""
        for plan in factors:
            v = plan.left(v)
        return v

    def _pieces(self, a: float, b: float) -> list:
        """Factor tuples of every piece of ``[a, b]``, in product order."""
        left, j0, j1, right = split_window(self._h, a, b)
        pieces = []
        if left is not None:
            pieces.append(self._sliver_factors(*left))
        for i in range(j0, j1):
            pieces.append(self._cell(i))
        if right is not None:
            pieces.append(self._sliver_factors(*right))
        return pieces

    def _apply_window(
        self, a: float, b: float, v: np.ndarray, side: str
    ) -> np.ndarray:
        """Apply ``Π(a, b)`` to ``v`` through the cached piece sequence."""
        if b - a <= _TINY:
            return np.array(v, dtype=float, copy=True)
        pieces = self._pieces(a, b)
        self._count("sparse_applies")
        if side == "right":
            w = np.asarray(v, dtype=float)
            for factors in reversed(pieces):
                w = self._right_action(factors, w)
            return w
        w = np.asarray(v, dtype=float)
        for factors in pieces:
            w = self._left_action(factors, w)
        return w

    def _apply_window_refined(
        self, a: float, b: float, v: np.ndarray, side: str
    ) -> np.ndarray:
        """Same piece sequence, but every piece split in two — the
        Richardson comparison point for the defect estimate.  Each
        piece's halved factors are built, applied and dropped before the
        next piece's: they are never cached (the estimate must not
        pollute the working grid)."""
        left, j0, j1, right = split_window(self._h, a, b)
        intervals = []
        if left is not None:
            intervals.append(left)
        intervals.extend((i * self._h, (i + 1) * self._h) for i in range(j0, j1))
        if right is not None:
            intervals.append(right)
        action = self._left_action
        if side == "right":
            intervals.reverse()
            action = self._right_action
        w = np.asarray(v, dtype=float)
        for s, e in intervals:
            mid = 0.5 * (s + e)
            w = action(self._factors(s, mid - s) + self._factors(mid, e - mid), w)
        return w

    # ------------------------------------------------------------------
    # Defect control (Richardson)
    # ------------------------------------------------------------------

    def _probe_windows(
        self, lo: float, hi: float, window: float
    ) -> "list[tuple[float, float]]":
        if window >= (hi - lo) - _TINY:
            return [(lo, hi)]
        mid_start = 0.5 * (lo + hi - window)
        starts = sorted({lo, mid_start, hi - window})
        probes = []
        prev_end = -np.inf
        for s in starts:
            if s >= prev_end - _TINY:
                probes.append((s, s + window))
                prev_end = s + window
        return probes

    def _defect(self, probes) -> float:
        """Worst Richardson (h vs h/2) error over the probe windows.

        The halved grid is O(2^order) more accurate, so the h-vs-h/2
        difference is a slight *over*-estimate of the coarse grid's true
        error — conservative in the safe direction.
        """
        worst = 0.0
        for a, b in probes:
            coarse = self._apply_window(a, b, self._probe_block, "right")
            fine = self._apply_window_refined(a, b, self._probe_block, "right")
            worst = max(worst, float(np.max(np.abs(coarse - fine))))
        return worst

    def ensure(
        self, t_lo: float, t_hi: float, window: Optional[float] = None
    ) -> None:
        """Richardson-validate the grid for windows up to ``window``
        anywhere inside ``[t_lo, t_hi]`` (same contract as
        :meth:`PropagatorEngine.ensure`)."""
        t_lo, t_hi = float(t_lo), float(t_hi)
        if t_lo < -1e-9:
            raise ModelError(f"propagator times must be >= 0, got {t_lo}")
        t_lo = max(t_lo, 0.0)
        if t_hi < t_lo:
            raise ModelError(f"empty ensure range [{t_lo}, {t_hi}]")
        window = float(window) if window is not None else t_hi - t_lo
        window = min(max(window, 0.0), t_hi - t_lo)
        if self._validated is not None:
            lo, hi, w = self._validated
            if (
                lo - 1e-12 <= t_lo
                and t_hi <= hi + 1e-12
                and window <= w + 1e-12
            ):
                return
            t_lo, t_hi = min(lo, t_lo), max(hi, t_hi)
            window = max(w, window)
        if t_hi - t_lo <= _TINY or window <= _TINY:
            self._validated = (t_lo, t_hi, window)
            return
        if self._h is None:
            self._h = (t_hi - t_lo) / self._initial_cells
        target = REFINEMENT_SAFETY * self.tol
        probes = self._probe_windows(t_lo, t_hi, window)
        while True:
            if self._budget is not None:
                self._budget.checkpoint(
                    f"sparse propagator refinement sweep {self.refinements}"
                )
            defect = self._defect(probes)
            if defect <= target:
                break
            if self.refinements >= self._max_refinements:
                raise NumericalError(
                    f"sparse propagator grid did not reach tol={self.tol:g} "
                    f"over [{t_lo:g}, {t_hi:g}] after {self.refinements} "
                    f"refinements (defect {defect:.2e}); fall back to a "
                    f"dense rung"
                )
            jumps = max(
                1, math.ceil(math.log2(defect / target) / self.order)
            )
            jumps = min(jumps, self._max_refinements - self.refinements)
            self._h /= 2.0 ** jumps
            self._cells.clear()
            self._slivers.clear()
            self.refinements += jumps
            self._count("sparse_refinements", jumps)
        if self._trace is not None and self.refinements:
            self._trace.note(
                f"sparse propagator grid at h={self._h:g} over "
                f"[{t_lo:g}, {t_hi:g}] after {self.refinements} "
                f"refinements (Richardson defect {defect:.2e})"
            )
        self._validated = (t_lo, t_hi, window)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def apply(
        self, v: np.ndarray, a: float, b: float, side: str = "left"
    ) -> np.ndarray:
        """``v @ Π(a, b)`` (``side="left"``) or ``Π(a, b) @ v``
        (``side="right"``), defect-controlled.

        ``v`` may be a vector ``(K,)`` or a block — ``(B, K)`` rows for
        the left action, ``(K, B)`` columns for the right action.
        """
        a, b = float(a), float(b)
        if b < a:
            raise ModelError(f"empty window [{a}, {b}]")
        if side not in ("left", "right"):
            raise ModelError(f"side must be left/right, got {side!r}")
        self.ensure(a, b, window=b - a)
        return self._apply_window(a, b, np.asarray(v, dtype=float), side)

    def propagate(self, a: float, b: float) -> np.ndarray:
        """Dense ``Π(a, b)`` via the identity right action.

        The one place the sparse engine materializes a ``(K, K)`` array
        — screened by the budget's memory guard first, so infeasible
        densifications surface as
        :class:`~repro.exceptions.BudgetExceededError` before any
        allocation.
        """
        a, b = float(a), float(b)
        if b < a:
            raise ModelError(f"empty window [{a}, {b}]")
        if self._budget is not None:
            self._budget.check_memory(
                2 * self.k * self.k * 8, "sparse propagator densify"
            )
        self.ensure(a, b, window=b - a)
        return self._apply_window(a, b, np.eye(self.k), "right")

    def apply_many(
        self, ts, duration: float, v: np.ndarray, side: str = "left"
    ) -> np.ndarray:
        """Batched ``v @ Π(t_i, t_i + duration)`` (or right actions).

        Validates the covering range once; each window then reuses the
        shared cell cache.  Returns one stacked array, first axis
        indexing ``ts``.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        duration = float(duration)
        if duration < 0.0:
            raise ModelError(f"duration must be non-negative, got {duration}")
        if ts.size == 0:
            return np.zeros((0,) + np.asarray(v).shape)
        self.ensure(float(ts.min()), float(ts.max()) + duration, window=duration)
        v = np.asarray(v, dtype=float)
        return np.stack(
            [self._apply_window(t, t + duration, v, side) for t in ts]
        )

    # ------------------------------------------------------------------

    @property
    def cell_width(self) -> Optional[float]:
        """Current grid cell width (``None`` before the first probe)."""
        return self._h

    @property
    def num_cached_cells(self) -> int:
        """Cells plus boundary slivers currently held in the cache."""
        return len(self._cells) + len(self._slivers)

    def clear_caches(self) -> None:
        """Drop every cached exponent cell and sliver *in place*.

        Sparse counterpart of :meth:`PropagatorEngine.clear_caches`:
        grid geometry resets and every holder of the engine (its
        evaluation context, a caller that captured it from
        :meth:`~repro.checking.context.EvaluationContext.action_engine`)
        sees the invalidation instead of stale exponents.
        """
        self._cells.clear()
        self._slivers.clear()
        self._h = None
        self._validated = None
        self.refinements = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SparseActionPropagator(k={self.k}, nnz={self._nnz}, "
            f"order={self.order}, h={self._h}, "
            f"validated={self._validated}, cells={len(self._cells)}, "
            f"slivers={len(self._slivers)})"
        )
