"""Compiled generator assembly — the fast path behind every ODE solve.

The interpreted :meth:`~repro.meanfield.local_model.LocalModel.generator`
walks every transition and, for expression rates, every node of the rate
tree, on *each* right-hand-side evaluation.  A
:class:`CompiledGenerator` does that work once, at construction:

- transitions with **constant** rates are evaluated a single time and
  baked into a precomputed base matrix;
- **expression** rates are compiled to one numpy closure each
  (:meth:`~repro.meanfield.expressions.Expression.compile`);
- arbitrary Python callables are kept as-is (they are already a single
  call);
- members of a :class:`~repro.meanfield.rates.RateFamily` are grouped by
  family, so the per-transition table (:meth:`transition_rates`) calls
  each family once per evaluation instead of once per member.

Per evaluation the assembler copies the base matrix, fills in the few
dynamic entries, and closes the diagonal — no per-transition dispatch
for the constant part and no tree walks at all.  :meth:`batch`
evaluates the generator over a whole batch of occupancy vectors at
once, vectorizing compiled-expression rates across the batch.

For large local models the dense ``(K, K)`` layout itself becomes the
bottleneck, so the assembler also has a **CSR build mode**: the
transition list fixes the sparsity structure once (only structurally
nonzero entries plus the diagonal are materialized), and per evaluation
only the ``nnz``-length ``.data`` vector is rewritten — see
:meth:`sparse`, :meth:`sparse_into` and :meth:`sparse_data_batch`.  The
dense base matrix is built lazily, so sparse-only workloads never
allocate ``K²`` memory here at all.

The interpreted path remains the correctness oracle: the property tests
assert agreement to 1e-12 for every bundled model.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
import scipy.sparse

from repro.exceptions import InvalidRateError, ModelError
from repro.meanfield.expressions import Expression
from repro.meanfield.rates import FamilyMember, evaluate_rate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.meanfield.local_model import LocalModel

#: Local-state count from which :meth:`CompiledGenerator.drift` switches
#: the mean-field drift to the O(T + K) per-transition action instead of
#: assembling a dense generator.  Kept well above the zoo-model sizes so
#: small-model trajectories stay bitwise identical to earlier releases.
DRIFT_ACTION_MIN_K = 256

#: Kinds of the dynamic transitions ``transition_rates`` evaluates one by
#: one (constants and rate-family members are handled in bulk).
#: ``_VECTOR`` covers compiled expressions *and* callables that declare
#: ``vectorized = True`` (see :mod:`repro.meanfield.rates`): both map a
#: ``(B, K)`` occupancy batch to a ``(B,)`` value array in one call.
_VECTOR, _CALLABLE = 0, 1


class CompiledGenerator:
    """One-pass assembler for ``Q(m̄, t)`` with a precomputed constant part.

    Parameters
    ----------
    model:
        The local model whose generator is compiled.  The compiled form
        is valid for the model's lifetime (models are immutable).

    Notes
    -----
    Every call returns a *fresh* array (the base matrix is copied), so
    results from successive calls never alias — callers like the
    window-shift propagator hold two generators at once.
    """

    def __init__(self, model: "LocalModel"):
        k = model.num_states
        dummy = np.full(k, 1.0 / k)
        dynamic = []
        const_cols, const_values = [], []
        families: dict = {}
        singles = []
        num_compiled = 0
        for j, tr in enumerate(model.transitions):
            if tr.constant:
                const_cols.append(j)
                const_values.append(evaluate_rate(tr.rate, dummy, 0.0))
            elif isinstance(tr.rate, Expression):
                compiled = tr.rate.compile()
                if compiled.max_index >= k:
                    raise ModelError(
                        f"occupancy index {compiled.max_index} out of range "
                        f"for K={k} in rate {tr.rate!r}"
                    )
                dynamic.append((tr.source, tr.target, compiled, True))
                singles.append((j, _VECTOR, compiled))
                num_compiled += 1
            elif isinstance(tr.rate, FamilyMember):
                dynamic.append((tr.source, tr.target, tr.rate, True))
                cols, members = families.setdefault(tr.rate.family, ([], []))
                cols.append(j)
                members.append(tr.rate.index)
            else:
                vectorized = bool(getattr(tr.rate, "vectorized", False))
                dynamic.append((tr.source, tr.target, tr.rate, vectorized))
                singles.append(
                    (j, _VECTOR if vectorized else _CALLABLE, tr.rate)
                )
        #: Dense constant base, built lazily on first dense assembly so
        #: sparse-only workloads never pay the K² allocation.
        self._base: Optional[np.ndarray] = None
        #: CSR structure cache: ``(indptr, indices, tr_pos, diag_pos)``.
        self._structure = None
        self._dynamic: Tuple = tuple(dynamic)
        # The per-transition table's plan (see ``transition_rates``):
        # constant columns and their values, one ``(family, columns,
        # member indices)`` group per rate family, and every remaining
        # dynamic transition as ``(column, kind, rate)``.
        self._const_cols = np.array(const_cols, dtype=np.intp)
        self._const_values = np.array(const_values, dtype=float)
        self._families: Tuple = tuple(
            (family, np.asarray(cols, np.intp), np.asarray(idx, np.intp))
            for family, (cols, idx) in families.items()
        )
        self._singles: Tuple = tuple(singles)
        self._num_transitions = len(model.transitions)
        #: Source state of every transition, in model order (``(T,)``).
        self.transition_sources = np.array(
            [tr.source for tr in model.transitions], dtype=np.intp
        )
        #: Target state of every transition, in model order (``(T,)``).
        self.transition_targets = np.array(
            [tr.target for tr in model.transitions], dtype=np.intp
        )
        #: Targets then sources: the states :meth:`drift` credits and
        #: debits, in that order.
        self._flow_states = np.concatenate(
            [self.transition_targets, self.transition_sources]
        )
        self._k = k
        #: Transitions whose rate is re-evaluated per call.
        self.num_dynamic = len(dynamic)
        #: Of those, how many run through a compiled expression closure.
        self.num_compiled = num_compiled
        #: Distinct rate families the dynamic transitions belong to.
        self.num_families = len(self._families)
        #: Transitions folded into the constant base matrix.
        self.num_constant = len(model.transitions) - len(dynamic)

    @property
    def num_states(self) -> int:
        """Dimension ``K`` of the generator."""
        return self._k

    def _base_matrix(self) -> np.ndarray:
        """The dense constant base (built lazily, cached)."""
        if self._base is None:
            base = np.zeros((self._k, self._k))
            cols = self._const_cols
            np.add.at(
                base,
                (self.transition_sources[cols], self.transition_targets[cols]),
                self._const_values,
            )
            self._base = base
        return self._base

    # ------------------------------------------------------------------

    def __call__(self, m: np.ndarray, t: float = 0.0) -> np.ndarray:
        """The generator ``Q(m̄)`` at one occupancy vector — fast path.

        Semantics match the interpreted
        :meth:`~repro.meanfield.local_model.LocalModel.generator`: rates
        are validated (negative/non-finite values raise
        :class:`~repro.exceptions.InvalidRateError`), round-off-level
        negatives are clamped to zero, and the diagonal closes the rows.
        """
        m = np.asarray(m, dtype=float)
        base = self._base
        if base is None:
            base = self._base_matrix()
        k = self._k
        q = base.copy()
        flat = q.reshape(-1)
        for src, dst, fn, _ in self._dynamic:
            value = float(fn(m, t))
            if not math.isfinite(value) or value < -1e-9:
                raise InvalidRateError(
                    f"rate evaluated to {value} at m={m!r}, t={t}"
                )
            if value > 0.0:
                flat[src * k + dst] += value
        # The diagonal is every (K + 1)-th flat entry: the slots
        # ``np.fill_diagonal`` writes, and ``np.add.reduce`` is the
        # reduction ``q.sum(axis=1)`` runs, so the bits are the same.
        flat[:: k + 1] = -np.add.reduce(q, 1)
        return q

    def batch(self, occupancies: np.ndarray, t=0.0) -> np.ndarray:
        """Generators for a whole batch of occupancy vectors at once.

        Parameters
        ----------
        occupancies:
            Array of shape ``(B, K)`` (one occupancy vector per row).
        t:
            Scalar time, or array of shape ``(B,)`` pairing a time with
            each occupancy vector.

        Returns
        -------
        numpy.ndarray
            Shape ``(B, K, K)``; slice ``[i]`` equals
            ``__call__(occupancies[i], t_i)``.
        """
        occupancies = np.asarray(occupancies, dtype=float)
        if occupancies.ndim != 2 or occupancies.shape[1] != self._k:
            raise ModelError(
                f"batch expects shape (B, {self._k}), got {occupancies.shape}"
            )
        b = occupancies.shape[0]
        k = self._k
        q = np.empty((b, k, k))
        q[:] = self._base_matrix()
        t_arr = np.broadcast_to(np.asarray(t, dtype=float), (b,))
        for src, dst, fn, vectorized in self._dynamic:
            if vectorized:
                values = np.asarray(fn(occupancies, t_arr), dtype=float)
                values = np.broadcast_to(values, (b,))
            else:
                values = np.array(
                    [float(fn(occupancies[i], t_arr[i])) for i in range(b)]
                )
            if not np.all(np.isfinite(values)) or np.any(values < -1e-9):
                bad = values[~np.isfinite(values) | (values < -1e-9)][0]
                raise InvalidRateError(
                    f"rate evaluated to {bad} in batch of {b} occupancies"
                )
            q[:, src, dst] += np.clip(values, 0.0, None)
        diag = np.arange(k)
        q[:, diag, diag] = 0.0
        q[:, diag, diag] = -q.sum(axis=2)
        return q

    def transition_rates(self, occupancies: np.ndarray, t=0.0) -> np.ndarray:
        """Per-transition rate values for a whole batch of occupancies.

        Unlike :meth:`batch`, which merges transitions into generator
        entries, this keeps the *per-transition* resolution that CSR
        assembly (:meth:`sparse` and friends), the large-``K``
        :meth:`drift` and the finite-N Gillespie engine need.  Constant
        columns are filled by one indexed assignment and each rate family
        is called once; only the remaining dynamic transitions are
        evaluated one by one.  For the Gillespie engine, replica ``b``'s
        aggregate event rate for transition ``j`` is
        ``counts[b, sources[j]] * rates[b, j]``, with ``sources`` /
        ``targets`` given by :attr:`transition_sources` /
        :attr:`transition_targets`.

        Parameters
        ----------
        occupancies:
            Array of shape ``(B, K)`` (one occupancy vector per row).
        t:
            Scalar time, or array of shape ``(B,)`` pairing a time with
            each occupancy vector.

        Returns
        -------
        numpy.ndarray
            Shape ``(B, T)`` with ``T = len(model.transitions)``, in
            model transition order.  Rates are validated exactly like
            :meth:`__call__` (negative/non-finite raise
            :class:`~repro.exceptions.InvalidRateError`) and round-off
            negatives are clamped to zero.
        """
        occupancies = np.asarray(occupancies, dtype=float)
        if occupancies.ndim != 2 or occupancies.shape[1] != self._k:
            raise ModelError(
                f"transition_rates expects shape (B, {self._k}), "
                f"got {occupancies.shape}"
            )
        b = occupancies.shape[0]
        t_arr = np.asarray(t, dtype=float)
        if t_arr.shape != (b,):
            t_arr = np.broadcast_to(t_arr, (b,))
        out = np.empty((b, self._num_transitions))
        out[:, self._const_cols] = self._const_values
        for family, cols, members in self._families:
            # One call per family; ``t`` as ``(B, 1)`` broadcasts against
            # the family's ``(B, n)`` result.
            values = family.evaluate(occupancies, t_arr[:, None])
            out[:, cols] = values[..., members]
        for j, kind, payload in self._singles:
            if kind == _VECTOR:
                # Fills the column directly; numpy broadcasts scalar
                # results (rates that ignore the batch) on assignment.
                out[:, j] = np.asarray(payload(occupancies, t_arr), dtype=float)
            else:
                column = out[:, j]
                for i in range(b):
                    column[i] = payload(occupancies[i], t_arr[i])
        if not np.all(np.isfinite(out)) or np.any(out < -1e-9):
            bad = out[~np.isfinite(out) | (out < -1e-9)][0]
            raise InvalidRateError(
                f"rate evaluated to {bad} in transition batch of "
                f"{b} occupancies"
            )
        return np.clip(out, 0.0, None, out=out)

    # ------------------------------------------------------------------
    # CSR build mode
    # ------------------------------------------------------------------

    def _sparse_structure(self):
        """The fixed CSR structure ``(indptr, indices, tr_pos, diag_pos)``.

        The transition list determines which entries of ``Q`` can ever be
        nonzero; the structure materializes exactly those plus one
        diagonal slot per row (the row closure), sorted and
        duplicate-free.  ``tr_pos[j]`` is the position in ``data`` that
        transition ``j`` accumulates into; ``diag_pos[i]`` is row ``i``'s
        diagonal slot.  Built once and cached — every sparse evaluation
        reuses the same ``indices``/``indptr`` arrays and only rewrites
        ``data``.
        """
        if self._structure is None:
            k = self._k
            cols = [{i} for i in range(k)]
            for s, d in zip(self.transition_sources, self.transition_targets):
                cols[int(s)].add(int(d))
            indptr = np.zeros(k + 1, dtype=np.int32)
            indices_list: list = []
            pos = {}
            for i in range(k):
                for c in sorted(cols[i]):
                    pos[(i, c)] = len(indices_list)
                    indices_list.append(c)
                indptr[i + 1] = len(indices_list)
            indices = np.asarray(indices_list, dtype=np.int32)
            tr_pos = np.array(
                [
                    pos[(int(s), int(d))]
                    for s, d in zip(
                        self.transition_sources, self.transition_targets
                    )
                ],
                dtype=np.intp,
            )
            diag_pos = np.array([pos[(i, i)] for i in range(k)], dtype=np.intp)
            self._structure = (indptr, indices, tr_pos, diag_pos)
        return self._structure

    @property
    def structural_nnz(self) -> int:
        """Number of structurally-nonzero entries (incl. the diagonal)."""
        return int(self._sparse_structure()[1].size)

    @property
    def structural_density(self) -> float:
        """Fraction ``nnz / K²`` of structurally-nonzero entries."""
        return self.structural_nnz / float(self._k * self._k)

    def _sparse_data(self, rates: np.ndarray) -> np.ndarray:
        """Scatter validated per-transition rates into CSR ``data`` rows.

        ``rates`` has shape ``(B, T)`` (output of
        :meth:`transition_rates`); the result has shape ``(B, nnz)``.
        Duplicate ``(source, target)`` transitions accumulate, and the
        diagonal slots close each row with minus the exit rate.
        """
        _indptr, indices, tr_pos, diag_pos = self._sparse_structure()
        b = rates.shape[0]
        nnz, k = indices.size, self._k
        # One ``bincount`` per scatter over row-offset slots: it adds in
        # the same per-slot order as ``np.add.at``, so the result is
        # bitwise identical, at a fraction of the cost.
        offsets = np.arange(b)[:, None]
        weights = rates.ravel()
        data = np.bincount(
            (offsets * nnz + tr_pos).ravel(), weights, minlength=b * nnz
        ).reshape(b, nnz)
        exit_rates = np.bincount(
            (offsets * k + self.transition_sources).ravel(),
            weights,
            minlength=b * k,
        ).reshape(b, k)
        data[:, diag_pos] = -exit_rates
        return data

    def sparse(self, m: np.ndarray, t: float = 0.0) -> scipy.sparse.csr_matrix:
        """``Q(m̄)`` as a CSR matrix — only structural nonzeros stored.

        Semantics match :meth:`__call__` exactly (validation, clamping,
        row closure); ``sparse(m, t).toarray()`` equals ``__call__(m, t)``
        to round-off.  The ``indices``/``indptr`` arrays are shared with
        the compiled structure — callers may freely rewrite ``.data``
        (see :meth:`sparse_into`) but must not mutate the structure.
        """
        m = np.asarray(m, dtype=float)
        rates = self.transition_rates(m[None, :], t)
        data = self._sparse_data(rates)[0]
        indptr, indices, _tr_pos, _diag_pos = self._sparse_structure()
        mat = scipy.sparse.csr_matrix(
            (data, indices, indptr), shape=(self._k, self._k)
        )
        return mat

    def sparse_into(
        self, matrix: scipy.sparse.csr_matrix, m: np.ndarray, t: float = 0.0
    ) -> scipy.sparse.csr_matrix:
        """Re-evaluate ``Q(m̄)`` into an existing CSR in place.

        ``matrix`` must come from :meth:`sparse` (same structure); only
        its ``.data`` vector is rewritten, so hot loops re-evaluating the
        generator along a trajectory allocate nothing per step.
        """
        rates = self.transition_rates(np.asarray(m, dtype=float)[None, :], t)
        matrix.data[:] = self._sparse_data(rates)[0]
        return matrix

    def sparse_data_batch(self, occupancies: np.ndarray, t=0.0) -> np.ndarray:
        """CSR ``data`` rows for a whole batch of occupancy vectors.

        Returns shape ``(B, nnz)`` against the shared structure of
        :meth:`_sparse_structure`; row ``i`` equals
        ``sparse(occupancies[i], t_i).data``.  Pair with
        :meth:`sparse_view` to wrap rows as matrices without re-scatter.
        """
        rates = self.transition_rates(occupancies, t)
        return self._sparse_data(rates)

    def sparse_view(self, data: np.ndarray) -> scipy.sparse.csr_matrix:
        """Wrap one ``(nnz,)`` data row (from :meth:`sparse_data_batch`)
        as a CSR matrix sharing the compiled structure."""
        indptr, indices, _tr_pos, _diag_pos = self._sparse_structure()
        return scipy.sparse.csr_matrix(
            (data, indices, indptr), shape=(self._k, self._k)
        )

    def drift(self, m: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Mean-field drift ``m̄ Q(m̄)`` in O(T + K), no matrix formed.

        The drift is a flow balance over transitions: each transition
        ``s -> d`` moves probability flux ``m[s] · rate`` from ``s`` to
        ``d``.  Used by :meth:`repro.meanfield.overall_model.MeanFieldModel.drift`
        for ``K >= DRIFT_ACTION_MIN_K``, where dense assembly would
        dominate the occupancy-ODE solve.
        """
        m = np.asarray(m, dtype=float)
        rates = self.transition_rates(m[None, :], t)[0]
        flux = m[self.transition_sources] * rates
        # One ``bincount`` over targets then sources keeps the per-state
        # order of inflows before outflows (two separate sums would round
        # differently).
        return np.bincount(
            self._flow_states, np.concatenate([flux, -flux]), minlength=self._k
        )

    def __repr__(self) -> str:
        return (
            f"CompiledGenerator(K={self._k}, constant={self.num_constant}, "
            f"dynamic={self.num_dynamic}, compiled={self.num_compiled}, "
            f"families={self.num_families})"
        )
