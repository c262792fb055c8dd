"""CTMC transformations for until checking (Sections IV-A–IV-C).

Checking ``Φ1 U^I Φ2`` needs *modified* chains:

- ``M[Φ]`` — the classical absorbing transform (all ``Φ`` states made
  absorbing), used by the simple two-phase algorithm of Equation (4);
- the **goal-state chain** of Section IV-C for time-varying satisfaction
  sets: one extra state ``s*`` is appended; at any moment the local states
  are partitioned into *live* (``Γ1 \\ Γ2`` — the path may keep moving),
  *success* (``Γ2`` — made absorbing, with all inflow redirected to
  ``s*``) and *fail* (``¬Γ1 ∧ ¬Γ2`` — made absorbing, mass there is a
  dead path);
- the **carry-over matrices** ``ζ(T_i)`` applied at each discontinuity
  point: mass in a live state that *becomes* success jumps to ``s*``
  (the path satisfied ``Γ1`` up to ``T_i`` and now hits ``Γ2``); mass in
  a live state that stays live is kept; every other row is zeroed (dead
  paths never resurrect — this is the interpretation fixed by the paper's
  own worked example, where ``ζ(T1)`` is zero except at ``(s*, s*)``).

A parallel set of helpers implements the *survival* chain used for the
first phase of an until with ``t1 > 0`` (reaching time ``t1`` while
staying inside ``Γ1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet

import numpy as np
import scipy.sparse

from repro.exceptions import CheckingError

GeneratorFunction = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class UntilPartition:
    """Partition of the local states for a goal-state chain.

    ``success`` wins over ``live`` when a state satisfies both ``Γ1`` and
    ``Γ2`` (reaching it satisfies the until immediately).
    """

    num_states: int
    live: FrozenSet[int]
    success: FrozenSet[int]
    fail: FrozenSet[int]

    @classmethod
    def from_sets(
        cls, num_states: int, gamma1: FrozenSet[int], gamma2: FrozenSet[int]
    ) -> "UntilPartition":
        """Build the live/success/fail partition from ``Γ1``, ``Γ2``."""
        all_states = frozenset(range(num_states))
        bad = (gamma1 | gamma2) - all_states
        if bad:
            raise CheckingError(f"state indices out of range: {sorted(bad)}")
        success = frozenset(gamma2)
        live = frozenset(gamma1) - success
        fail = all_states - success - live
        return cls(num_states, live, success, fail)


def absorbing_generator(
    q: np.ndarray, absorbed: FrozenSet[int]
) -> np.ndarray:
    """The transform ``M[Φ]``: rows of absorbed states zeroed."""
    out = np.array(q, dtype=float, copy=True)
    for s in absorbed:
        out[s, :] = 0.0
    return out


def absorbing_generator_function(
    q_of_t: GeneratorFunction, absorbed: FrozenSet[int]
) -> GeneratorFunction:
    """Time-dependent version of :func:`absorbing_generator`."""
    absorbed = frozenset(absorbed)

    def modified(t: float) -> np.ndarray:
        return absorbing_generator(np.asarray(q_of_t(t), dtype=float), absorbed)

    return modified


def absorbing_generator_sparse(
    q: scipy.sparse.spmatrix, absorbed: FrozenSet[int]
) -> scipy.sparse.csr_matrix:
    """Sparse ``M[Φ]``: CSR with absorbed rows' data zeroed.

    Only ``data`` is copied; the result shares ``q``'s index arrays
    (absorbed entries become explicit zeros), so repeated transforms
    along a trajectory keep one structure.  Treat it as read-only.
    """
    q = q.tocsr()
    data = q.data.copy()
    for s in absorbed:
        data[q.indptr[s] : q.indptr[s + 1]] = 0.0
    return scipy.sparse.csr_matrix((data, q.indices, q.indptr), shape=q.shape)


def absorbing_generator_sparse_function(
    q_of_t: Callable[[float], scipy.sparse.spmatrix], absorbed: FrozenSet[int]
) -> Callable[[float], scipy.sparse.csr_matrix]:
    """Time-dependent version of :func:`absorbing_generator_sparse`."""
    absorbed = frozenset(absorbed)

    def modified(t: float) -> scipy.sparse.csr_matrix:
        return absorbing_generator_sparse(q_of_t(t), absorbed)

    return modified


def goal_generator(q: np.ndarray, partition: UntilPartition) -> np.ndarray:
    """The ``(K+1, K+1)`` generator of the goal-state chain.

    Rows of success/fail states and of ``s*`` are zero (absorbing); live
    rows keep their transitions except that rates into success states are
    redirected into the goal column.  Row sums remain zero because mass is
    only moved between columns.
    """
    q = np.asarray(q, dtype=float)
    k = partition.num_states
    if q.shape != (k, k):
        raise CheckingError(
            f"generator shape {q.shape} does not match partition size {k}"
        )
    out = np.zeros((k + 1, k + 1))
    goal = k
    for s in partition.live:
        out[s, :k] = q[s, :]
        redirected = 0.0
        for s2 in partition.success:
            redirected += out[s, s2]
            out[s, s2] = 0.0
        out[s, goal] = redirected
    return out


def goal_generator_function(
    q_of_t: GeneratorFunction, partition: UntilPartition
) -> GeneratorFunction:
    """Time-dependent version of :func:`goal_generator`."""

    def modified(t: float) -> np.ndarray:
        return goal_generator(np.asarray(q_of_t(t), dtype=float), partition)

    return modified


def goal_generator_sparse(
    q: scipy.sparse.spmatrix, partition: UntilPartition
) -> scipy.sparse.csr_matrix:
    """Sparse ``(K+1, K+1)`` goal-state chain.

    Same construction as :func:`goal_generator`, built from the COO
    triplets of the live rows: entries into success states are re-aimed
    at the goal column (duplicates sum on CSR conversion), every other
    row is empty.  Cost is O(nnz), and the goal chain of a sparse
    generator stays sparse.
    """
    k = partition.num_states
    if q.shape != (k, k):
        raise CheckingError(
            f"generator shape {q.shape} does not match partition size {k}"
        )
    coo = q.tocoo()
    live = np.fromiter(sorted(partition.live), dtype=np.intp, count=len(partition.live))
    success = np.fromiter(
        sorted(partition.success), dtype=np.intp, count=len(partition.success)
    )
    keep = np.isin(coo.row, live)
    rows = coo.row[keep]
    cols = coo.col[keep]
    data = coo.data[keep]
    cols = np.where(np.isin(cols, success), k, cols)
    out = scipy.sparse.coo_matrix(
        (data, (rows, cols)), shape=(k + 1, k + 1)
    ).tocsr()
    out.sum_duplicates()
    return out


def goal_generator_sparse_function(
    q_of_t: Callable[[float], scipy.sparse.spmatrix], partition: UntilPartition
) -> Callable[[float], scipy.sparse.csr_matrix]:
    """Time-dependent version of :func:`goal_generator_sparse`."""

    def modified(t: float) -> scipy.sparse.csr_matrix:
        return goal_generator_sparse(q_of_t(t), partition)

    return modified


def goal_generator_literal(
    q: np.ndarray, partition: UntilPartition
) -> np.ndarray:
    """The paper's *literal* Section IV-C construction.

    "All Γ1 and Γ2 states are made absorbing and all transitions leading
    to Γ2 states are readdressed to the new state s*" — i.e. unlike the
    corrected construction of :func:`goal_generator`, the *fail* states
    (``¬Γ1 ∧ ¬Γ2``) keep their transitions and the *live* states are
    frozen.  This reproduces the intermediate matrices printed in the
    paper's worked example (where ``Γ1 ⊆ Γ2``, so no live state exists
    and the difference is invisible in the final probabilities, which
    Equation (4) restricts to ``Γ1`` starts anyway).  Exposed for the
    reproduction benches; the checker uses the corrected construction.
    """
    q = np.asarray(q, dtype=float)
    k = partition.num_states
    out = np.zeros((k + 1, k + 1))
    goal = k
    for s in partition.fail:
        out[s, :k] = q[s, :]
        redirected = 0.0
        for s2 in partition.success:
            redirected += out[s, s2]
            out[s, s2] = 0.0
        out[s, goal] = redirected
    return out


def zeta_matrix_literal(num_states: int) -> np.ndarray:
    """The paper's literal ``ζ``: zero everywhere except ``(s*, s*)``.

    This is exactly the matrix printed for the worked example
    (``ζ(T1)_{s*,s*} = 1``, all other entries zero).
    """
    zeta = np.zeros((num_states + 1, num_states + 1))
    zeta[num_states, num_states] = 1.0
    return zeta


def zeta_matrix(
    before: UntilPartition, after: UntilPartition
) -> np.ndarray:
    """Carry-over matrix ``ζ(T_i)`` between two partitions.

    See the module docstring for the transfer rules; the matrix is
    ``(K+1, K+1)`` with the goal state always kept.
    """
    if before.num_states != after.num_states:
        raise CheckingError("partitions have different state counts")
    k = before.num_states
    zeta = np.zeros((k + 1, k + 1))
    goal = k
    zeta[goal, goal] = 1.0
    for s in before.live:
        if s in after.success:
            zeta[s, goal] = 1.0
        elif s in after.live:
            zeta[s, s] = 1.0
        # live -> fail: the path dies; row stays zero.
    # success-before and fail-before rows stay zero: initial success mass
    # is accounted for by the indicator term of Equation (10), and fail
    # mass belongs to dead paths.
    return zeta


def survival_zeta(
    num_states: int, live_before: FrozenSet[int], live_after: FrozenSet[int]
) -> np.ndarray:
    """Carry-over matrix for the phase-one (stay-in-``Γ1``) computation.

    Mass survives a discontinuity only in states that are live on both
    sides.
    """
    zeta = np.zeros((num_states, num_states))
    for s in live_before & live_after:
        zeta[s, s] = 1.0
    return zeta
