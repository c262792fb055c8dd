"""The overall mean-field model of Definition 2.

A :class:`MeanFieldModel` wraps a :class:`~repro.meanfield.local_model.LocalModel`
and provides the overall-model view: the occupancy simplex ``S^o``, the
mean-field drift of Theorem 1, trajectory integration, and the
"generator along a trajectory" view that turns the local model into the
time-inhomogeneous CTMC the checkers operate on.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.exceptions import InvalidOccupancyError
from repro.meanfield.compiled import DRIFT_ACTION_MIN_K
from repro.meanfield.local_model import LocalModel
from repro.meanfield.ode import DEFAULT_ATOL, DEFAULT_RTOL, OccupancyTrajectory

#: Tolerance for occupancy-simplex membership checks.
SIMPLEX_ATOL = 1e-6


def validate_occupancy(m: np.ndarray, num_states: int, atol: float = SIMPLEX_ATOL) -> np.ndarray:
    """Validate and return an occupancy vector as a float array.

    Checks length, non-negativity (within ``atol``) and that the entries
    sum to one (within ``atol``), i.e. membership of the simplex ``S^o`` of
    Definition 2.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (num_states,):
        raise InvalidOccupancyError(
            f"occupancy vector must have shape ({num_states},), got {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise InvalidOccupancyError(f"occupancy vector has non-finite entries: {m}")
    if np.any(m < -atol):
        raise InvalidOccupancyError(f"occupancy vector has negative entries: {m}")
    total = float(m.sum())
    if abs(total - 1.0) > atol:
        raise InvalidOccupancyError(
            f"occupancy vector must sum to 1, sums to {total}: {m}"
        )
    m = np.clip(m, 0.0, None)
    return m / m.sum()


class MeanFieldModel:
    """Overall mean-field model ``(S^o, Q)`` built from a local model.

    Parameters
    ----------
    local:
        The local model whose ``N -> infinity`` population this overall
        model describes.
    rtol, atol:
        Default tolerances for occupancy-ODE solves started from this
        model.
    compiled:
        When ``True`` (default) the drift and the generator-along-a-
        trajectory view use the compiled generator assembler
        (:meth:`~repro.meanfield.local_model.LocalModel.compiled_generator`).
        Set ``False`` to force the interpreted per-transition path — the
        correctness oracle the property tests compare against.
    """

    def __init__(
        self,
        local: LocalModel,
        rtol: float = DEFAULT_RTOL,
        atol: float = DEFAULT_ATOL,
        compiled: bool = True,
    ):
        self._local = local
        self._rtol = rtol
        self._atol = atol
        self._use_compiled = bool(compiled)
        # What :meth:`drift` calls, bound on its first call: the dense
        # assembler ``Q(m, t)`` (compiled for small K, the interpreted
        # oracle when ``compiled=False``), or, for large K, the compiled
        # flow-balance drift.
        self._dense_generator = None
        self._flow_drift = None

    @property
    def local(self) -> LocalModel:
        """The underlying local model."""
        return self._local

    @property
    def num_states(self) -> int:
        """Dimension ``K`` of the occupancy vector."""
        return self._local.num_states

    # ------------------------------------------------------------------
    # Dynamics (Theorem 1, Equation (1))
    # ------------------------------------------------------------------

    def drift(self, t: float, m: np.ndarray) -> np.ndarray:
        """Mean-field drift ``m̄ Q(m̄)`` at time ``t``.

        Signature matches scipy's ``solve_ivp`` convention ``f(t, y)``.
        The drift is evaluated at the clipped (non-negative) point: ODE
        steppers probe slightly outside the simplex, where rate functions
        like ``m3/m1`` are meaningless, and occupancy fractions can never
        be negative in the limit system anyway.
        """
        # ``np.clip(m, 0.0, None)`` is this ``np.maximum`` behind a
        # Python wrapper; the drift's bits are pinned (docs/numerics.md).
        m = np.maximum(np.asarray(m, dtype=float), 0.0)
        generator = self._dense_generator
        if generator is None and self._flow_drift is None:
            self._bind_drift()
            generator = self._dense_generator
        if generator is not None:
            return m @ generator(m, t)
        return self._flow_drift(m, t)

    def _bind_drift(self) -> None:
        """Resolve, once per model, how :meth:`drift` evaluates."""
        if not self._use_compiled:
            self._dense_generator = self._local.generator
            return
        compiled = self._local.compiled_generator()
        if compiled.num_states >= DRIFT_ACTION_MIN_K:
            # Large-K models: flow-balance action over transitions, no
            # (K, K) assembly per right-hand-side evaluation.
            self._flow_drift = compiled.drift
        else:
            self._dense_generator = compiled

    def trajectory(
        self,
        initial: np.ndarray,
        horizon: float = 10.0,
        rtol: Optional[float] = None,
        atol: Optional[float] = None,
        stats=None,
        **solver_kwargs,
    ) -> OccupancyTrajectory:
        """Solve Equation (1) from ``initial``, returning a dense trajectory.

        The solve runs to ``horizon`` now (``0`` defers it to the first
        :meth:`~repro.meanfield.ode.OccupancyTrajectory.cover` or read).
        ``stats`` (an :class:`~repro.instrumentation.EvalStats`) makes the
        trajectory count its drift evaluations and ``solve_ivp`` calls.
        Extra keyword arguments (``fallbacks``, ``trace``,
        ``residual_tol``, ``budget``, ``max_horizon``, ``renormalize``,
        ``method``, whose default is DOP853) are forwarded to
        :class:`~repro.meanfield.ode.OccupancyTrajectory`.
        """
        initial = validate_occupancy(initial, self.num_states)
        return OccupancyTrajectory(
            self.drift,
            initial,
            horizon=horizon,
            rtol=self._rtol if rtol is None else rtol,
            atol=self._atol if atol is None else atol,
            stats=stats,
            **solver_kwargs,
        )

    # ------------------------------------------------------------------
    # The induced time-inhomogeneous local CTMC
    # ------------------------------------------------------------------

    def generator_along(
        self, trajectory: OccupancyTrajectory
    ) -> Callable[[float], np.ndarray]:
        """Generator function ``t -> Q(m̄(t))`` along a trajectory.

        This is the "limit local model" of Section II-B: the
        time-inhomogeneous CTMC of a random individual object, whose rates
        follow the deterministic occupancy flow.  The returned callable is
        what the :mod:`repro.ctmc.inhomogeneous` solvers consume.

        Uses the compiled assembler unless the model was built with
        ``compiled=False``.  :class:`~repro.checking.context.EvaluationContext`
        adds memoization on top of this — prefer its
        ``generator_function()`` inside the checkers.
        """
        if self._use_compiled:
            compiled = self._local.compiled_generator()

            def q_of_t(t: float) -> np.ndarray:
                return compiled(trajectory(t), t)

        else:

            def q_of_t(t: float) -> np.ndarray:
                return self._local.generator(trajectory(t), t)

        return q_of_t

    def generator_batch_along(
        self, trajectory: OccupancyTrajectory
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Batched generator function ``ts -> (len(ts), K, K)`` along a trajectory.

        The vectorized path sampler
        (:func:`repro.ctmc.paths.sample_inhomogeneous_paths`) evaluates
        the generators at *all* replicas' candidate times in one call;
        this pairs :meth:`~repro.meanfield.ode.OccupancyTrajectory.eval_many`
        with :meth:`~repro.meanfield.compiled.CompiledGenerator.batch` so
        that call is a handful of numpy kernels.  Models built with
        ``compiled=False`` fall back to stacking scalar assemblies —
        correct, just not fast.
        """
        if self._use_compiled:
            compiled = self._local.compiled_generator()

            def q_batch(ts: np.ndarray) -> np.ndarray:
                ts = np.asarray(ts, dtype=float)
                return compiled.batch(trajectory.eval_many(ts), ts)

        else:

            def q_batch(ts: np.ndarray) -> np.ndarray:
                ts = np.asarray(ts, dtype=float)
                ms = trajectory.eval_many(ts)
                return np.stack(
                    [
                        self._local.generator(ms[i], float(t))
                        for i, t in enumerate(ts)
                    ]
                )

        return q_batch

    def occupancy_of_counts(self, counts: np.ndarray) -> np.ndarray:
        """Normalize a vector of object counts to an occupancy vector.

        For finite ``N`` the occupancy vector takes values in
        ``{0, 1/N, ..., 1}`` (Definition 2); this helper maps raw counts
        from the finite-N simulator onto the simplex.
        """
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise InvalidOccupancyError("counts must sum to a positive number")
        return counts / total

    def __repr__(self) -> str:
        return f"MeanFieldModel(local={self._local!r})"
