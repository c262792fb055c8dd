"""Stationary points of the mean-field ODE — Equation (2).

The stationary distribution ``m̃`` of the overall model, when it exists,
solves ``m̃ · Q(m̃) = 0`` on the occupancy simplex.  The paper uses it for
the (MF-)CSL steady-state operators (Sections IV-D and V-A) and warns that
the fluid-limit fixed point only approximates the stationary regime for
well-behaved models (Le Boudec [17]); we expose a stability classification
so callers can at least detect the obviously ill-behaved cases.

Two routes are implemented:

- :func:`find_fixed_point` / :func:`find_fixed_points` — Newton-type root
  finding of the algebraic system with multi-start deduplication;
- :func:`stationary_from_long_run` — brute-force integration of
  Equation (1) until the drift is negligible; slower but follows exactly
  the trajectory semantics, so it is a good independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.optimize import root

from repro.diagnostics import check_occupancy_residual, robust_solve_ivp
from repro.exceptions import NumericalError, SteadyStateError
from repro.meanfield.ode import renormalize
from repro.meanfield.overall_model import MeanFieldModel, validate_occupancy
from repro.resilience import check_limit

#: Residual norm below which a candidate counts as a fixed point.
RESIDUAL_TOL = 1e-9
#: Distance under which two fixed-point candidates are considered equal.
DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class FixedPoint:
    """A stationary point of the mean-field ODE.

    Attributes
    ----------
    occupancy:
        The stationary occupancy vector ``m̃``.
    residual:
        Norm of ``m̃ Q(m̃)`` at the solution.
    stable:
        ``True``/``False`` from the linearization on the simplex tangent
        space, or ``None`` if the test was inconclusive (eigenvalue with
        real part within tolerance of zero).
    """

    occupancy: np.ndarray
    residual: float
    stable: Optional[bool]


def _drift(model: MeanFieldModel, m: np.ndarray) -> np.ndarray:
    # Root finders and finite-difference probes may step marginally outside
    # the non-negative orthant, where user rate functions (e.g. m3/m1) can
    # return nonsense; evaluate the generator at the clipped point instead.
    m = np.asarray(m, dtype=float)
    safe = np.clip(m, 0.0, None)
    return m @ model.local.generator(safe, 0.0)


def _numerical_jacobian(
    model: MeanFieldModel, m: np.ndarray, eps: float = 1e-7
) -> np.ndarray:
    """Central-difference Jacobian ``J[i, j] = d drift_i / d m_j``.

    Falls back to a one-sided difference when the downward probe would
    leave the non-negative orthant (rate functions like ``m3 / m1`` are
    only defined on the simplex boundary from the inside).
    """
    k = m.size
    jac = np.zeros((k, k))
    for j in range(k):
        up = m.copy()
        up[j] += eps
        if m[j] >= eps:
            down = m.copy()
            down[j] -= eps
            jac[:, j] = (_drift(model, up) - _drift(model, down)) / (2.0 * eps)
        else:
            jac[:, j] = (_drift(model, up) - _drift(model, m)) / eps
    return jac


def classify_stability(
    model: MeanFieldModel, m: np.ndarray, tol: float = 1e-7
) -> Optional[bool]:
    """Linear stability of a fixed point on the simplex tangent space.

    The drift preserves the total mass, so its Jacobian maps the tangent
    space ``{v : sum(v) = 0}`` into itself; the fixed point is
    asymptotically stable iff all eigenvalues of the restricted Jacobian
    have negative real part.  Returns ``None`` when an eigenvalue's real
    part lies within ``tol`` of zero (marginal case).
    """
    m = np.asarray(m, dtype=float)
    k = m.size
    if k == 1:
        return True
    jac = _numerical_jacobian(model, m)
    # Orthonormal basis of the sum-zero subspace: the last k-1 columns of
    # the Householder reflection mapping e = (1,...,1)/sqrt(k) to e1.
    ones = np.full(k, 1.0 / np.sqrt(k))
    basis, _ = np.linalg.qr(np.column_stack([ones, np.eye(k)[:, : k - 1]]))
    tangent = basis[:, 1:]
    reduced = tangent.T @ jac @ tangent
    real_parts = np.linalg.eigvals(reduced).real
    if np.all(real_parts < -tol):
        return True
    if np.any(real_parts > tol):
        return False
    return None


def find_fixed_point(
    model: MeanFieldModel,
    initial_guess: np.ndarray,
    residual_tol: float = RESIDUAL_TOL,
) -> FixedPoint:
    """Solve ``m̃ Q(m̃) = 0`` starting from one guess on the simplex.

    The simplex constraint is enforced by replacing the last drift
    component with the normalization condition ``sum(m) − 1``; negative
    solutions are rejected.

    Raises
    ------
    SteadyStateError
        If the root finder does not converge to a valid occupancy vector.
    """
    guess = validate_occupancy(initial_guess, model.num_states)

    def system(m: np.ndarray) -> np.ndarray:
        residual = _drift(model, m)
        out = residual.copy()
        out[-1] = m.sum() - 1.0
        return out

    result = root(system, guess, method="hybr", tol=1e-12)
    candidate = result.x
    if np.any(candidate < -1e-8) or np.any(~np.isfinite(candidate)):
        raise SteadyStateError(
            f"fixed-point search left the simplex: {candidate}"
        )
    candidate = np.clip(candidate, 0.0, None)
    total = candidate.sum()
    if total <= 0:
        raise SteadyStateError("fixed-point search collapsed to zero mass")
    candidate = candidate / total
    residual = float(np.linalg.norm(_drift(model, candidate)))
    if residual > residual_tol:
        raise SteadyStateError(
            f"no fixed point found from guess {guess} (residual {residual})"
        )
    return FixedPoint(
        occupancy=candidate,
        residual=residual,
        stable=classify_stability(model, candidate),
    )


def find_fixed_points(
    model: MeanFieldModel,
    num_starts: int = 32,
    seed: int = 0,
    residual_tol: float = RESIDUAL_TOL,
) -> List[FixedPoint]:
    """Multi-start fixed-point search with deduplication.

    Starts from the barycentre, every vertex of the simplex, and
    ``num_starts`` Dirichlet-random interior points; distinct solutions
    (pairwise distance above ``DEDUP_TOL``) are returned sorted by their
    first component for reproducibility.
    """
    k = model.num_states
    rng = np.random.default_rng(seed)
    guesses = [np.full(k, 1.0 / k)]
    for i in range(k):
        vertex = np.full(k, 1e-3 / max(1, k - 1))
        vertex[i] = 1.0 - 1e-3
        guesses.append(vertex / vertex.sum())
    for _ in range(num_starts):
        guesses.append(rng.dirichlet(np.ones(k)))

    found: List[FixedPoint] = []
    for guess in guesses:
        try:
            fp = find_fixed_point(model, guess, residual_tol=residual_tol)
        except SteadyStateError:
            continue
        if all(
            np.linalg.norm(fp.occupancy - other.occupancy) > DEDUP_TOL
            for other in found
        ):
            found.append(fp)
    found.sort(key=lambda fp: tuple(fp.occupancy))
    return found


def stationary_from_long_run(
    model: MeanFieldModel,
    initial: np.ndarray,
    horizon: float = 1e3,
    drift_tol: float = 1e-8,
    max_horizon: float = 1e6,
    rtol: float = 1e-7,
    atol: float = 1e-10,
    trace=None,
    budget=None,
    stats=None,
) -> np.ndarray:
    """Approximate ``m̃`` by integrating Equation (1) until the drift dies.

    Doubles the integration horizon until ``|m̄ Q(m̄)| < drift_tol`` or
    ``max_horizon`` is exceeded (then :class:`SteadyStateError` is raised —
    e.g. for models with oscillatory fluid limits, for which the paper's
    steady-state operators are not meaningful).

    Uses the stiff-capable LSODA integrator at moderate tolerance: callers
    that need full precision polish the result with
    :func:`find_fixed_point` (as :meth:`EvaluationContext.steady_state`
    does), so chasing tight ODE tolerances over huge horizons would be
    wasted work.  A ``budget`` (:class:`~repro.resilience.Budget`) is
    charged by every solve attempt and checked during it, so a
    deadline ends a long run that has not settled.  ``stats`` (an
    :class:`~repro.instrumentation.EvalStats`) counts each doubling's
    solve into ``solve_ivp_calls`` and its drift calls into
    ``rhs_evaluations``.

    ``horizon`` and ``max_horizon`` must be positive and finite
    (:class:`~repro.exceptions.ModelError` otherwise): a zero horizon
    never doubles, so the run would never end.
    """
    check_limit("horizon", horizon)
    check_limit("max_horizon", max_horizon)
    y = np.asarray(initial, dtype=float)
    solved = 0.0
    t = min(horizon, max_horizon)
    while True:
        if t > solved:
            # Only the end state is read, so no dense output; the next
            # doubling continues from the raw (unrenormalized) end state.
            if stats is not None:
                stats.solve_ivp_calls += 1
            try:
                sol = robust_solve_ivp(
                    model.drift,
                    (solved, t),
                    y,
                    method="LSODA",
                    rtol=rtol,
                    atol=atol,
                    # LSODA already switches stiffness regimes internally;
                    # fall back to the implicit Radau scheme if it still
                    # gives up.
                    fallbacks=("Radau",),
                    label="occupancy ODE",
                    trace=trace,
                    budget=budget,
                    stats=stats,
                )
            except NumericalError as exc:
                raise NumericalError(
                    f"occupancy ODE solve failed on [{solved}, {t}]: {exc}"
                ) from exc
            y = sol.y[:, -1].copy()
            check_occupancy_residual(
                y, label=f"occupancy endpoint t={t:g}", trace=trace
            )
            solved = t
        m = renormalize(y)
        residual = float(np.linalg.norm(_drift(model, m)))
        if residual < drift_tol:
            if trace is not None:
                trace.note(
                    f"long-run integration settled at t={t:g} "
                    f"(drift residual {residual:.2e})"
                )
            return m
        if t >= max_horizon:
            if trace is not None:
                trace.note(
                    f"long-run integration did NOT settle by t={t:g} "
                    f"(drift residual {residual:.2e})"
                )
            raise SteadyStateError(
                f"drift still {residual} at t={t}; "
                "the fluid limit may not settle to a point"
            )
        t = min(t * 2.0, max_horizon)
