"""Kolmogorov-equation solvers for time-inhomogeneous CTMCs.

This module is the numerical heart of the paper's algorithms.  A
time-inhomogeneous CTMC is described by a *generator function*
``q_of_t(t) -> Q`` returning the ``(K, K)`` generator in force at global
time ``t`` (for a mean-field local model this is ``Q(m̄(t))``, with
``m̄(t)`` the solution of the occupancy ODE).

Three solvers are provided:

- :func:`solve_forward_kolmogorov` — Equation (5):
  ``dPi(t', t'+T)/dT = Pi(t', t'+T) · Q(t'+T)`` with ``Pi(t', t') = I``.
  Yields the transient/reachability matrix for one starting time ``t'``.

- :func:`solve_backward_kolmogorov` — the adjoint equation
  ``dPi(t, t_end)/dt = −Q(t) · Pi(t, t_end)`` integrated backwards from
  ``Pi(t_end, t_end) = I``; used for cross-validation (both must give the
  same matrix).

- :class:`TransitionMatrixPropagator` — Equations (6)/(12): the
  *window-shift* ODE
  ``dPi(t, t+T)/dt = −Q(t) · Pi(t, t+T) + Pi(t, t+T) · Q(t+T)``
  which moves a fixed-length window ``[t, t+T]`` through global time.
  This is how the paper evaluates a CSL until formula "at a later moment in
  time" without re-solving the forward equation from scratch for every
  evaluation time.

All solvers use :func:`scipy.integrate.solve_ivp` with dense output so
results are smooth callables, and a fixed-step RK4 fallback lives in
:func:`rk4_matrix_ode` for independent verification.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from repro.diagnostics import (
    DEFAULT_FALLBACKS,
    DEFAULT_RESIDUAL_TOL,
    DiagnosticTrace,
    check_transient_residual,
    robust_solve_ivp,
)
from repro.exceptions import HorizonError, ModelError
from repro.resilience import Budget

GeneratorFunction = Callable[[float], np.ndarray]

#: Default relative/absolute tolerances for every ODE solve in this module.
DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10


def solve_forward_kolmogorov(
    q_of_t: GeneratorFunction,
    t_start: float,
    duration: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    dense: bool = False,
    method: str = "RK45",
    fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
    trace: Optional[DiagnosticTrace] = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    monotone_columns: "Optional[Sequence[int]]" = None,
    budget: Optional[Budget] = None,
):
    """Transient matrix ``Pi(t_start, t_start + duration)`` — Equation (5).

    Parameters
    ----------
    q_of_t:
        Generator function of global time.
    t_start:
        Global time at which the chain is observed (``t'`` in the paper).
    duration:
        Window length ``T``; must be non-negative.
    dense:
        When ``True``, return a callable ``pi(T)`` valid for every
        ``T in [0, duration]`` (dense ODE output) instead of only the final
        matrix.  The callable raises :class:`HorizonError` outside that
        range.
    method:
        Any ``solve_ivp`` method name.
    fallbacks:
        Stiff methods retried with tightened ``atol`` when ``method``
        fails (see :func:`repro.diagnostics.robust_solve_ivp`).
    trace:
        Optional diagnostic trace recording attempts and residuals.
    monotone_columns:
        Column indices of absorbing states.  When given, the mass in
        those columns must be non-decreasing along the solve (the
        reachability-CDF invariant of Equations (5)/(7)); violations are
        recorded in ``trace`` as residual warnings.

    Returns
    -------
    numpy.ndarray or callable
        ``(K, K)`` transient probability matrix, or the dense callable.
    """
    duration = float(duration)
    if duration < 0.0:
        raise ModelError(f"duration must be non-negative, got {duration}")
    q0 = np.asarray(q_of_t(t_start), dtype=float)
    k = q0.shape[0]
    if budget is not None and duration > 0.0:
        # The flattened (K, K) state plus the RK stage stack — large
        # dense chains must fail fast here instead of thrashing (the
        # sparse backend exists for them; docs/performance.md §8).
        budget.check_memory(k * k * 8 * 8, "dense Kolmogorov solve")
    if duration == 0.0:
        if dense:
            return lambda T: _check_window(T, 0.0) or np.eye(k)
        return np.eye(k)
    # Each right-hand side takes and returns solve_ivp's flat state, the
    # ``(K, K)`` matrix in row-major order.
    def rhs(rel_t: float, y: np.ndarray) -> np.ndarray:
        q = np.asarray(q_of_t(t_start + rel_t), dtype=float)
        return (y.reshape(k, k) @ q).reshape(-1)

    sol = robust_solve_ivp(
        rhs,
        (0.0, duration),
        np.eye(k).reshape(-1),
        method=method,
        rtol=rtol,
        atol=atol,
        dense_output=dense,
        fallbacks=fallbacks,
        label="forward Kolmogorov",
        trace=trace,
        budget=budget,
    )
    monotone_trajectory = None
    if monotone_columns is not None and len(monotone_columns) > 0:
        # Absorbed mass per starting state at every accepted solver step.
        steps = sol.y.T.reshape(-1, k, k)
        monotone_trajectory = steps[:, :, list(monotone_columns)].sum(axis=2)
    check_transient_residual(
        sol.y[:, -1].reshape(k, k),
        label=f"Pi({t_start:g}, {t_start + duration:g})",
        tol=residual_tol,
        monotone_trajectory=monotone_trajectory,
        trace=trace,
    )
    if dense:
        dense_sol = sol.sol

        def pi_at(T: float) -> np.ndarray:
            _check_window(T, duration)
            return dense_sol(float(T)).reshape(k, k)

        return pi_at
    return sol.y[:, -1].reshape(k, k)


def _check_window(T: float, duration: float) -> None:
    if not (-1e-12 <= float(T) <= duration + 1e-9):
        raise HorizonError(
            f"window offset {T} outside solved range [0, {duration}]"
        )


def solve_backward_kolmogorov(
    q_of_t: GeneratorFunction,
    t_start: float,
    t_end: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    method: str = "RK45",
    fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
    trace: Optional[DiagnosticTrace] = None,
    budget: Optional[Budget] = None,
) -> np.ndarray:
    """``Pi(t_start, t_end)`` via the backward equation.

    Integrates ``dPi(t, t_end)/dt = −Q(t) Pi(t, t_end)`` from ``t = t_end``
    (identity) down to ``t = t_start``.  Mathematically identical to the
    forward solution; used as an independent consistency check.
    """
    t_start, t_end = float(t_start), float(t_end)
    if t_end < t_start:
        raise ModelError(f"t_end {t_end} must be >= t_start {t_start}")
    q0 = np.asarray(q_of_t(t_start), dtype=float)
    k = q0.shape[0]
    if t_end == t_start:
        return np.eye(k)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        q = np.asarray(q_of_t(t), dtype=float)
        return (-q @ y.reshape(k, k)).reshape(-1)

    sol = robust_solve_ivp(
        rhs,
        (t_end, t_start),
        np.eye(k).reshape(-1),
        method=method,
        rtol=rtol,
        atol=atol,
        fallbacks=fallbacks,
        label="backward Kolmogorov",
        trace=trace,
        budget=budget,
    )
    return sol.y[:, -1].reshape(k, k)


def solve_forward_stepwise(
    q_of_t: GeneratorFunction,
    t_start: float,
    duration: float,
    steps: int = 200,
) -> np.ndarray:
    """Product-integral approximation of the forward equation.

    Approximates ``Pi(t', t'+T)`` by the ordered product of per-step matrix
    exponentials with the generator frozen at each step's midpoint:
    ``prod_i expm(Q(t_i + dt/2) · dt)``.  Second-order accurate; this is an
    entirely independent numerical route used by tests and the integrator
    ablation bench.
    """
    duration = float(duration)
    if duration < 0.0:
        raise ModelError(f"duration must be non-negative, got {duration}")
    if steps <= 0:
        raise ModelError(f"steps must be positive, got {steps}")
    k = np.asarray(q_of_t(t_start), dtype=float).shape[0]
    pi = np.eye(k)
    dt = duration / steps
    for i in range(steps):
        mid = t_start + (i + 0.5) * dt
        pi = pi @ expm(np.asarray(q_of_t(mid), dtype=float) * dt)
    return pi


def rk4_matrix_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_start: float,
    t_end: float,
    steps: int = 400,
) -> np.ndarray:
    """Classic fixed-step RK4 for a matrix-valued ODE.

    A deliberately simple, dependency-free integrator used to cross-check
    the scipy solutions in tests and the A6 ablation bench.
    """
    if steps <= 0:
        raise ModelError(f"steps must be positive, got {steps}")
    y = np.array(y0, dtype=float, copy=True)
    h = (float(t_end) - float(t_start)) / steps
    t = float(t_start)
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
        k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


class TransitionMatrixPropagator:
    """Propagate ``Pi(t, t+T)`` through evaluation time — Equations (6)/(12).

    Given the window length ``T``, an initial matrix ``Pi(t0, t0+T)``
    (typically from :func:`solve_forward_kolmogorov`) and the generator
    function, this class integrates the coupled forward/backward equation

    .. math::

        \\frac{d\\Pi(t, t+T)}{dt}
        = -Q(t)\\,\\Pi(t, t+T) + \\Pi(t, t+T)\\,Q(t+T)

    over ``t in [t0, horizon]`` with dense output, so that the reachability
    matrix for *any* evaluation time in the range is available in O(1)
    after a single solve.  This is exactly how the paper turns a CSL until
    probability into a function of the evaluation time (Figure 3).

    Parameters
    ----------
    q_of_t:
        Generator function of global time.  For the nested-until algorithm
        the caller passes the generator of the *modified* chain.
    window:
        The fixed window length ``T >= 0``.
    t0:
        Evaluation time at which ``initial`` holds.
    horizon:
        Largest evaluation time of interest (``theta`` in the paper).
    initial:
        ``Pi(t0, t0+T)``; computed via the forward equation when omitted.
    fallbacks:
        Stiff methods retried when the primary solve fails.
    trace:
        Optional diagnostic trace shared with the owning context.
    """

    def __init__(
        self,
        q_of_t: GeneratorFunction,
        window: float,
        t0: float,
        horizon: float,
        initial: Optional[np.ndarray] = None,
        rtol: float = DEFAULT_RTOL,
        atol: float = DEFAULT_ATOL,
        fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
        trace: Optional[DiagnosticTrace] = None,
        budget: Optional[Budget] = None,
    ):
        self._fallbacks = tuple(fallbacks)
        self._trace = trace
        self._budget = budget
        self.q_of_t = q_of_t
        self.window = float(window)
        self.t0 = float(t0)
        self.horizon = float(horizon)
        if self.window < 0.0:
            raise ModelError(f"window must be non-negative, got {self.window}")
        if self.horizon < self.t0:
            raise ModelError(
                f"horizon {self.horizon} must be >= starting time {self.t0}"
            )
        if initial is None:
            initial = solve_forward_kolmogorov(
                q_of_t, self.t0, self.window, rtol=rtol, atol=atol,
                fallbacks=self._fallbacks, trace=self._trace,
                budget=self._budget,
            )
        self.initial = np.asarray(initial, dtype=float)
        self._k = self.initial.shape[0]
        self._rtol = rtol
        self._atol = atol
        self._solution = None
        if self.horizon > self.t0:
            if self._budget is not None:
                # Dense output keeps an interpolant segment per accepted
                # step; bound the per-step footprint (state + stages).
                self._budget.check_memory(
                    self._k * self._k * 8 * 8, "window-shift ODE solve"
                )
            self._solution = self._solve()

    def _solve(self):
        k = self._k
        T = self.window
        q_of_t = self.q_of_t

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            pi = y.reshape(k, k)
            q_left = np.asarray(q_of_t(t), dtype=float)
            q_right = np.asarray(q_of_t(t + T), dtype=float)
            return (-q_left @ pi + pi @ q_right).reshape(-1)

        sol = robust_solve_ivp(
            rhs,
            (self.t0, self.horizon),
            self.initial.reshape(-1),
            method="RK45",
            rtol=self._rtol,
            atol=self._atol,
            dense_output=True,
            fallbacks=self._fallbacks,
            label="window-shift ODE",
            trace=self._trace,
            budget=self._budget,
        )
        return sol.sol

    def __call__(self, t: float) -> np.ndarray:
        """Return ``Pi(t, t + window)`` for ``t in [t0, horizon]``."""
        t = float(t)
        if not (self.t0 - 1e-9 <= t <= self.horizon + 1e-9):
            raise HorizonError(
                f"evaluation time {t} outside solved range "
                f"[{self.t0}, {self.horizon}]"
            )
        if self._solution is None or t <= self.t0:
            return self.initial.copy()
        t = min(t, self.horizon)
        return self._solution(t).reshape(self._k, self._k)
