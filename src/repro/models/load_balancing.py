"""A power-of-d-choices load-balancing pool as a mean-field model.

The supermarket model is the classic mean-field system with a *larger*
local state space: each server's state is its queue length
``0, 1, ..., B`` (truncated at buffer ``B``).  Arriving jobs sample ``d``
servers uniformly and join the shortest queue; in the mean-field limit a
server with queue length ``k`` receives work at rate

.. math::

    λ · \\frac{ s_k^d − s_{k+1}^d }{ m_k },

where ``s_k = Σ_{j >= k} m_j`` is the tail occupancy (fraction of servers
with at least ``k`` jobs).  Services complete at rate ``μ``.

This model stresses the library with ``K = B + 1`` local states and
strongly nonlinear occupancy dependence, and its well-known stationary
tail (``s_k = ρ^{(d^k − 1)/(d − 1)}`` for the infinite-buffer system)
gives an external correctness anchor for the fixed-point solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.meanfield.local_model import LocalModelBuilder
from repro.meanfield.overall_model import MeanFieldModel
from repro.meanfield.rates import RateFamily

_OCC_FLOOR = 1e-12


@dataclass(frozen=True)
class LoadBalancingParameters:
    """Arrival rate ``lam``, service rate ``mu``, choices ``d``, buffer ``B``."""

    lam: float = 0.7
    mu: float = 1.0
    d: int = 2
    buffer: int = 6

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ModelError(f"lam must be finite and >= 0, got {self.lam}")
        if not np.isfinite(self.mu) or self.mu <= 0:
            raise ModelError(f"mu must be finite and > 0, got {self.mu}")
        if self.d < 1:
            raise ModelError(f"d must be >= 1, got {self.d}")
        if self.buffer < 1:
            raise ModelError(f"buffer must be >= 1, got {self.buffer}")

    @property
    def rho(self) -> float:
        """Load ``λ/μ``."""
        return self.lam / self.mu


def load_balancing_model(
    params: LoadBalancingParameters = LoadBalancingParameters(),
) -> MeanFieldModel:
    """Power-of-d supermarket model with ``B + 1`` local states.

    State ``q<k>`` is labelled ``idle`` (k = 0), ``busy`` (k >= 1) and
    ``congested`` (queue at least half the buffer), plus ``full`` at the
    buffer limit.
    """
    p = params
    k_states = p.buffer + 1

    def arrival_rates(m: np.ndarray) -> np.ndarray:
        # The arrival rates of levels 0..B-1 in one call: the tails s_k
        # come from a single reverse cumulative sum (O(K) for all levels
        # together), and ``m[..., ::-1]`` indexing serves scalar (K,) and
        # batched (B, K) occupancies alike.  Summing from the top keeps
        # s_k >= s_{k+1} for non-negative m, so an empty level's rate is
        # exactly 0 rather than a rounding-level negative.
        tails = np.cumsum(m[..., ::-1], axis=-1)[..., ::-1]
        mass = np.maximum(m[..., :-1], _OCC_FLOOR)
        return p.lam * (tails[..., :-1] ** p.d - tails[..., 1:] ** p.d) / mass

    arrivals = RateFamily(arrival_rates, p.buffer)

    builder = LocalModelBuilder()
    for level in range(k_states):
        labels = []
        if level == 0:
            labels.append("idle")
        else:
            labels.append("busy")
        if level >= (p.buffer + 1) // 2:
            labels.append("congested")
        if level == p.buffer:
            labels.append("full")
        builder.state(f"q{level}", *labels)
    for level in range(p.buffer):
        builder.transition(f"q{level}", f"q{level + 1}", arrivals[level])
        builder.transition(f"q{level + 1}", f"q{level}", p.mu)
    return MeanFieldModel(builder.build())


def deep_load_balancing_model(
    buffer: int = 1000,
    lam: float = 0.9,
    mu: float = 1.0,
    d: int = 2,
) -> MeanFieldModel:
    """The supermarket model at benchmark depth (``K = buffer + 1``).

    Same dynamics as :func:`load_balancing_model`, with the buffer in
    the thousands: the local generator is tridiagonal (structural
    density ``≈ 3/K``), which is exactly the regime the sparse matrix
    backend targets (``CheckOptions.matrix_backend``; see
    docs/performance.md, "Backend selection").  A dense ``(K, K)``
    propagator at ``B = 5000`` is 200 MB — the sparse exponent cells
    are a few hundred kilobytes.

    The default load ``λ/μ = 0.9`` keeps meaningful mass across many
    queue levels so transient questions probe genuinely deep states.
    """
    return load_balancing_model(
        LoadBalancingParameters(lam=lam, mu=mu, d=d, buffer=buffer)
    )


def theoretical_tail(params: LoadBalancingParameters, level: int) -> float:
    """Mitzenmacher's stationary tail ``s_k = ρ^{(d^k − 1)/(d − 1)}``.

    Exact for the infinite-buffer supermarket model; for a finite buffer
    it is an upper-bound approximation that the fixed-point tests compare
    against with a tolerance.
    """
    if params.d == 1:
        return params.rho**level
    exponent = (params.d**level - 1) / (params.d - 1)
    return params.rho**exponent
