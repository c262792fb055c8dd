"""A truncated, effectively-unbounded population process.

Stochastic population models (birth–death chains, chemical kinetics)
live on the unbounded count space ``{0, 1, 2, ...}``; model checking
them numerically means *truncating* at a capacity ``C`` chosen so the
probability mass ever reaching the boundary is negligible (the
state-space truncation approach of Spieler et al.'s work on
model-checking population processes).  The local state here is the
population count ``0 .. C``, so ``K = C + 1`` — in the thousands for
realistic loads, which is the regime the sparse matrix backend targets
(``CheckOptions.matrix_backend``; docs/performance.md, "Backend
selection").

Dynamics (mean-field, nonlinear through the mean load):

- **birth** ``j -> j+1`` at rate ``λ · max(0, 1 − crowding · L(m̄))``
  where ``L(m̄) = Σ_j (j/C) · m̄_j`` is the mean normalized load —
  logistic crowding felt through the *population average*, the
  mean-field coupling;
- **death** ``j -> j-1`` at rate ``j · μ`` — constant per level, so the
  whole death ladder lands in the compiled generator's constant part.

With ``crowding = 0`` the uncoupled chain is an M/M/∞ queue whose
stationary law is Poisson(``ρ = λ/μ``); :func:`choose_capacity`
exploits that to pick ``C`` with Poisson tail mass below ``epsilon``
(the same log-domain bound the uniformization kernels use for their
series truncation).  Crowding only *reduces* birth rates, so the
Poisson envelope stays a conservative capacity bound.

:func:`truncation_boundary_mass` is the a-posteriori diagnostic: the
occupancy sitting in the top state.  If it is not ≪ 1, the capacity was
too small and every downstream probability inherits the truncation
error.

The generator is tridiagonal — structural density ``≈ 3/K`` — and all
rates are either constants or one shared size-1 rate family
(:class:`~repro.meanfield.rates.RateFamily`), so both CSR assembly and
the batched engines stay O(K) per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ctmc.transient import poisson_truncation_point
from repro.exceptions import ModelError
from repro.meanfield.local_model import LocalModelBuilder
from repro.meanfield.overall_model import MeanFieldModel
from repro.meanfield.rates import RateFamily


def choose_capacity(lam: float, mu: float, epsilon: float = 1e-9) -> int:
    """Smallest count ``C`` with Poisson(``λ/μ``) tail mass below ``epsilon``.

    The uncrowded stationary law is Poisson(``ρ``); truncating at its
    ``1 − epsilon`` quantile keeps the boundary effectively unreachable
    from any initial condition the equilibrium can support.
    """
    if mu <= 0:
        raise ModelError(f"mu must be > 0, got {mu}")
    return int(poisson_truncation_point(lam / mu, epsilon))


@dataclass(frozen=True)
class PopulationParameters:
    """Birth rate ``lam``, per-head death rate ``mu``, crowding, capacity.

    ``capacity=None`` defers to :func:`choose_capacity` at model-build
    time (``epsilon`` is the tolerated Poisson tail mass).  The default
    load ``ρ = 800`` yields ``K ≈ 1000`` local states.
    """

    lam: float = 800.0
    mu: float = 1.0
    crowding: float = 0.25
    capacity: Optional[int] = None
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ModelError(f"lam must be finite and > 0, got {self.lam}")
        if not np.isfinite(self.mu) or self.mu <= 0:
            raise ModelError(f"mu must be finite and > 0, got {self.mu}")
        if not np.isfinite(self.crowding) or self.crowding < 0:
            raise ModelError(
                f"crowding must be finite and >= 0, got {self.crowding}"
            )
        if self.capacity is not None and self.capacity < 2:
            raise ModelError(f"capacity must be >= 2, got {self.capacity}")
        if not (0.0 < self.epsilon < 1.0):
            raise ModelError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )

    @property
    def rho(self) -> float:
        """Uncrowded equilibrium mean ``λ/μ``."""
        return self.lam / self.mu

    def resolved_capacity(self) -> int:
        """``capacity`` if set, else :func:`choose_capacity`."""
        if self.capacity is not None:
            return self.capacity
        return max(2, choose_capacity(self.lam, self.mu, self.epsilon))


def population_model(
    params: PopulationParameters = PopulationParameters(),
) -> MeanFieldModel:
    """The truncated population process as a mean-field model.

    State ``n<j>`` carries ``extinct`` (j = 0), ``scarce`` (below half
    the uncrowded mean), ``abundant`` (above it) and ``boundary`` (the
    truncation level — its occupancy is the truncation diagnostic).
    """
    p = params
    capacity = p.resolved_capacity()
    k_states = capacity + 1
    weights = np.arange(k_states, dtype=float) / capacity

    # One size-1 rate family shared by every birth transition: the rate
    # depends on the occupancy only through the mean load, not on the
    # level, so the compiled generator evaluates it once per assembly.
    def birth_rate(m: np.ndarray) -> np.ndarray:
        load = np.sum(np.asarray(m) * weights, axis=-1)
        return p.lam * np.maximum(0.0, 1.0 - p.crowding * load)[..., None]

    birth = RateFamily(birth_rate, 1)[0]

    builder = LocalModelBuilder()
    half_mean = 0.5 * p.rho
    for j in range(k_states):
        labels = []
        if j == 0:
            labels.append("extinct")
        if j < half_mean:
            labels.append("scarce")
        else:
            labels.append("abundant")
        if j == capacity:
            labels.append("boundary")
        builder.state(f"n{j}", *labels)
    for j in range(capacity):
        builder.transition(f"n{j}", f"n{j + 1}", birth)
        builder.transition(f"n{j + 1}", f"n{j}", (j + 1) * p.mu)
    return MeanFieldModel(builder.build())


def poisson_occupancy(
    params: PopulationParameters = PopulationParameters(),
) -> np.ndarray:
    """Truncated, renormalized Poisson(``ρ``) pmf — a natural start state.

    Computed in the log domain so deep capacities do not underflow.
    """
    capacity = params.resolved_capacity()
    j = np.arange(capacity + 1, dtype=float)
    from scipy.special import gammaln

    log_pmf = j * np.log(params.rho) - params.rho - gammaln(j + 1.0)
    pmf = np.exp(log_pmf - log_pmf.max())
    return pmf / pmf.sum()


def truncation_boundary_mass(occupancy: np.ndarray) -> float:
    """Occupancy mass at the truncation boundary (top state).

    The a-posteriori truncation-error diagnostic: run the trajectory
    (or look at any transient distribution) and check this stays far
    below the tolerances in play — otherwise the capacity was too
    small and :func:`choose_capacity` needs a smaller ``epsilon``.
    """
    return float(np.asarray(occupancy, dtype=float)[..., -1])
