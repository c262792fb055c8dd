"""A virus model with explicitly time-dependent rates (footnote 4).

The paper restricts its notation to rates depending on the overall state
``m̄`` but notes that "our approach can easily be extended to models that
explicitly depend on global time and the proposed algorithms can handle
both cases".  This model exercises that code path end to end: a
computer fleet where user behaviour follows a diurnal cycle —

- the *attack* surface oscillates (machines are online during the day):
  the infection rate carries a factor ``1 + amplitude·sin(2πt/period)``;
- the *helpdesk* only works during the day: the recovery rate carries
  the same day factor.

Both ingredients go through the same ``rate(m, t)`` protocol as
occupancy dependence, so every checker works unchanged; the tests verify
that the checkers see genuinely different answers at different phases of
the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.meanfield.local_model import LocalModelBuilder
from repro.meanfield.overall_model import MeanFieldModel


@dataclass(frozen=True)
class DiurnalParameters:
    """Baseline rates plus the diurnal modulation."""

    infect: float = 0.4  # baseline infection rate factor
    recover: float = 0.3  # baseline helpdesk recovery rate
    relapse: float = 0.05  # cleaned machines re-compromised from backups
    period: float = 8.0  # length of one day (model time units)
    amplitude: float = 0.9  # modulation depth in [0, 1)

    def __post_init__(self) -> None:
        for name in ("infect", "recover", "relapse", "period"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ModelError(f"{name} must be finite and >= 0, got {value}")
        if self.period <= 0:
            raise ModelError(f"period must be positive, got {self.period}")
        if not 0 <= self.amplitude < 1:
            raise ModelError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )


def day_factor(params: DiurnalParameters, t: float) -> float:
    """The daytime activity factor ``1 + a·sin(2πt/period)`` (>= 1-a > 0)."""
    return 1.0 + params.amplitude * np.sin(2.0 * np.pi * t / params.period)


def diurnal_virus_model(
    params: DiurnalParameters = DiurnalParameters(),
) -> MeanFieldModel:
    """Two-state (clean/infected) model with day/night rate modulation.

    Infection combines occupancy dependence (proportional to the infected
    fraction) with explicit time dependence (the day factor), exercising
    the full ``rate(m, t)`` generality of Definition 1 + footnote 4.
    """
    p = params

    def infection(m: np.ndarray, t: float) -> float:
        return p.infect * m[1] * day_factor(p, t) + p.relapse

    def recovery(m: np.ndarray, t: float) -> float:
        return p.recover * day_factor(p, t)

    builder = (
        LocalModelBuilder()
        .state("clean", "clean", "healthy")
        .state("infected", "infected")
        .transition("clean", "infected", infection)
        .transition("infected", "clean", recovery)
    )
    return MeanFieldModel(builder.build())
