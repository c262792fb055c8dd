"""Mean-field modelling layer.

Implements Definitions 1–2 and Equations (1)–(2) of the paper:

- :class:`repro.meanfield.local_model.LocalModel` — the K-state local CTMC
  with occupancy-dependent rates and a labelling function
  (Definition 1), plus a fluent builder;
- :class:`repro.meanfield.overall_model.MeanFieldModel` — the overall
  model: the occupancy simplex, the mean-field drift
  ``dm̄/dt = m̄ · Q(m̄)`` and trajectory integration (Theorem 1 /
  Equation (1));
- :class:`repro.meanfield.ode.OccupancyTrajectory` — dense, lazily
  extendable solutions of the occupancy ODE;
- :mod:`repro.meanfield.stationary` — stationary points
  ``m̃ · Q(m̃) = 0`` of the fluid limit (Equation (2)) with stability
  classification;
- :mod:`repro.meanfield.simulation` — exact finite-N stochastic simulation
  (the pre-limit system), used to validate the mean-field approximation
  (Kurtz convergence) and as the substrate of the statistical checker;
- :mod:`repro.meanfield.discrete` — the discrete-time mean-field variant
  mentioned at the end of Section II-B.
"""

from repro.meanfield.compiled import CompiledGenerator
from repro.meanfield.local_model import LocalModel, LocalModelBuilder, Transition
from repro.meanfield.ode import OccupancyTrajectory
from repro.meanfield.overall_model import MeanFieldModel, validate_occupancy
from repro.meanfield.stationary import (
    FixedPoint,
    find_fixed_point,
    find_fixed_points,
    stationary_from_long_run,
)
from repro.meanfield.simulation import (
    EmpiricalTrajectory,
    FiniteNSimulator,
    occupancy_rmse,
)
from repro.meanfield.discrete import DiscreteLocalModel, DiscreteMeanFieldModel

__all__ = [
    "CompiledGenerator",
    "LocalModel",
    "LocalModelBuilder",
    "Transition",
    "OccupancyTrajectory",
    "MeanFieldModel",
    "validate_occupancy",
    "FixedPoint",
    "find_fixed_point",
    "find_fixed_points",
    "stationary_from_long_run",
    "EmpiricalTrajectory",
    "FiniteNSimulator",
    "occupancy_rmse",
    "DiscreteLocalModel",
    "DiscreteMeanFieldModel",
]
