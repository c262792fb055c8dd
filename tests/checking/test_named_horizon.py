"""A query solves the occupancy trajectory once, to the horizon it names.

A context builds its trajectory unsolved.  Every caller that knows how
far it will read names that horizon first
(:meth:`~repro.meanfield.ode.OccupancyTrajectory.cover`): the curves
(until windows plus ``HORIZON_MARGIN``), the forward Kolmogorov solves,
the next operator's integrals and the cSat leaf scans.  So a cold paper
query costs one DOP853 solve that ends where the query stops reading,
and every read of it — scalar or on a grid — comes from that one
interpolant.  Each occupancy-ODE solve is one trace record, so the
records are the trajectory's segments.
"""

import math

import numpy as np
import pytest

from repro.checking import MFModelChecker
from repro.models import MODEL_REGISTRY

E2 = "EP[<0.3](not_infected U[0,1] infected)"
F3C = "E[>0.1](P[>0.8](tt U[0,0.5] infected))"
X1_EP = "EP[<0.4](infected U[0,5] not_infected)"
M_E1 = (0.8, 0.15, 0.05)
M_E6 = (0.85, 0.1, 0.05)


def occupancy_solves(ctx):
    """``(t_start, t_end, primary method)`` of every occupancy-ODE solve."""
    return [
        (record.t_start, record.t_end, record.attempts[0].method)
        for record in ctx.trace.solves
        if record.label == "occupancy ODE"
    ]


def fresh_context(model="virus1", occupancy=M_E1):
    checker = MFModelChecker(MODEL_REGISTRY[model]())
    occ = np.array(occupancy)
    return checker, occ, checker.context(occ)


#: ``(model, formula, occupancy, θ, named horizon)``: F3a reads its
#: window-shift curve to θ + 1 + HORIZON_MARGIN, F3c to θ + 0.5 + 1, and
#: X1-EP's one Kolmogorov solve ends at 5.
CASES = (
    ("virus1", E2, M_E1, 20.0, 22.0),
    ("virus2", F3C, M_E6, 15.0, 16.5),
    ("virus1", X1_EP, M_E1, None, 5.0),
)


@pytest.mark.parametrize(
    "model, formula, occupancy, theta, horizon",
    CASES,
    ids=("F3a", "F3c", "X1-EP"),
)
def test_cold_query_solves_once_to_its_horizon(
    model, formula, occupancy, theta, horizon
):
    checker, occ, ctx = fresh_context(model, occupancy)
    assert occupancy_solves(ctx) == []  # built unsolved
    if theta is None:
        checker.check_detailed(formula, occ, ctx=ctx)
    else:
        checker.conditional_sat(formula, occ, theta, ctx=ctx)
    assert occupancy_solves(ctx) == [(0.0, horizon, "DOP853")]
    assert ctx.trajectory.horizon == horizon


def test_unannounced_read_extends_lazily():
    """A read past the end that nobody announced grows the solve to
    ``max(1.25 t, t + 1)``, and the next one past that again."""
    _, _, ctx = fresh_context()
    ctx.occupancy(3.0)
    ctx.occupancy(4.5)
    assert occupancy_solves(ctx) == [
        (0.0, 4.0, "DOP853"),
        (4.0, 5.625, "DOP853"),
    ]


def test_read_a_few_ulps_past_the_end_adds_no_segment():
    """A solver's last stage time ``t + c·h`` can round past the horizon
    it was given; such a read is read at the end."""
    _, _, ctx = fresh_context()
    ctx.trajectory.cover(22.0)
    past = 22.0
    for _ in range(4):
        past = math.nextafter(past, math.inf)
    assert past > 22.0
    at_end = ctx.occupancy(22.0)
    assert ctx.occupancy(past).tobytes() == at_end.tobytes()
    assert ctx.occupancy_many(np.array([past]))[0].tobytes() == (
        at_end.tobytes()
    )
    ctx.trajectory.cover(past)
    assert occupancy_solves(ctx) == [(0.0, 22.0, "DOP853")]


def test_growing_horizons_keep_a_bounded_segment_count():
    """Past the first solve a longer horizon extends as a lazy read does
    (to at least 1.25 times the asked horizon), so 292 ever longer
    horizons from 0.5 to 30 cost a logarithmic number of segments."""
    _, _, ctx = fresh_context()
    horizons = [0.5] + [round(1.0 + 0.1 * i, 10) for i in range(291)]
    for horizon in horizons:
        ctx.trajectory.cover(horizon)
        assert ctx.trajectory.horizon >= horizon
    solves = occupancy_solves(ctx)
    assert solves[0] == (0.0, 0.5, "DOP853")
    bound = 2 + math.ceil(math.log(horizons[-1] / 0.5, 1.25))
    assert len(solves) <= bound
    assert len(solves) < len(horizons) / 10


@pytest.mark.parametrize(
    "model, occupancy",
    [
        ("virus1", M_E1),
        ("virus2", M_E6),
        ("botnet", (0.9, 0.04, 0.03, 0.03, 0.0)),
        ("gossip", (0.9, 0.1, 0.0)),
    ],
)
def test_grid_reads_equal_scalar_reads(model, occupancy):
    """cSat's E and EP leaves scan with ``g_many`` (grid reads) and refine
    with Brent on ``g`` (scalar reads), so both must read one function:
    the DOP853 interpolant is elementwise, so they agree byte for byte."""
    _, _, ctx = fresh_context(model, occupancy)
    times = np.random.default_rng(11).uniform(0.0, 21.0, 5000)
    grid = ctx.occupancy_many(times)
    differ = [
        float(t)
        for t, row in zip(times, grid)
        if row.tobytes() != ctx.occupancy(float(t)).tobytes()
    ]
    assert differ == []
