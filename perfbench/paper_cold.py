"""``paper-cold``: every EXPERIMENTS.md query, each on a fresh checker.

A closed loop with one caller.  Each query builds its model, an
``MFModelChecker`` and an evaluation context from nothing, so the work
matches one cold ``mfcsl check`` per query.  The loop runs whole units
of 21 queries in a seeded order.

A unit asks each cheap class (under 30 ms, seven of them) once, each
class of the 30-60 ms band (the cSat root findings and the E6 checks)
:data:`BAND_COPIES` times, and ``ES`` on Setting 2 :data:`POOL_COPIES`
times from its pool of two points of equal cost (60-65 ms each).
Sorted by latency, the median then falls about a third of the way into
the band and the 90th percentile about half way into the pool, so
neither percentile sits on the edge between two classes of different
cost.  The pool takes about a third of the run time.
"""

from __future__ import annotations

import random

from common import answer_of, perturbed

E2 = "EP[<0.3](not_infected U[0,1] infected)"
E6 = (
    "E[>0.8](P[>0.9](infected U[0,15] (P[>0.8](tt U[0,0.5] infected))))"
    " & E[<0.1](active)"
)
F3C = "E[>0.1](P[>0.8](tt U[0,0.5] infected))"
X1_EP = "EP[<0.4](infected U[0,5] not_infected)"
ES = "ES[>=0.1](infected)"

M_E1 = (0.8, 0.15, 0.05)
M_E6 = (0.85, 0.1, 0.05)
M_HEAVY = (0.1, 0.5, 0.4)
PHI1 = {"start_convention": "phi1"}
#: E6's inner satisfaction sets are constant, so ``until_method="auto"``
#: takes the simple algorithm; forcing the nested one is the only way a
#: paper query reaches ``TimeVaryingUntil``.
NESTED = {"until_method": "nested"}
E6_LOCKED = {"holds": False}
ES_S2_LOCKED = {"holds": True, "value": 0.995, "tol": 6e-3}

#: ``(id, model, options, command, formula, theta, paper occupancy,
#: leaf, bound, locked)``.  ``locked`` holds what EXPERIMENTS.md records
#: for the paper's own occupancy.  Each class runs at the paper's
#: occupancy and at seeded perturbations of it.
CLASSES = (
    ("E2", "virus1", {}, "check", E2, None, M_E1,
     "EP[>=0](not_infected U[0,1] infected)", ["<", 0.3],
     {"holds": True, "value": 0.2339, "tol": 5e-5}),
    ("E2-phi1", "virus1", PHI1, "check", E2, None, M_E1,
     "EP[>=0](not_infected U[0,1] infected)", ["<", 0.3],
     {"holds": True, "value": 0.0339, "tol": 5e-5}),
    ("F3a", "virus1", {}, "csat", E2, 20.0, M_E1, None, None,
     {"intervals": [[0.0, 20.0]]}),
    ("F3b", "virus1", PHI1, "csat", E2, 20.0, M_E1, None, None,
     {"intervals": [[0.0, 20.0]]}),
    ("F3c", "virus2", {}, "csat", F3C, 15.0, M_E6, None, None,
     {"intervals": [[0.0, 15.0]]}),
    ("E6", "virus2", {}, "check", E6, None, M_E6, None, None, E6_LOCKED),
    ("E6-nested", "virus2", NESTED, "check", E6, None, M_E6, None, None,
     E6_LOCKED),
    ("X1-E-heavy", "virus1", {}, "check", "E[>0.8](infected)", None, M_HEAVY,
     "E[>=0](infected)", [">", 0.8], {"holds": True, "value": 0.9,
                                       "tol": 1e-12}),
    ("X1-E-light", "virus1", {}, "check", "E[>0.8](infected)", None, M_E1,
     "E[>=0](infected)", [">", 0.8], {"holds": False, "value": 0.2,
                                       "tol": 1e-12}),
    ("X1-ES-s1", "virus1", {}, "check", ES, None, M_E1,
     "ES[>=0](infected)", [">=", 0.1], {"holds": False, "value": 0.0,
                                         "tol": 1e-6}),
    ("X1-EP", "virus1", {}, "check", X1_EP, None, M_E1,
     "EP[>=0](infected U[0,5] not_infected)", ["<", 0.4],
     {"holds": False, "value": 0.891, "tol": 5e-4}),
)
#: Copies per unit of each class in the 30-60 ms band (others: one).
BAND = ("F3a", "F3b", "F3c", "E6", "E6-nested")
BAND_COPIES = 2
#: ``ES`` on Setting 2 pool queries per unit.
POOL_COPIES = 4

#: ``ES`` on Setting 2 costs one long LSODA run whose length is chaotic
#: in the occupancy (10 ms to 11 s within 1 % of the paper's point), so
#: seeded perturbations would make a run's cost depend on its seed.  The
#: paper's own point (about 15 ms) is its own class; the pool holds two
#: points near it whose costs agree within a few per cent (about 60-65 ms
#: each on the seed commit), so the 90th percentile, which falls in the
#: middle of the pool queries, does not depend on how a run's units
#: split between pool points of different cost.  The seed orders them.
ES_S2_POOL = (
    (0.8465, 0.1019, 0.0516),
    (0.8531, 0.0985, 0.0484),
)

#: Distinct occupancies per perturbed class in one run: the paper's own
#: plus seeded perturbations of it.
VARIANTS = 4
#: Relative size of a seeded perturbation of the paper's occupancy.  The
#: cost of a cSat root finding or an E6 check moves with the occupancy,
#: and the median latency falls among them, so a small perturbation
#: keeps the median from depending on which occupancies a seed draws.
PERTURBATION = 0.01
UNITS = 1000


def _query(cid, model, options, command, formula, theta, occ, leaf, bound,
           locked):
    query = {
        "id": cid,
        "model": model,
        "options": dict(options),
        "command": command,
        "formula": formula,
        "occupancy": list(occ),
        "leaf": leaf,
        "bound": bound,
        "locked": locked,
    }
    if theta is not None:
        query["theta"] = theta
    return query


def _es_s2(cid, occ, locked):
    return _query(cid, "virus2", {}, "check", ES, None, occ,
                  "ES[>=0](infected)", [">=", 0.1], locked)


def generate(seed: int) -> list:
    """The run's units of queries (far more than one run uses)."""
    rng = random.Random(f"paper-cold/{seed}")
    variants = {}
    for cid, model, options, command, formula, theta, base, leaf, bound, \
            locked in CLASSES:
        rows = [_query(cid, model, options, command, formula, theta, base,
                       leaf, bound, locked)]
        for _ in range(VARIANTS - 1):
            occ = perturbed(rng, base, PERTURBATION)
            rows.append(_query(cid, model, options, command, formula, theta,
                               occ, leaf, bound, None))
        rng.shuffle(rows)
        variants[cid] = rows
    es_paper = _es_s2("X1-ES-s2", M_E6, ES_S2_LOCKED)
    es_pool = [_es_s2("X1-ES-s2-pool", occ, None) for occ in ES_S2_POOL]
    rng.shuffle(es_pool)
    units = []
    for u in range(UNITS):
        unit = []
        for cid, rows in variants.items():
            copies = BAND_COPIES if cid in BAND else 1
            unit += [rows[(copies * u + i) % len(rows)] for i in range(copies)]
        unit.append(es_paper)
        unit += [es_pool[(POOL_COPIES * u + i) % len(es_pool)]
                 for i in range(POOL_COPIES)]
        rng.shuffle(unit)
        units.append(unit)
    return units


def models():
    """Set-up work: nothing to build, each query builds its own model."""
    from repro.models import MODEL_REGISTRY

    return MODEL_REGISTRY


def execute(registry, query, stats_sink):
    """One cold query: model, checker and context built from scratch."""
    import numpy as np

    from repro.checking import CheckOptions, MFModelChecker

    checker = MFModelChecker(
        registry[query["model"]](), CheckOptions(**query["options"])
    )
    occ = np.asarray(query["occupancy"], dtype=float)
    ctx = checker.context(occ)
    command = query["command"]
    if command == "check":
        result = checker.check_detailed(query["formula"], occ, ctx=ctx)
    elif command == "value":
        result = checker.value(query["formula"], occ, ctx=ctx)
    else:
        result = checker.conditional_sat(
            query["formula"], occ, query["theta"], ctx=ctx
        )
    if stats_sink is not None:
        stats_sink.append(ctx.stats)
    return answer_of(command, result)
