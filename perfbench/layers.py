"""Per-layer timing from outside the program.

:func:`install` replaces public functions of ``repro`` with timing
wrappers, at the module or class attributes where callers look them up
(``repro.checking.global_.parse_mfcsl``, ``EvaluationContext.transient_matrix``,
...).  Each wrapper pushes a frame on a per-thread stack, so a layer's
*self* time is its span minus the spans of the layers it called.  Nothing
under ``src/`` changes; :func:`uninstall` puts every original back.

Spans are aggregated as they close (calls, self time, inclusive time per
layer) rather than stored one by one: every number the benchmark reports
is a sum over spans, and the hottest wrapped calls (generator assembly,
occupancy-ODE extensions) run thousands of times per run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

_ODE = "meanfield.ode"
_STATIONARY = "meanfield.stationary"

#: ``(layer, "module:Attr.path", skip_under)``.  A wrapper opens no span
#: while the innermost open span belongs to its own layer (re-entry) or to
#: one of ``skip_under``: generator assembly inside the occupancy ODE's
#: drift is ODE work, and the long-run ODE inside the steady-state solve
#: is steady-state work.
LAYER_TARGETS = (
    ("logic.parse", "repro.checking.global_:parse_mfcsl", ()),
    ("logic.rewrite", "repro.checking.global_:optimize", ()),
    (_ODE, "repro.meanfield.overall_model:MeanFieldModel.trajectory",
     (_STATIONARY,)),
    # The trajectory is lazy: later queries extend the solve through
    # this method, so it is the ODE layer's other entry point.
    (_ODE, "repro.meanfield.ode:OccupancyTrajectory._extend_to",
     (_STATIONARY,)),
    (_STATIONARY, "repro.checking.context:stationary_from_long_run", ()),
    (_STATIONARY, "repro.checking.context:find_fixed_point", ()),
    ("meanfield.compiled", "repro.meanfield.compiled:CompiledGenerator.__call__",
     (_ODE, _STATIONARY)),
    ("meanfield.compiled", "repro.meanfield.compiled:CompiledGenerator.batch",
     (_ODE, _STATIONARY)),
    ("meanfield.compiled", "repro.meanfield.compiled:CompiledGenerator.sparse",
     (_ODE, _STATIONARY)),
    ("meanfield.compiled",
     "repro.meanfield.compiled:CompiledGenerator.sparse_into",
     (_ODE, _STATIONARY)),
    ("meanfield.compiled",
     "repro.meanfield.compiled:CompiledGenerator.sparse_data_batch",
     (_ODE, _STATIONARY)),
    ("ctmc.propagators", "repro.ctmc.propagators:PropagatorEngine.ensure", ()),
    ("ctmc.propagators", "repro.ctmc.propagators:PropagatorEngine.propagate",
     ()),
    ("ctmc.propagators",
     "repro.ctmc.propagators:PropagatorEngine.propagate_many", ()),
    ("ctmc.propagators", "repro.ctmc.propagators:PropagatorEngine.apply", ()),
    ("ctmc.propagators", "repro.ctmc.propagators:PropagatorEngine.apply_many",
     ()),
    ("ctmc.propagators",
     "repro.ctmc.propagators:PropagatorEngine.prepare_windows", ()),
    ("ctmc.propagators",
     "repro.ctmc.propagators:SparseActionPropagator.ensure", ()),
    ("ctmc.propagators",
     "repro.ctmc.propagators:SparseActionPropagator.apply", ()),
    ("ctmc.propagators",
     "repro.ctmc.propagators:SparseActionPropagator.apply_many", ()),
    ("ctmc.propagators",
     "repro.ctmc.propagators:SparseActionPropagator.propagate", ()),
    ("ctmc.inhomogeneous", "repro.checking.context:solve_forward_kolmogorov",
     ()),
    ("ctmc.inhomogeneous",
     "repro.ctmc.inhomogeneous:solve_forward_kolmogorov", ()),
    ("checking.context",
     "repro.checking.context:EvaluationContext.transient_matrix", ()),
    ("checking.context",
     "repro.checking.context:EvaluationContext.transient_apply", ()),
    ("checking.reachability",
     "repro.checking.local:until_probabilities_simple", ()),
    ("checking.reachability",
     "repro.checking.reachability:until_probabilities_simple", ()),
    # The bounded ``P`` check enters the nested algorithm through
    # ``sat_states_bounded`` and a cSat through ``curve``.
    ("checking.nested",
     "repro.checking.nested:TimeVaryingUntil.probabilities", ()),
    ("checking.nested",
     "repro.checking.nested:TimeVaryingUntil.sat_states_bounded", ()),
    ("checking.nested", "repro.checking.nested:TimeVaryingUntil.curve", ()),
    ("checking.csat", "repro.checking.global_:conditional_sat", ()),
    ("checking.global_",
     "repro.checking.global_:MFModelChecker.check_detailed", ()),
    ("checking.global_", "repro.checking.global_:MFModelChecker.check", ()),
    ("checking.global_", "repro.checking.global_:MFModelChecker.value", ()),
    ("checking.global_",
     "repro.checking.global_:MFModelChecker.conditional_sat", ()),
    ("checking.global_", "repro.checking.global_:MFModelChecker.check_many",
     ()),
    ("io.model_hash", "repro.server.service:model_hash", ()),
    ("io.model_from_dict", "repro.server.service:model_from_dict", ()),
    ("server.service", "repro.server.service:CheckingService.handle", ()),
    ("server.service", "repro.server.service:CheckingService.handle_batch",
     ()),
)

#: Model construction through ``repro.models.MODEL_REGISTRY`` factories
#: (the server builds the named model on every request); each factory in
#: the registry dict is wrapped in place.
REGISTRY_LAYER = "models.registry"

#: Every layer in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_TARGETS)) + (
    REGISTRY_LAYER,
)


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "total_s")

    def __init__(self):
        #: Open spans, innermost last: ``[layer, seconds spent in children]``.
        self.stack: list = []
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}


class Tracer:
    """Aggregates layer spans over every thread that calls a wrapper."""

    def __init__(self):
        self._local = threading.local()
        self._states: "list[_ThreadState]" = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, layer: str, fn, skip_under=()):
        skip = frozenset(skip_under) | {layer}
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            if stack and stack[-1][0] in skip:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                state.calls[layer] = state.calls.get(layer, 0) + 1
                state.self_s[layer] = (
                    state.self_s.get(layer, 0.0) + elapsed - frame[1]
                )
                state.total_s[layer] = state.total_s.get(layer, 0.0) + elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def summary(self) -> dict:
        """``{layer: {"calls", "self_ms", "total_ms"}}`` over all threads."""
        with self._lock:
            states = list(self._states)
        out = {
            layer: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
            for layer in LAYERS
        }
        for state in states:
            for layer, calls in list(state.calls.items()):
                row = out[layer]
                row["calls"] += calls
                row["self_ms"] += 1000.0 * state.self_s.get(layer, 0.0)
                row["total_ms"] += 1000.0 * state.total_s.get(layer, 0.0)
        return out


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(tracer: Tracer) -> list:
    """Wrap every :data:`LAYER_TARGETS` entry; returns the undo list."""
    undo = []
    for layer, target, skip_under in LAYER_TARGETS:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        setattr(owner, attr, tracer.wrap(layer, original, skip_under))
        undo.append((setattr, owner, attr, original))
    from repro.models import MODEL_REGISTRY

    for name, factory in list(MODEL_REGISTRY.items()):
        MODEL_REGISTRY[name] = tracer.wrap(REGISTRY_LAYER, factory)
        undo.append((dict.__setitem__, MODEL_REGISTRY, name, factory))
    return undo


def uninstall(undo: list) -> None:
    for restore, owner, key, original in reversed(undo):
        restore(owner, key, original)
