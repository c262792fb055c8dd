"""The local model of Definition 1.

A :class:`LocalModel` is a tuple ``(S^l, Q, L)``:

- a finite set of ``K`` named local states,
- a generator whose off-diagonal entries may depend on the occupancy
  vector ``m̄`` of the overall model (and, as an extension the paper
  sanctions, on global time ``t``),
- a labelling function assigning each state a set of local atomic
  propositions (LAPs).

The class is immutable after construction; the convenient way to assemble
one is :class:`LocalModelBuilder`::

    model = (
        LocalModelBuilder()
        .state("s1", "not_infected")
        .state("s2", "infected", "inactive")
        .state("s3", "infected", "active")
        .transition("s1", "s2", lambda m: K1 * m[2] / m[0])
        .transition("s2", "s1", K2)
        .build()
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidStateError, ModelError
from repro.meanfield.rates import (
    RateFunction,
    RateSpec,
    evaluate_rate,
    is_constant_rate,
    normalize_rate,
)


@dataclass(frozen=True)
class Transition:
    """One local transition ``source -> target`` with its rate function."""

    source: int
    target: int
    rate: RateFunction
    #: Whether the rate was specified as a plain constant.  When every
    #: transition of a model is constant the local CTMC is homogeneous and
    #: the checkers can use the cheaper uniformization algorithms.
    constant: bool


class LocalModel:
    """Immutable local model ``(S^l, Q, L)`` — Definition 1 of the paper.

    Parameters
    ----------
    states:
        Ordered state names; the occupancy vector uses the same order.
    transitions:
        Mapping ``(source_name, target_name) -> rate`` where the rate is a
        constant or a callable of ``(m)`` / ``(m, t)``.  Self-loops are
        rejected (the paper eliminates them).
    labels:
        Mapping ``state_name -> iterable of atomic propositions``.
    """

    def __init__(
        self,
        states: Sequence[str],
        transitions: Mapping[Tuple[str, str], RateSpec],
        labels: Mapping[str, Iterable[str]],
    ):
        states = tuple(str(s) for s in states)
        if len(states) == 0:
            raise ModelError("a local model needs at least one state")
        if len(set(states)) != len(states):
            raise ModelError(f"duplicate state names in {states}")
        self._states: Tuple[str, ...] = states
        self._index: Dict[str, int] = {name: i for i, name in enumerate(states)}

        label_map: Dict[str, FrozenSet[str]] = {}
        for name in states:
            label_map[name] = frozenset(str(l) for l in labels.get(name, ()))
        unknown = set(labels) - set(states)
        if unknown:
            raise InvalidStateError(
                f"labels given for unknown states: {sorted(unknown)}"
            )
        self._labels = label_map

        parsed: List[Transition] = []
        for (src, dst), spec in transitions.items():
            i = self.index(src)
            j = self.index(dst)
            if i == j:
                raise ModelError(
                    f"self-loop {src!r} -> {dst!r} not allowed (Definition 1)"
                )
            parsed.append(
                Transition(
                    source=i,
                    target=j,
                    rate=normalize_rate(spec),
                    constant=is_constant_rate(spec),
                )
            )
        self._transitions: Tuple[Transition, ...] = tuple(parsed)
        self._compiled = None
        self._label_states: Dict[str, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def states(self) -> Tuple[str, ...]:
        """Ordered state names."""
        return self._states

    @property
    def num_states(self) -> int:
        """Number of local states ``K``."""
        return len(self._states)

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """All transitions as :class:`Transition` records."""
        return self._transitions

    def index(self, state: str) -> int:
        """Index of a state name in the canonical order."""
        try:
            return self._index[state]
        except KeyError:
            raise InvalidStateError(
                f"unknown state {state!r}; states are {self._states}"
            ) from None

    def state_name(self, index: int) -> str:
        """State name for an index."""
        if not 0 <= index < self.num_states:
            raise InvalidStateError(
                f"state index {index} out of range 0..{self.num_states - 1}"
            )
        return self._states[index]

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------

    @property
    def atomic_propositions(self) -> FrozenSet[str]:
        """The set LAP of all atomic propositions used by this model."""
        out: set = set()
        for labs in self._labels.values():
            out |= labs
        return frozenset(out)

    def labels_of(self, state: str) -> FrozenSet[str]:
        """Atomic propositions holding in the given state (``L(s)``)."""
        self.index(state)  # validate
        return self._labels[state]

    def states_with_label(self, label: str) -> FrozenSet[int]:
        """Indices of states labelled with ``label`` (memoized: labels are
        fixed at construction)."""
        states = self._label_states.get(label)
        if states is None:
            states = frozenset(
                i
                for i, name in enumerate(self._states)
                if label in self._labels[name]
            )
            # Only the model's own labels are kept, so formulas naming
            # unknown ones (any string a client sends) cannot grow it.
            if states:
                self._label_states[label] = states
        return states

    # ------------------------------------------------------------------
    # Generator
    # ------------------------------------------------------------------

    @property
    def is_homogeneous(self) -> bool:
        """``True`` iff every transition rate is a constant.

        A homogeneous local model is an ordinary CTMC; the checkers then
        agree with the classical uniformization algorithms, which the test
        suite verifies.
        """
        return all(tr.constant for tr in self._transitions)

    def generator(self, m: np.ndarray, t: float = 0.0) -> np.ndarray:
        """The generator ``Q(m̄)`` in force at occupancy ``m`` and time ``t``.

        The diagonal is set to minus the row sums, so the result is always
        a valid generator.  Rates are validated on every evaluation: a rate
        function returning a negative or non-finite value raises
        :class:`repro.exceptions.InvalidRateError` immediately rather than
        corrupting a downstream ODE solve.
        """
        m = np.asarray(m, dtype=float)
        k = self.num_states
        q = np.zeros((k, k))
        for tr in self._transitions:
            q[tr.source, tr.target] += evaluate_rate(tr.rate, m, t)
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    def compiled_generator(self):
        """The compiled fast-path assembler for this model's generator.

        Built lazily on first use and cached for the model's lifetime
        (models are immutable, so the compiled form never goes stale).
        Semantically identical to :meth:`generator` — which remains the
        interpreted correctness oracle — but with constant rates baked
        into a precomputed base matrix, expression rates compiled to
        single numpy closures, and a batch mode evaluating ``Q`` over
        many occupancy vectors at once.  This is the generator the ODE
        solvers use by default.

        Returns
        -------
        repro.meanfield.compiled.CompiledGenerator
        """
        if self._compiled is None:
            from repro.meanfield.compiled import CompiledGenerator

            self._compiled = CompiledGenerator(self)
        return self._compiled

    def constant_generator(self) -> np.ndarray:
        """The generator of a homogeneous model (no occupancy needed).

        Raises :class:`ModelError` when the model has occupancy- or
        time-dependent rates.
        """
        if not self.is_homogeneous:
            raise ModelError(
                "constant_generator() requires a homogeneous model; "
                "this model has occupancy/time-dependent rates"
            )
        dummy = np.full(self.num_states, 1.0 / self.num_states)
        return self.generator(dummy, 0.0)

    def __repr__(self) -> str:
        return (
            f"LocalModel(states={list(self._states)!r}, "
            f"transitions={len(self._transitions)}, "
            f"homogeneous={self.is_homogeneous})"
        )


class LocalModelBuilder:
    """Fluent builder for :class:`LocalModel`.

    Example
    -------
    >>> builder = LocalModelBuilder()
    >>> _ = builder.state("on", "up").state("off")
    >>> _ = builder.transition("on", "off", 1.5)
    >>> _ = builder.transition("off", "on", lambda m: 2.0 * m[0])
    >>> model = builder.build()
    >>> model.states
    ('on', 'off')
    """

    def __init__(self) -> None:
        self._states: List[str] = []
        self._labels: Dict[str, List[str]] = {}
        self._transitions: Dict[Tuple[str, str], RateSpec] = {}

    def state(self, name: str, *labels: str) -> "LocalModelBuilder":
        """Declare a state with its atomic propositions."""
        name = str(name)
        if name in self._labels:
            raise ModelError(f"state {name!r} declared twice")
        self._states.append(name)
        self._labels[name] = list(labels)
        return self

    def transition(
        self, source: str, target: str, rate: RateSpec
    ) -> "LocalModelBuilder":
        """Declare a transition; ``rate`` is a constant or callable."""
        key = (str(source), str(target))
        if key in self._transitions:
            raise ModelError(f"transition {key} declared twice")
        self._transitions[key] = rate
        return self

    def build(self) -> LocalModel:
        """Validate and produce the immutable :class:`LocalModel`."""
        return LocalModel(self._states, self._transitions, self._labels)
