"""Tests for LocalModel and its builder (Definition 1)."""

import numpy as np
import pytest

from repro.ctmc.generator import validate_generator
from repro.exceptions import InvalidStateError, ModelError
from repro.meanfield.local_model import LocalModel, LocalModelBuilder


@pytest.fixture
def model() -> LocalModel:
    return (
        LocalModelBuilder()
        .state("s1", "not_infected")
        .state("s2", "infected", "inactive")
        .state("s3", "infected", "active")
        .transition("s1", "s2", lambda m: 0.9 * m[2] / max(m[0], 1e-12))
        .transition("s2", "s1", 0.1)
        .transition("s2", "s3", 0.01)
        .transition("s3", "s2", 0.3)
        .transition("s3", "s1", 0.3)
        .build()
    )


class TestStructure:
    def test_states_in_order(self, model):
        assert model.states == ("s1", "s2", "s3")
        assert model.num_states == 3

    def test_index_lookup(self, model):
        assert model.index("s2") == 1
        assert model.state_name(2) == "s3"

    def test_unknown_state_raises(self, model):
        with pytest.raises(InvalidStateError):
            model.index("nope")
        with pytest.raises(InvalidStateError):
            model.state_name(9)

    def test_duplicate_state_rejected(self):
        with pytest.raises(ModelError):
            LocalModelBuilder().state("a").state("a")

    def test_empty_model_rejected(self):
        with pytest.raises(ModelError):
            LocalModel((), {}, {})

    def test_self_loop_rejected(self):
        builder = LocalModelBuilder().state("a").state("b")
        builder.transition("a", "a", 1.0)
        with pytest.raises(ModelError):
            builder.build()

    def test_duplicate_transition_rejected(self):
        builder = LocalModelBuilder().state("a").state("b")
        builder.transition("a", "b", 1.0)
        with pytest.raises(ModelError):
            builder.transition("a", "b", 2.0)

    def test_labels_for_unknown_state_rejected(self):
        with pytest.raises(InvalidStateError):
            LocalModel(("a",), {}, {"ghost": ["x"]})


class TestLabels:
    def test_labels_of(self, model):
        assert model.labels_of("s2") == frozenset({"infected", "inactive"})
        assert model.labels_of("s1") == frozenset({"not_infected"})

    def test_states_with_label(self, model):
        assert model.states_with_label("infected") == frozenset({1, 2})
        assert model.states_with_label("active") == frozenset({2})
        assert model.states_with_label("missing") == frozenset()

    def test_states_with_label_is_memoized(self, model):
        first = model.states_with_label("infected")
        assert model.states_with_label("infected") is first
        assert first == frozenset({1, 2})
        # Unknown labels answer the empty set without entering the memo.
        assert model.states_with_label("missing") == frozenset()
        assert "missing" not in model._label_states

    def test_atomic_propositions(self, model):
        assert model.atomic_propositions == frozenset(
            {"not_infected", "infected", "inactive", "active"}
        )


class TestGenerator:
    def test_generator_is_valid(self, model):
        m = np.array([0.8, 0.15, 0.05])
        q = model.generator(m)
        validate_generator(q)

    def test_occupancy_dependence(self, model):
        q_low = model.generator(np.array([0.9, 0.05, 0.05]))
        q_high = model.generator(np.array([0.5, 0.0, 0.5]))
        assert q_high[0, 1] > q_low[0, 1]

    def test_constant_entries(self, model):
        m = np.array([0.8, 0.15, 0.05])
        q = model.generator(m)
        assert q[1, 0] == 0.1
        assert q[2, 1] == 0.3

    def test_homogeneity_detection(self, model):
        assert not model.is_homogeneous
        const = (
            LocalModelBuilder()
            .state("a")
            .state("b")
            .transition("a", "b", 1.0)
            .build()
        )
        assert const.is_homogeneous

    def test_constant_generator(self):
        const = (
            LocalModelBuilder()
            .state("a")
            .state("b")
            .transition("a", "b", 2.0)
            .build()
        )
        q = const.constant_generator()
        assert q[0, 1] == 2.0

    def test_constant_generator_rejected_for_inhomogeneous(self, model):
        with pytest.raises(ModelError):
            model.constant_generator()

    def test_repr(self, model):
        text = repr(model)
        assert "s1" in text and "homogeneous=False" in text
