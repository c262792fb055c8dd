"""Rate families: many transitions' rates from one vectorized call.

A :class:`~repro.meanfield.rates.RateFamily` must behave like ``n``
ordinary rates everywhere a single rate is used (interpreted generator,
dense assembly, lumping), while
:meth:`~repro.meanfield.compiled.CompiledGenerator.transition_rates`
calls the family once per assembly and keeps its validation contract.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidRateError, ModelError
from repro.meanfield import MeanFieldModel
from repro.meanfield.local_model import LocalModelBuilder
from repro.meanfield.lumping import find_lumping, lumped_mean_field
from repro.meanfield.rates import (
    FamilyMember,
    RateFamily,
    normalize_rate,
)

TOL = 1e-12


def _ring_model(family: RateFamily):
    """A 3-state ring whose forward rates are the family's members."""
    builder = LocalModelBuilder().state("a", "x").state("b").state("c")
    builder.transition("a", "b", family[0])
    builder.transition("b", "c", family[1])
    builder.transition("c", "a", family[2])
    builder.transition("b", "a", 0.5)
    return builder.build()


def _ring_rates(m):
    return np.stack(
        [1.0 + m[..., 1], 2.0 * m[..., 2] + 0.1, 0.3 + m[..., 0] * m[..., 1]],
        axis=-1,
    )


def _timed_ring_rates(m, t):
    return _ring_rates(m) * (1.0 + 0.5 * np.sin(t))


class CountingFamily:
    """Wraps a family callable and counts its invocations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, m):
        self.calls += 1
        return self.fn(m)


def _occupancies(n, k=3, seed=0):
    return np.random.default_rng(seed).dirichlet(np.ones(k), size=n)


class TestMembersWorkAlone:
    def test_member_returns_its_column(self):
        family = RateFamily(_ring_rates, 3)
        for m in _occupancies(5):
            for j in range(3):
                assert family[j](m) == _ring_rates(m)[j]
                assert family[j](m, 7.0) == _ring_rates(m)[j]

    def test_member_evaluates_a_batch(self):
        family = RateFamily(_ring_rates, 3)
        occ = _occupancies(6)
        np.testing.assert_array_equal(family[2](occ), _ring_rates(occ)[:, 2])

    def test_time_dependent_member_takes_time_vectors(self):
        family = RateFamily(_timed_ring_rates, 3)
        occ = _occupancies(4)
        ts = np.linspace(0.0, 3.0, 4)
        np.testing.assert_allclose(
            family[1](occ, ts),
            [_timed_ring_rates(m, t)[1] for m, t in zip(occ, ts)],
            rtol=0.0,
            atol=TOL,
        )

    def test_interpreted_and_compiled_generators_agree(self):
        for fn in (_ring_rates, _timed_ring_rates):
            local = _ring_model(RateFamily(fn, 3))
            compiled = local.compiled_generator()
            occ = _occupancies(8, seed=3)
            ts = np.linspace(0.0, 4.0, 8)
            batched = compiled.batch(occ, ts)
            data = compiled.sparse_data_batch(occ, ts)
            for i, (m, t) in enumerate(zip(occ, ts)):
                expected = local.generator(m, t)
                np.testing.assert_allclose(
                    compiled(m, t), expected, rtol=0.0, atol=TOL
                )
                np.testing.assert_allclose(
                    batched[i], expected, rtol=0.0, atol=TOL
                )
                np.testing.assert_allclose(
                    compiled.sparse(m, t).toarray(), expected,
                    rtol=0.0, atol=TOL,
                )
                np.testing.assert_allclose(
                    compiled.sparse_view(data[i]).toarray(), expected,
                    rtol=0.0, atol=TOL,
                )

    def test_lumping_sees_members_as_ordinary_rates(self):
        """Two symmetric infected states fed by one size-2 family lump."""
        infect = RateFamily(
            lambda m: np.stack([0.5 * (m[..., 1] + m[..., 2])] * 2, axis=-1),
            2,
        )
        local = (
            LocalModelBuilder()
            .state("clean", "healthy")
            .state("inf_a", "infected")
            .state("inf_b", "infected")
            .transition("clean", "inf_a", infect[0])
            .transition("clean", "inf_b", infect[1])
            .transition("inf_a", "clean", 1.0)
            .transition("inf_b", "clean", 1.0)
            .build()
        )
        model = MeanFieldModel(local)
        lumping = find_lumping(local)
        assert lumping.blocks == ((0,), (1, 2))
        quotient = lumped_mean_field(model, lumping)
        m0 = np.array([0.6, 0.3, 0.1])
        full = model.trajectory(m0, horizon=4.0)
        lumped = quotient.trajectory(lumping.lump_occupancy(m0), horizon=4.0)
        for t in (0.5, 2.0, 4.0):
            np.testing.assert_allclose(
                lumping.lump_occupancy(full(t)), lumped(t), atol=1e-8
            )


class TestNormalization:
    def test_members_are_already_normalized(self):
        member = RateFamily(_ring_rates, 3)[1]
        assert isinstance(member, FamilyMember)
        assert normalize_rate(member) is member

    def test_family_arity_is_inspected_once(self, monkeypatch):
        from repro.meanfield import rates

        calls = []
        original = rates._positional_arity
        monkeypatch.setattr(
            rates,
            "_positional_arity",
            lambda fn: calls.append(fn) or original(fn),
        )
        family = RateFamily(_ring_rates, 3)
        _ring_model(family)
        assert calls == [_ring_rates]

    def test_m_only_members_are_time_independent(self):
        """An ``fn(m)`` family is called without global time."""
        m = np.array([0.5, 0.3, 0.2])
        family = RateFamily(_ring_rates, 3)
        assert not family.time_dependent
        np.testing.assert_array_equal(family.evaluate(m, 2.0), _ring_rates(m))
        for j in range(3):
            assert family[j](m, 2.0) == _ring_rates(m)[j]

    def test_time_dependent_members_say_so(self):
        """An ``fn(m, t)`` family is called with global time."""
        m = np.array([0.5, 0.3, 0.2])
        family = RateFamily(_timed_ring_rates, 3)
        assert family.time_dependent
        np.testing.assert_array_equal(
            family.evaluate(m, 2.0), _timed_ring_rates(m, 2.0)
        )
        for j in range(3):
            assert family[j](m, 2.0) == _timed_ring_rates(m, 2.0)[j]

    @pytest.mark.parametrize("size", [0, -2])
    def test_rejects_empty_family(self, size):
        with pytest.raises(ModelError):
            RateFamily(_ring_rates, size)

    def test_rejects_zero_arg_callable(self):
        with pytest.raises(InvalidRateError):
            RateFamily(lambda: np.ones(2), 2)


class TestGroupedEvaluation:
    def test_family_called_once_per_assembly(self):
        counting = CountingFamily(_ring_rates)
        local = _ring_model(RateFamily(counting, 3))
        compiled = local.compiled_generator()
        assert compiled.num_families == 1
        assert compiled.num_dynamic == 3
        assert compiled.num_constant == 1
        counting.calls = 0
        compiled.transition_rates(_occupancies(16))
        assert counting.calls == 1
        compiled.sparse(_occupancies(1)[0])
        assert counting.calls == 2

    def test_shared_member_fills_every_column(self):
        """A size-1 family passed to several transitions (one rate
        used everywhere) is evaluated once and fanned out."""
        counting = CountingFamily(lambda m: 2.0 * m[..., :1] + 1.0)
        shared = RateFamily(counting, 1)[0]
        builder = LocalModelBuilder().state("a").state("b").state("c")
        builder.transition("a", "b", shared)
        builder.transition("b", "c", shared)
        builder.transition("c", "a", shared)
        compiled = builder.build().compiled_generator()
        occ = _occupancies(5)
        counting.calls = 0
        rates = compiled.transition_rates(occ)
        assert counting.calls == 1
        expected = 2.0 * occ[:, :1] + 1.0
        np.testing.assert_array_equal(rates, np.repeat(expected, 3, axis=1))

    def test_mixed_families_and_single_rates(self):
        """Two families, a plain callable, a vectorized callable and a
        constant, interleaved: the table keeps model transition order."""
        first = RateFamily(_ring_rates, 3)
        second = RateFamily(lambda m: np.stack([m[..., 0], m[..., 2]], -1), 2)

        def plain(m):  # scalar occupancy vectors only
            return 0.25 + m[1]

        def vector(m):
            return 0.7 * m[..., 0]

        vector.vectorized = True
        builder = LocalModelBuilder().state("a").state("b").state("c")
        builder.transition("a", "b", first[0])
        builder.transition("a", "c", second[1])
        builder.transition("b", "a", plain)
        builder.transition("b", "c", 1.5)
        builder.transition("c", "a", vector)
        builder.transition("c", "b", second[0])
        local = builder.build()
        compiled = local.compiled_generator()
        assert compiled.num_families == 2
        occ = _occupancies(7, seed=9)
        rates = compiled.transition_rates(occ)
        for i, m in enumerate(occ):
            expected = [tr.rate(m, 0.0) for tr in local.transitions]
            np.testing.assert_allclose(rates[i], expected, rtol=0.0, atol=TOL)

    def test_time_dependent_family_receives_time_column(self):
        local = _ring_model(RateFamily(_timed_ring_rates, 3))
        compiled = local.compiled_generator()
        occ = _occupancies(6, seed=4)
        ts = np.linspace(0.0, 5.0, 6)
        rates = compiled.transition_rates(occ, ts)
        for i in range(6):
            np.testing.assert_allclose(
                rates[i, :3], _timed_ring_rates(occ[i], ts[i]),
                rtol=0.0, atol=TOL,
            )
        scalar_t = compiled.transition_rates(occ, 2.0)
        np.testing.assert_allclose(
            scalar_t[:, :3], _timed_ring_rates(occ, 2.0), rtol=0.0, atol=TOL
        )


class TestValidation:
    def _compiled(self, fn, size=3):
        return _ring_model(RateFamily(fn, size)).compiled_generator()

    def test_negative_rate_raises(self):
        compiled = self._compiled(lambda m: _ring_rates(m) - 5.0)
        with pytest.raises(InvalidRateError):
            compiled.transition_rates(_occupancies(2))

    def test_non_finite_rate_raises(self):
        compiled = self._compiled(lambda m: _ring_rates(m) * np.nan)
        with pytest.raises(InvalidRateError):
            compiled.transition_rates(_occupancies(2))

    def test_round_off_negative_is_clamped(self):
        compiled = self._compiled(lambda m: np.zeros(m.shape) - 1e-12)
        rates = compiled.transition_rates(_occupancies(2))
        assert np.all(rates[:, :3] == 0.0)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda m: _ring_rates(m)[..., :2],
            lambda m: np.sum(m, axis=-1),
            lambda m: np.ones(m.shape[:-1] + (4,)),
        ],
        ids=["too-few", "scalar", "too-many"],
    )
    def test_wrong_trailing_size_raises_model_error(self, fn):
        compiled = self._compiled(fn)
        with pytest.raises(ModelError, match="trailing dimension"):
            compiled.transition_rates(_occupancies(2))
        with pytest.raises(ModelError, match="trailing dimension"):
            RateFamily(fn, 3)[0](_occupancies(1)[0])

