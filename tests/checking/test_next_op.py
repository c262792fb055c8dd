"""Tests for the timed next operator."""

import numpy as np
import pytest

from repro.checking.next_op import next_curve, next_probabilities
from repro.checking.satsets import Piece, PiecewiseSatSet
from repro.exceptions import NumericalError, UnsupportedFormulaError
from repro.logic.ast import TimeInterval


class TestNextProbabilities:
    def test_homogeneous_closed_form(self, homogeneous_model):
        """Constant rates: P(s, X^[a,b] Φ) has an elementary closed form."""
        from repro.checking.context import EvaluationContext

        ctx = EvaluationContext(
            homogeneous_model, np.array([0.4, 0.3, 0.3])
        )
        q = homogeneous_model.local.constant_generator()
        sat = PiecewiseSatSet.constant(frozenset({2}), 0.0, 10.0)
        a, b = 0.2, 1.5
        probs = next_probabilities(ctx, sat, TimeInterval(a, b))
        for s in range(3):
            exit_rate = -q[s, s]
            jump_rate_into_target = q[s, 2] if s != 2 else 0.0
            if exit_rate == 0:
                expected = 0.0
            else:
                expected = (
                    (np.exp(-exit_rate * a) - np.exp(-exit_rate * b))
                    * jump_rate_into_target
                    / exit_rate
                )
            assert probs[s] == pytest.approx(expected, abs=1e-8), f"s={s}"

    def test_full_interval_from_zero(self, ctx1):
        """X^[0,b] infected from s1 equals P(first jump <= b) since every
        jump out of s1 lands in an infected state."""
        sat = PiecewiseSatSet.constant(frozenset({1, 2}), 0.0, 10.0)
        probs = next_probabilities(ctx1, sat, TimeInterval(0, 2.0))
        # From s1 every transition goes to s2 (infected).
        from repro.checking.transform import absorbing_generator_function
        from repro.ctmc.inhomogeneous import solve_forward_kolmogorov

        q_mod = absorbing_generator_function(
            ctx1.generator_function(), frozenset({1, 2})
        )
        pi = solve_forward_kolmogorov(q_mod, 0.0, 2.0)
        assert probs[0] == pytest.approx(1.0 - pi[0, 0], abs=1e-7)

    def test_degenerate_interval_is_zero(self, ctx1):
        sat = PiecewiseSatSet.constant(frozenset({1}), 0.0, 1.0)
        probs = next_probabilities(ctx1, sat, TimeInterval(0, 0))
        assert np.allclose(probs, 0.0)

    def test_empty_target_set(self, ctx1):
        sat = PiecewiseSatSet.constant(frozenset(), 0.0, 5.0)
        probs = next_probabilities(ctx1, sat, TimeInterval(0, 2.0))
        assert np.allclose(probs, 0.0)

    def test_time_varying_operand(self, ctx1):
        """The operand set switches mid-window; probability must lie
        between the two constant-set extremes."""
        lo = PiecewiseSatSet.constant(frozenset(), 0.0, 5.0)
        hi = PiecewiseSatSet.constant(frozenset({1, 2}), 0.0, 5.0)
        mixed = PiecewiseSatSet(
            [Piece(0.0, 1.0, frozenset()), Piece(1.0, 5.0, frozenset({1, 2}))]
        )
        interval = TimeInterval(0, 2.0)
        p_lo = next_probabilities(ctx1, lo, interval)[0]
        p_hi = next_probabilities(ctx1, hi, interval)[0]
        p_mixed = next_probabilities(ctx1, mixed, interval)[0]
        assert p_lo <= p_mixed <= p_hi
        assert p_mixed < p_hi  # part of the window contributes nothing

    def test_unbounded_interval_rejected(self, ctx1):
        sat = PiecewiseSatSet.constant(frozenset({1}), 0.0, 5.0)
        with pytest.raises(UnsupportedFormulaError):
            next_probabilities(ctx1, sat, TimeInterval(0, float("inf")))

    def test_failed_integral_runs_the_fallback_chain(self, ctx1):
        """The integral is a robust solve: a failing right-hand side is
        retried on the stiff fallbacks, recorded in the trace, and only
        then raised, naming the integral and its window."""

        def broken(t):
            raise FloatingPointError("injected")

        ctx1._generator_fn = broken
        sat = PiecewiseSatSet.constant(frozenset({1, 2}), 0.0, 5.0)
        with pytest.raises(
            NumericalError,
            match=r"next-operator integral failed on \[0\.0, 1\.0\]",
        ):
            next_probabilities(ctx1, sat, TimeInterval(0, 1.0))
        record = ctx1.trace.solves[-1]
        assert [a.method for a in record.attempts] == [
            "RK45", "Radau", "LSODA"
        ]


class TestNextCurve:
    def test_matches_pointwise(self, ctx1):
        sat = PiecewiseSatSet.constant(frozenset({1, 2}), 0.0, 8.0)
        interval = TimeInterval(0, 1.0)
        curve = next_curve(ctx1, sat, interval, theta=4.0)
        for t in (0.0, 2.0, 4.0):
            direct = next_probabilities(ctx1, sat, interval, t=t)
            assert np.allclose(curve.values(t), direct, atol=1e-8)

    def test_declares_shifted_discontinuities(self, ctx1):
        sat = PiecewiseSatSet(
            [Piece(0.0, 3.0, frozenset()), Piece(3.0, 9.0, frozenset({1}))]
        )
        curve = next_curve(ctx1, sat, TimeInterval(0.5, 1.0), theta=5.0)
        assert any(abs(d - 2.0) < 1e-9 for d in curve.discontinuities)
        assert any(abs(d - 2.5) < 1e-9 for d in curve.discontinuities)
