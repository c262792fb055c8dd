"""Cross-validation: independent algorithms must agree.

This is the backbone of the reproduction's trust story (DESIGN.md §5):

1. on *constant-rate* models the inhomogeneous mean-field checker must
   match the classical uniformization-based CSL checker;
2. the Monte-Carlo (statistical) checker must agree with the analytic
   probabilities within sampling error;
3. the two curve evaluation methods (window-shift ODE vs recomputation)
   must coincide — covered in test_reachability/test_nested and
   benchmarked in A3;
4. the three transient backends — the window-shift ODE propagator of
   Equation (6) (:class:`TransitionMatrixPropagator`), the cached
   cell-product engine (:class:`~repro.ctmc.propagators.PropagatorEngine`)
   and brute-force per-time recomputation — must agree on every model and
   window shape, and the production nested-until curve must match
   recomputation on windows straddling several satisfaction-set
   discontinuity points.
"""

import numpy as np
import pytest

from repro.checking.context import EvaluationContext
from repro.checking.homogeneous import HomogeneousChecker
from repro.checking.local import LocalChecker
from repro.checking.statistical import StatisticalChecker
from repro.logic.parser import parse_csl, parse_path


@pytest.fixture
def pair(homogeneous_model):
    """(mean-field local checker, classical checker) on the same chain."""
    ctx = EvaluationContext(homogeneous_model, np.array([0.4, 0.3, 0.3]))
    q = homogeneous_model.local.constant_generator()
    labels = {
        i: homogeneous_model.local.labels_of(name)
        for i, name in enumerate(homogeneous_model.local.states)
    }
    return LocalChecker(ctx), HomogeneousChecker(q, labels)


PATH_FORMULAS = [
    "tt U[0,1] goal",
    "tt U[0,3] goal",
    "low U[0,2] mid",
    "!goal U[0.5,2] goal",
    "(low | mid) U[1,4] high",
    "X[0,1] mid",
    "X[0.3,2] goal",
]


class TestHomogeneousAgreement:
    @pytest.mark.parametrize("text", PATH_FORMULAS)
    def test_path_probabilities_match(self, pair, text):
        local, classical = pair
        path = parse_path(text)
        ours = local.path_probabilities(path)
        baseline = classical.path_probabilities(path)
        assert np.allclose(ours, baseline, atol=1e-6), text

    @pytest.mark.parametrize(
        "text",
        [
            "P[>0.5](tt U[0,2] goal)",
            "P[<0.2](low U[0,1] high)",
            "!P[>=0.3](tt U[0,1] goal) | mid",
        ],
    )
    def test_sat_sets_match(self, pair, text):
        local, classical = pair
        phi = parse_csl(text)
        assert local.sat_at(phi) == classical.sat(phi), text

    def test_steady_state_matches(self, pair):
        local, classical = pair
        phi = parse_csl("S[>0.3](goal)")
        assert local.sat_at(phi) == classical.sat(phi)

    def test_evaluation_time_is_irrelevant_for_constant_rates(self, pair):
        local, _ = pair
        path = parse_path("tt U[0,2] goal")
        p0 = local.path_probabilities(path, 0.0)
        p5 = local.path_probabilities(path, 5.0)
        assert np.allclose(p0, p5, atol=1e-6)


class TestStatisticalAgreement:
    def test_until_probability_within_ci(self, ctx1):
        """Monte-Carlo vs Kolmogorov on the (inhomogeneous) virus model."""
        local = LocalChecker(ctx1)
        path = parse_path("not_infected U[0,1] infected")
        analytic = local.path_probabilities(path)
        stat = StatisticalChecker(ctx1, samples=3000, seed=42)
        estimate = stat.path_probability(path, "s1")
        lo, hi = estimate.confidence_interval(z=3.5)
        assert lo <= analytic[0] <= hi

    def test_trivially_satisfied_start(self, ctx1):
        stat = StatisticalChecker(ctx1, samples=200, seed=1)
        path = parse_path("tt U[0,1] infected")
        estimate = stat.path_probability(path, "s2")
        assert estimate.value == 1.0

    def test_expected_probability_within_ci(self, ctx1):
        from repro.checking.global_ import MFModelChecker

        checker = MFModelChecker(ctx1.model, ctx1.options)
        analytic = checker.value(
            "EP[<1](not_infected U[0,1] infected)", ctx1.initial
        )
        stat = StatisticalChecker(ctx1, samples=2000, seed=7)
        estimate = stat.expected_probability(
            parse_path("not_infected U[0,1] infected")
        )
        lo, hi = estimate.confidence_interval(z=3.5)
        assert lo <= analytic <= hi

    def test_next_estimate(self, ctx1):
        local = LocalChecker(ctx1)
        path = parse_path("X[0,1] infected")
        analytic = local.path_probabilities(path)[1]
        stat = StatisticalChecker(ctx1, samples=3000, seed=9)
        estimate = stat.path_probability(path, "s2")
        lo, hi = estimate.confidence_interval(z=3.5)
        assert lo <= analytic <= hi


class TestCrossValidationBothEngines:
    """Monte-Carlo vs the analytic transient solver, within 3 sigma, on
    two bundled models and through both sampling engines.

    The virus model exercises occupancy-dependent (inhomogeneous) rates;
    the SIS epidemic is the canonical two-state mean-field example with a
    genuinely moving trajectory.  Seeds are fixed, so these never flake —
    they pin that the chosen seeds land inside the 3-sigma band.
    """

    @pytest.mark.parametrize("method", ["batched", "serial"])
    def test_virus_until(self, ctx1, method):
        path = parse_path("not_infected U[0,1] infected")
        analytic = LocalChecker(ctx1).path_probabilities(path)[0]
        estimate = StatisticalChecker(
            ctx1, samples=2000, seed=12, method=method
        ).path_probability(path, "s1")
        lo, hi = estimate.confidence_interval(z=3.0)
        assert lo <= analytic <= hi

    @pytest.mark.parametrize("method", ["batched", "serial"])
    def test_sis_until(self, method):
        from repro.models.epidemic import SisParameters, sis_model

        model = sis_model(SisParameters(beta=2.0, gamma=1.0))
        ctx = EvaluationContext(model, np.array([0.9, 0.1]))
        path = parse_path("susceptible U[0,1.5] infected")
        analytic = LocalChecker(ctx).path_probabilities(path)[0]
        estimate = StatisticalChecker(
            ctx, samples=2000, seed=15, method=method
        ).path_probability(path, "S")
        lo, hi = estimate.confidence_interval(z=3.0)
        assert lo <= analytic <= hi

    def test_sis_next(self):
        from repro.models.epidemic import sis_model

        model = sis_model()
        ctx = EvaluationContext(model, np.array([0.6, 0.4]))
        path = parse_path("X[0.2,1] susceptible")
        analytic = LocalChecker(ctx).path_probabilities(path)[1]
        estimate = StatisticalChecker(
            ctx, samples=3000, seed=23
        ).path_probability(path, "I")
        lo, hi = estimate.confidence_interval(z=3.0)
        assert lo <= analytic <= hi


class TestTransientBackendsAgree:
    """Equation (6) window-shift ODE vs cached cell products vs
    per-time recomputation — all three must coincide.

    The window-shift propagator integrates ``dΠ/dt = -QΠ + ΠQ(t+T)``
    once with dense output; the cell engine composes cached ``expm``
    kernels; recomputation solves the forward equation from scratch at
    every time.  They share no code beyond the generator, so agreement
    to the propagator tolerance is a genuine three-way cross-check.
    """

    TOL = 1e-6  # the engine's propagator_tol default

    @staticmethod
    def _three_way(model, occupancy, absorbed, window, times):
        """Π(t, t+window) of the absorbed chain via all three backends."""
        from repro.checking.transform import absorbing_generator_function
        from repro.ctmc.inhomogeneous import TransitionMatrixPropagator
        from repro.ctmc.propagators import PropagatorEngine

        ctx = EvaluationContext(model, occupancy)
        horizon = max(times) + window
        q_mod = absorbing_generator_function(
            ctx.generator_function(), frozenset(absorbed)
        )

        shift = TransitionMatrixPropagator(
            q_mod, window, 0.0, max(times)
        )
        eng = PropagatorEngine(q_mod)
        eng.ensure(0.0, horizon, window=window)
        for t in times:
            via_shift = shift(t)
            via_cells = eng.propagate(t, t + window)
            via_ode = ctx.transient_matrix(
                ("absorbing", frozenset(absorbed)), q_mod, t, window
            )
            assert np.max(np.abs(via_cells - via_ode)) < TestTransientBackendsAgree.TOL
            assert np.max(np.abs(via_shift - via_ode)) < TestTransientBackendsAgree.TOL

    def test_virus_model(self, virus1, m_example1):
        self._three_way(
            virus1, m_example1, {2}, 1.5, [0.0, 0.8, 2.3, 4.0]
        )

    def test_gossip_model(self):
        from repro.models.gossip import gossip_model

        model = gossip_model()
        self._three_way(
            model,
            np.array([0.9, 0.1, 0.0]),
            {2},
            2.0,
            [0.0, 1.1, 3.6],
        )

    def test_nested_curves_agree_across_discontinuities(self, ctx2):
        """Windows straddling TWO satisfaction-set discontinuity points:
        the Appendix ODE curve matches recomputation."""
        from repro.checking.nested import TimeVaryingUntil
        from repro.checking.satsets import Piece, PiecewiseSatSet
        from repro.logic.ast import TimeInterval

        theta, upper = 4.0, 8.0
        hi = theta + upper
        g1 = PiecewiseSatSet.constant(frozenset({0, 1}), 0.0, hi)
        # Two discontinuities at 3.1 and 6.4 — a [t, t+8] window with
        # t in (0, theta) straddles both.
        g2 = PiecewiseSatSet(
            [
                Piece(0.0, 3.1, frozenset({2})),
                Piece(3.1, 6.4, frozenset({1, 2})),
                Piece(6.4, hi, frozenset({2})),
            ]
        )
        solver = TimeVaryingUntil(
            ctx2, g1, g2, TimeInterval(0.0, upper), theta=theta
        )
        times = np.linspace(0.0, theta, 9)
        slow = np.stack(
            [solver.curve(method="recompute").values(t) for t in times]
        )
        fast = np.stack(
            [solver.curve(method="propagate").values(t) for t in times]
        )
        assert np.max(np.abs(fast - slow)) < 1e-5

    def test_gossip_nested_propagate(self):
        """Time-varying until on the gossip model, propagate vs recompute."""
        from repro.models.gossip import gossip_model
        from repro.checking.nested import TimeVaryingUntil
        from repro.checking.satsets import Piece, PiecewiseSatSet
        from repro.logic.ast import TimeInterval

        model = gossip_model()
        ctx = EvaluationContext(model, np.array([0.85, 0.15, 0.0]))
        theta, upper = 3.0, 5.0
        hi = theta + upper
        g1 = PiecewiseSatSet.constant(frozenset({0, 1}), 0.0, hi)
        g2 = PiecewiseSatSet(
            [
                Piece(0.0, 2.6, frozenset({1})),
                Piece(2.6, 5.2, frozenset({1, 2})),
                Piece(5.2, hi, frozenset({2})),
            ]
        )
        solver = TimeVaryingUntil(
            ctx, g1, g2, TimeInterval(0, upper), theta=theta
        )
        times = np.linspace(0.0, theta, 7)
        slow = np.stack(
            [solver.curve(method="recompute").values(t) for t in times]
        )
        fast = solver.curve(method="propagate").values_many(times)
        assert np.max(np.abs(fast - slow)) < 1e-5
