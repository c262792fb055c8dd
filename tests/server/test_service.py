"""Tests for the transport-free checking service.

Everything here calls :meth:`CheckingService.handle` directly — no
sockets — which is exactly how the HTTP layer calls it.  The threaded
tests exercise the entry-lock and admission-control paths for real by
slowing the underlying computation down with a monkeypatched checker.
"""

import hashlib
import pickle
import sys
import threading
import time

import pytest

from repro.checking.context import EvaluationContext
from repro.checking.global_ import MFModelChecker
from repro.exceptions import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CHECKING_ERROR,
    EXIT_FORMULA_ERROR,
    NumericalError,
)
from repro.io import model_hash
from repro.models import MODEL_REGISTRY, SETTING_1, virus_model
from repro.server.service import (
    _SPILL_MAGIC,
    HTTP_STATUS_REJECTED,
    CheckingService,
    ServerConfig,
)

FORMULA = "EP[<0.3](not_infected U[0,1] infected)"

LEAF = "E[>0.1](infected)"


def check_request(**overrides):
    payload = {
        "command": "check",
        "model": "virus1",
        "occupancy": [0.8, 0.15, 0.05],
        "formula": FORMULA,
    }
    payload.update(overrides)
    return payload


@pytest.fixture
def service():
    svc = CheckingService(ServerConfig())
    yield svc
    svc.close()


class TestValidation:
    """Malformed requests earn a 400 with the documented error shape."""

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            None,
            42,
            {},
            {"command": "launch"},
            check_request(formula=""),
            check_request(formula=7),
            check_request(occupancy=[]),
            check_request(occupancy="0.8,0.2"),
            check_request(occupancy=[0.8, "x", 0.05]),
            check_request(theta=5.0),  # theta only valid for csat
            {**check_request(), "command": "csat", "theta": -1.0},
            {**check_request(), "command": "csat", "theta": float("nan")},
            {**check_request(), "command": "csat", "theta": float("inf")},
            check_request(model="no-such-model"),
            check_request(model_document={"format": "wrong"}),
            check_request(options={"no_such_option": 1}),
            check_request(options="fast"),
            check_request(options={"grid_points": 1}),
            check_request(deadline=-2.0),
            check_request(deadline=True),
            check_request(max_solves=0),
            check_request(max_solves=2.5),
            check_request(options={"curve_method": "cells"}),
            check_request(options={"transient_method": "propagator"}),
            # Mistyped option fields.
            check_request(options={"workers": "2"}),
            check_request(options={"ode_rtol": "1e-8"}),
            check_request(options={"grid_points": "129"}),
            check_request(options={"max_memory_mb": "5"}),
            check_request(options={"solver_fallbacks": None}),
            check_request(
                options={"formula_optimizations": ["vacuity", "dedup"]}
            ),
            check_request(options={"formula_optimizations": []}),
            # Non-finite limits and tolerances.
            check_request(deadline=float("nan")),
            check_request(deadline=float("inf")),
            check_request(options={"deadline": float("nan")}),
            check_request(options={"max_memory_mb": float("nan")}),
            check_request(options={"max_memory_mb": float("inf")}),
            check_request(options={"residual_tol": float("nan")}),
            check_request(options={"ode_rtol": float("nan")}),
            {**check_request(), "command": "csat", "theta": 10**400},
            check_request(deadline=5.0, options={"deadline": "soon"}),
            check_request(max_solves=5, options={"max_solves": float("nan")}),
            check_request(options={"until_method": "simple"}),
            check_request(occupancy=[0.8, 10**400, 0.05]),
        ],
    )
    def test_bad_request_is_400(self, service, payload):
        status, body = service.handle(payload)
        assert status == 400
        assert body["status"] == "error"
        assert body["exit_code"] in (2, 3)
        assert body["message"]

    def test_nan_tolerance_is_named(self, service):
        status, body = service.handle(
            check_request(options={"ode_rtol": float("nan")})
        )
        assert status == 400
        assert "ode_rtol must be finite" in body["message"]

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    def test_non_finite_theta_is_named(self, service, theta):
        status, body = service.handle(
            check_request(command="csat", theta=theta)
        )
        assert status == 400
        assert "theta" in body["message"]

    def test_occupancy_must_sum_to_one(self, service):
        status, body = service.handle(
            check_request(occupancy=[0.5, 0.1, 0.05])
        )
        assert status == 400
        assert body["status"] == "error"


class TestColdWarm:
    def test_warm_identical_request_is_a_cache_hit(self, service):
        s1, r1 = service.handle(check_request())
        s2, r2 = service.handle(check_request())
        assert s1 == s2 == 200
        assert r1["cache"]["hit"] is False
        assert r2["cache"]["hit"] is True
        # Identical verdict, byte for byte.
        assert r2["verdict"] == r1["verdict"]
        assert r2["exit_code"] == r1["exit_code"]
        assert service.stats.service_cache_hits == 1
        assert service.stats.service_cache_misses == 1

    def test_verdict_shape_and_exit_codes(self, service):
        _, sat = service.handle(check_request())
        assert sat["verdict"]["holds"] is True
        assert sat["exit_code"] == 0
        _, unsat = service.handle(
            check_request(formula="E[>0.8](infected)")
        )
        assert unsat["verdict"]["holds"] is False
        assert unsat["exit_code"] == 1

    def test_value_and_csat_commands(self, service):
        s, r = service.handle(check_request(command="value"))
        assert s == 200
        assert r["value"] == pytest.approx(0.2338842135, abs=1e-6)
        s, r = service.handle(check_request(command="csat", theta=5.0))
        assert s == 200
        assert r["theta"] == 5.0
        assert r["intervals"] == [[0.0, 5.0]]

    def test_answer_does_not_depend_on_earlier_requests(self, service):
        """An answer is a function of its request alone: a cSat after
        another one on the same occupancy equals what a fresh service
        answers for it.  A context kept from the first request would
        extend its trajectory instead of solving it once, moving the
        crossing by 1.8e-10."""
        service.handle(
            check_request(
                command="csat", formula="E[>0.1](infected)", theta=3.0
            )
        )
        second = check_request(
            command="csat", formula="E[>0.15](infected)", theta=20.0
        )
        status, body = service.handle(second)
        fresh = CheckingService(ServerConfig())
        try:
            fresh_status, fresh_body = fresh.handle(second)
        finally:
            fresh.close()
        assert status == fresh_status == 200
        assert body["cache"]["hit"] is False
        assert body["intervals"] == fresh_body["intervals"]
        assert body["intervals"][0][0] == 0.0
        assert body["intervals"][0][1] == pytest.approx(6.2668, abs=1e-4)

    def test_distinct_occupancies_share_the_entry(self, service):
        service.handle(check_request())
        _, body = service.handle(check_request(occupancy=[0.7, 0.2, 0.1]))
        assert body["cache"] == {"hit": False, "cold_entry": False}
        assert service.stats.service_cache_misses == 1
        assert len(service._entries) == 1

    def test_deadline_only_difference_shares_the_entry(self, service):
        """Execution limits are excluded from the options signature, so
        a deadline-carrying request warms the same entry."""
        service.handle(check_request())
        s, r = service.handle(check_request(deadline=60.0))
        assert s == 200
        # Same answer, same cache entry — the response cache also
        # ignores execution limits.
        assert r["cache"]["hit"] is True
        assert service.stats.service_cache_misses == 1

    def test_answer_shaping_options_split_entries(self, service):
        service.handle(check_request())
        service.handle(check_request(options={"curve_method": "recompute"}))
        assert service.stats.service_cache_misses == 2

    def test_occupancy_rounding_noise_shares_the_response(self, service):
        service.handle(check_request())
        s, r = service.handle(
            check_request(occupancy=[0.8 + 1e-14, 0.15, 0.05])
        )
        assert s == 200
        assert r["cache"]["hit"] is True

    @pytest.mark.parametrize("noisy_first", [True, False])
    def test_answer_is_a_function_of_its_key(self, noisy_first):
        """Two occupancies that round to one response key get the answer
        computed at the rounded vector, in either order: the answer a
        fresh service gives the exact point.  Computed at the first
        request's own digits, the noisy point answered 6.26682319034974
        to both."""
        exact = [0.8, 0.15, 0.05]
        noisy = [0.8 + 4e-13, 0.15 - 4e-13, 0.05]

        def csat(occupancy):
            return check_request(
                command="csat",
                formula="E[>0.15](infected)",
                theta=20.0,
                occupancy=occupancy,
            )

        fresh = CheckingService(ServerConfig())
        try:
            _, reference = fresh.handle(csat(exact))
        finally:
            fresh.close()
        order = [noisy, exact] if noisy_first else [exact, noisy]
        svc = CheckingService(ServerConfig())
        try:
            (s1, first), (s2, second) = (
                svc.handle(csat(occ)) for occ in order
            )
        finally:
            svc.close()
        assert s1 == s2 == 200
        assert first["cache"]["hit"] is False
        assert second["cache"]["hit"] is True
        assert first["intervals"] == second["intervals"]
        assert first["intervals"] == reference["intervals"]
        assert reference["intervals"][0][1] == pytest.approx(6.2668, abs=1e-4)


class TestRegistryModels:
    """A service builds each registry model once and shares it."""

    def test_one_build_per_registry_name_per_service(self, monkeypatch):
        factory = MODEL_REGISTRY["virus1"]
        builds = []

        def counting_factory():
            builds.append(1)
            return factory()

        monkeypatch.setitem(MODEL_REGISTRY, "virus1", counting_factory)
        expected = model_hash(
            virus_model(SETTING_1), fallback="builtin:virus1"
        )

        svc = CheckingService(ServerConfig())
        try:
            bodies = [
                svc.handle(check_request(occupancy=occ))[1]
                for occ in (
                    [0.8, 0.15, 0.05],
                    [0.7, 0.2, 0.1],
                    [0.9, 0.05, 0.05],
                )
            ]
            status, batch = svc.handle_batch(
                {
                    "queries": [
                        check_request(occupancy=[0.6, 0.3, 0.1]),
                        check_request(occupancy=[0.65, 0.3, 0.05]),
                        check_request(command="value"),
                        check_request(),
                    ]
                }
            )
            assert status == 200
            bodies.extend(batch["results"])
            bodies.append(
                svc.handle(
                    check_request(options={"curve_method": "recompute"})
                )[1]
            )
            assert len(bodies) == 8
            assert all(b["status"] == "ok" for b in bodies)
            assert svc.stats.service_cache_misses == 2  # two entries
            assert len(builds) == 1
            assert {b["model_hash"] for b in bodies} == {expected}
        finally:
            svc.close()

        second = CheckingService(ServerConfig())
        try:
            second.handle(check_request())
        finally:
            second.close()
        assert len(builds) == 2

    def test_concurrent_entries_share_one_model(self):
        """Cold requests on two entries race on the shared model's lazily
        built state; every answer must match a fresh single-threaded
        service's, and both entries must hold the one model object."""
        n = 8
        requests = [
            {
                "command": "csat",
                "model": "virus2",
                "occupancy": [
                    round(0.98 - 0.02 * i, 3),
                    round(0.015 + 0.015 * i, 3),
                    round(0.005 + 0.005 * i, 3),
                ],
                "formula": "E[>0.1](P[>0.8](tt U[0,0.5] infected))",
                "theta": 10.0,
                "options": {} if i % 2 else {"curve_method": "recompute"},
            }
            for i in range(n)
        ]

        def answer(body):
            return {
                k: v
                for k, v in body.items()
                if k not in ("cache", "stats_delta")
            }

        svc = CheckingService(ServerConfig(max_concurrent=n))
        barrier = threading.Barrier(n)
        results = [None] * n

        def worker(i):
            barrier.wait(10.0)
            results[i] = svc.handle(requests[i])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(20.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in threads)
            assert len(svc._entries) == 2
            shared = svc._registry_models["virus2"][0]
            assert all(e.model is shared for e in svc._entries.values())
        finally:
            svc.close()

        for request, (status, body) in zip(requests, results):
            assert status == 200, body
            reference = CheckingService(ServerConfig())
            try:
                ref_status, ref_body = reference.handle(request)
            finally:
                reference.close()
            assert ref_status == 200
            assert answer(body) == answer(ref_body)
        assert any(
            body["intervals"] not in ([], [[0.0, 10.0]])
            for _, body in results
        )


class TestBudgets:
    def test_tiny_deadline_rejected_with_progress(self, service):
        status, body = service.handle(check_request(deadline=1e-9))
        assert status == 503
        assert body["status"] == "error"
        assert body["error_class"] == "BudgetExceededError"
        assert body["exit_code"] == EXIT_BUDGET_EXCEEDED
        assert body["progress"]["deadline_seconds"] == 1e-9
        assert "elapsed_seconds" in body["progress"]

    def test_budget_rearm_after_deadline_failure(self, service):
        """Regression: the entry budget must re-anchor per request — a
        failed tight-deadline request must not poison the entry for the
        next, unhurried one."""
        status, _ = service.handle(check_request(deadline=1e-9))
        assert status == 503
        status, body = service.handle(check_request())
        assert status == 200
        assert body["status"] == "ok"
        assert body["verdict"]["holds"] is True

    def test_budget_errors_are_not_cached(self, service):
        service.handle(check_request(deadline=1e-9))
        status, body = service.handle(check_request())
        assert status == 200
        assert body["cache"]["hit"] is False

    def test_default_deadline_applies_when_unset(self):
        svc = CheckingService(ServerConfig(default_deadline=1e-9))
        try:
            status, body = svc.handle(check_request())
            assert status == 503
            assert body["error_class"] == "BudgetExceededError"
            # An explicit null deadline opts out of the default.
            status, body = svc.handle(check_request(deadline=None))
            assert status == 200
        finally:
            svc.close()

    def test_deadline_ends_a_crawling_occupancy_ode(self):
        """The occupancy ODE obeys the request deadline: the request
        answers 503 in time and hands its admission slot back."""
        svc = CheckingService(
            ServerConfig(max_concurrent=1, queue_timeout=1.0)
        )
        crawling = check_request(
            occupancy=[0.1, 0.5, 0.4],
            formula="EP[<0.4](infected U[0,5] not_infected)",
            deadline=2,
        )
        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(svc.handle(crawling)), daemon=True
        )
        try:
            thread.start()
            thread.join(3.0)
            assert not thread.is_alive(), "the request outlived its deadline"
            status, body = outcome[0]
            assert status == 503
            assert body["error_class"] == "BudgetExceededError"
            status, _ = svc.handle(check_request())
            assert status == 200
        finally:
            svc.close()

    def test_max_solves_enforced(self, service):
        # csat propagates the until window across [0, theta] — far more
        # than one charged solve.
        status, body = service.handle(
            check_request(command="csat", theta=5.0, max_solves=1)
        )
        assert status == 503
        assert body["error_class"] == "BudgetExceededError"
        assert "cap 1" in body["message"]


class TestCoalescing:
    """Identical requests share one computation through the entry lock:
    whoever takes it after the computer finds the stored answer."""

    def test_identical_concurrent_queries_compute_once(
        self, service, monkeypatch
    ):
        """N threads hammer one entry; exactly one computation runs,
        everyone gets the identical verdict, and the counters are not
        torn."""
        calls = []
        original = MFModelChecker.check_detailed

        def slow_check(self, formula, occupancy, ctx=None):
            calls.append(threading.get_ident())
            time.sleep(0.3)
            return original(self, formula, occupancy, ctx=ctx)

        monkeypatch.setattr(MFModelChecker, "check_detailed", slow_check)

        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n

        def worker(i):
            barrier.wait()
            results[i] = service.handle(check_request())

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        # Switch threads as often as possible while the burst runs, so
        # the lock hand-offs and counter updates interleave finely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert all(not t.is_alive() for t in threads)

        assert len(calls) == 1  # one computation for the whole burst
        statuses = {s for s, _ in results}
        verdicts = [r["verdict"] for _, r in results]
        assert statuses == {200}
        assert all(v == verdicts[0] for v in verdicts)

        stats = service.stats
        assert stats.service_requests == n
        # Everyone besides the computer was served from the response
        # cache, before or after waiting for the entry; nothing was
        # lost or torn.
        assert stats.service_cache_misses == 1
        assert stats.service_cache_hits == n - 1
        assert sum(r["cache"]["hit"] for _, r in results) == n - 1

    def test_different_limits_do_not_coalesce(self, service, monkeypatch):
        """A no-deadline request must never inherit a tight-deadline
        peer's budget error: errors are not cached, so the unhurried
        request computes under its own limits."""
        original = MFModelChecker.check_detailed

        def slow_check(self, formula, occupancy, ctx=None):
            time.sleep(0.2)
            return original(self, formula, occupancy, ctx=ctx)

        monkeypatch.setattr(MFModelChecker, "check_detailed", slow_check)

        results = {}

        def run(name, payload):
            results[name] = service.handle(payload)

        t1 = threading.Thread(
            target=run, args=("tight", check_request(deadline=1e-9))
        )
        t2 = threading.Thread(target=run, args=("free", check_request()))
        t1.start()
        time.sleep(0.05)  # ensure the tight request is in flight first
        t2.start()
        t1.join(timeout=30)
        t2.join(timeout=30)

        assert results["tight"][0] == 503
        assert results["free"][0] == 200
        assert results["free"][1]["verdict"]["holds"] is True


class TestFailureContainment:
    """Every failure answers its own request and caches nothing."""

    def test_unexpected_error_is_500_then_the_key_recovers(
        self, service, monkeypatch
    ):
        original = MFModelChecker.check_detailed
        calls = []

        def flaky(self, formula, occupancy, ctx=None):
            calls.append(formula)
            if len(calls) == 1:
                raise RuntimeError("injected: not a library error")
            return original(self, formula, occupancy, ctx=ctx)

        monkeypatch.setattr(MFModelChecker, "check_detailed", flaky)
        status, body = service.handle(check_request())
        assert status == 500
        assert body["error_class"] == "RuntimeError"
        assert body["exit_code"] == EXIT_CHECKING_ERROR
        status, body = service.handle(check_request())
        assert status == 200
        assert body["cache"]["hit"] is False
        assert len(calls) == 2

    def test_peer_of_a_failed_computation_computes_alone(
        self, service, monkeypatch
    ):
        """A request waiting behind an identical computation that fails
        is not handed the error: it computes under its own limits."""
        original = MFModelChecker.check_detailed
        started = threading.Event()
        calls = []

        def fails_once(self, formula, occupancy, ctx=None):
            calls.append(formula)
            if len(calls) == 1:
                started.set()
                time.sleep(0.3)
                raise RuntimeError("injected: not a library error")
            return original(self, formula, occupancy, ctx=ctx)

        monkeypatch.setattr(MFModelChecker, "check_detailed", fails_once)
        results = {}
        first = threading.Thread(
            target=lambda: results.update(
                first=service.handle(check_request())
            )
        )
        first.start()
        assert started.wait(timeout=30)
        results["peer"] = service.handle(check_request())
        first.join(timeout=30)
        assert not first.is_alive()
        assert results["first"][0] == 500
        status, body = results["peer"]
        assert status == 200
        assert body["cache"]["hit"] is False
        assert body["verdict"]["holds"] is True
        assert len(calls) == 2

    def test_ode_chain_failure_is_500_and_caches_nothing(
        self, service, monkeypatch
    ):
        def failing(self, signature, q_of_t, t_start, duration):
            raise NumericalError("injected: ode chain down")

        monkeypatch.setattr(EvaluationContext, "_transient_ode", failing)
        status, body = service.handle(check_request())
        assert status == 500
        assert body["error_class"] == "NumericalError"
        assert body["exit_code"] == EXIT_CHECKING_ERROR
        for entry in service._entries.values():
            assert not entry.responses
        monkeypatch.undo()
        status, body = service.handle(check_request())
        assert status == 200
        assert body["cache"]["hit"] is False
        assert set(body["verdict"]) == {"holds", "value", "margin"}
        # The failed window is solved afresh, not served from a cache.
        delta = body["stats_delta"]
        assert delta["transient_cache_misses"] > 0
        assert "transient_cache_hits" not in delta

    @pytest.mark.parametrize(
        "formula",
        ["(" * 200 + LEAF + ")" * 200, " & ".join([LEAF] * 1000)],
        ids=["200-parentheses", "1000-term-chain"],
    )
    def test_too_deep_formula_is_400(self, service, on_fresh_thread, formula):
        status, body = on_fresh_thread(
            service.handle, check_request(formula=formula)
        )
        assert status == 400
        assert body["exit_code"] == EXIT_FORMULA_ERROR
        assert "nested too deeply" in body["message"]

    @pytest.mark.parametrize(
        "formula",
        ["(" * 100 + LEAF + ")" * 100, " & ".join([LEAF] * 900)],
        ids=["100-parentheses", "900-term-chain"],
    )
    def test_deep_formula_within_reach_still_checks(
        self, service, on_fresh_thread, formula
    ):
        status, body = on_fresh_thread(
            service.handle, check_request(formula=formula)
        )
        assert status == 200
        assert body["verdict"]["holds"] is True


class TestAdmission:
    def test_saturated_pool_rejects_with_429(self, monkeypatch):
        svc = CheckingService(
            ServerConfig(max_concurrent=1, queue_timeout=0.05)
        )
        original = MFModelChecker.check_detailed

        def slow_check(self, formula, occupancy, ctx=None):
            time.sleep(0.6)
            return original(self, formula, occupancy, ctx=ctx)

        monkeypatch.setattr(MFModelChecker, "check_detailed", slow_check)

        results = {}

        def run(name, payload):
            results[name] = svc.handle(payload)

        try:
            # Two *different* formulas: each needs its own computation.
            t1 = threading.Thread(
                target=run, args=("a", check_request())
            )
            t2 = threading.Thread(
                target=run,
                args=("b", check_request(formula="E[>0.8](infected)")),
            )
            t1.start()
            time.sleep(0.1)
            t2.start()
            t1.join(timeout=30)
            t2.join(timeout=30)

            assert results["a"][0] == 200
            status, body = results["b"]
            assert status == HTTP_STATUS_REJECTED == 429
            assert body["error_class"] == "AdmissionRejected"
            assert body["exit_code"] == EXIT_BUDGET_EXCEEDED
            assert "retry" in body["message"]
            assert svc.stats.service_rejections == 1
        finally:
            svc.close()


class TestEvictionAndSpill:
    def test_lru_eviction_beyond_max_entries(self, tmp_path):
        svc = CheckingService(
            ServerConfig(max_entries=1, cache_dir=str(tmp_path))
        )
        try:
            svc.handle(check_request(model="virus1"))
            svc.handle(check_request(model="virus2"))
            assert svc.stats.service_cache_evictions == 1
            assert svc.stats.service_spill_saves == 1
            assert len(list(tmp_path.glob("entry-*.pkl"))) == 1
        finally:
            svc.close()

    def test_eviction_without_cache_dir_just_drops(self):
        svc = CheckingService(ServerConfig(max_entries=1))
        try:
            svc.handle(check_request(model="virus1"))
            svc.handle(check_request(model="virus2"))
            assert svc.stats.service_cache_evictions == 1
            assert svc.stats.service_spill_saves == 0
        finally:
            svc.close()

    def test_version_4_spill_with_transients_still_loads(self, tmp_path):
        """Earlier releases wrote version-4 spills that also carried a
        ``transients`` map (exported transient matrices per occupancy);
        the reader ignores the map and serves the stored response."""
        svc1 = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        _, cold = svc1.handle(check_request())
        svc1.close()
        (spill_file,) = tmp_path.glob("entry-*.pkl")
        header = len(_SPILL_MAGIC) + hashlib.sha256().digest_size
        payload = pickle.loads(spill_file.read_bytes()[header:])
        assert payload["version"] == 4
        assert "transients" not in payload

        occupancy = check_request()["occupancy"]
        checker = MFModelChecker(virus_model(SETTING_1))
        ctx = checker.context(occupancy)
        checker.check(FORMULA, ctx.initial, ctx=ctx)
        transients = dict(ctx._transient_cache)
        assert transients
        payload["transients"] = {
            tuple(round(x, 12) for x in occupancy): transients
        }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        spill_file.write_bytes(
            _SPILL_MAGIC + hashlib.sha256(blob).digest() + blob
        )

        svc2 = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        try:
            status, warm = svc2.handle(check_request())
            assert status == 200
            assert warm["cache"]["hit"] is True
            assert warm["verdict"] == cold["verdict"]
            assert svc2.stats.service_spill_loads == 1
            assert svc2.stats.service_spill_quarantined == 0
        finally:
            svc2.close()

    def test_spilled_entry_revives_across_service_instances(self, tmp_path):
        """Warm state survives a restart: a new service process finds
        the spilled entry and serves the response without recomputing."""
        svc1 = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        _, cold = svc1.handle(check_request())
        svc1.close()  # spills every warm entry
        assert svc1.stats.service_spill_saves == 1

        svc2 = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        try:
            status, warm = svc2.handle(check_request())
            assert status == 200
            assert svc2.stats.service_spill_loads == 1
            assert warm["cache"]["hit"] is True
            assert warm["verdict"] == cold["verdict"]
        finally:
            svc2.close()

    def test_closed_service_refuses_requests(self, tmp_path):
        svc = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        svc.close()
        status, body = svc.handle(check_request())
        assert status == 400
        assert "shut down" in body["message"]

    def test_failed_spill_is_counted(self, tmp_path):
        """A cache_dir that is a regular file makes every spill fail;
        the failure shows in /stats instead of vanishing."""
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("occupied")
        svc = CheckingService(ServerConfig(cache_dir=str(not_a_dir)))
        status, _ = svc.handle(check_request())
        assert status == 200
        svc.close()
        assert svc.stats.service_spill_failures == 1
        assert svc.stats.service_spill_saves == 0
        assert svc.stats_payload()["service"]["service_spill_failures"] == 1

    def test_second_close_waits_for_the_first_spill(self, tmp_path):
        """Regression: a concurrent close() used to return at once while
        the first caller was still spilling, letting ``mfcsl serve``
        exit 0 with the drain thread's spill cut off."""
        svc = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        svc.handle(check_request())
        spilling = threading.Event()
        release = threading.Event()
        spilled = threading.Event()
        original = svc._spill_entry

        def blocking_spill(entry):
            spilling.set()
            release.wait(10.0)
            original(entry)
            spilled.set()

        svc._spill_entry = blocking_spill
        first = threading.Thread(target=svc.close)
        first.start()
        assert spilling.wait(10.0)
        second_saw_spill_done = []

        def second_close():
            svc.close()
            second_saw_spill_done.append(spilled.is_set())

        second = threading.Thread(target=second_close)
        second.start()
        second.join(0.2)  # a non-waiting close() returns well within this
        release.set()
        first.join(10.0)
        second.join(10.0)
        assert not first.is_alive() and not second.is_alive()
        assert second_saw_spill_done == [True]
        assert svc.stats.service_spill_saves == 1


class TestStatsPayload:
    def test_stats_payload_shape(self, service):
        service.handle(check_request())
        service.handle(check_request())
        payload = service.stats_payload()
        assert payload["status"] == "ok"
        assert payload["service"]["service_requests"] == 2
        assert payload["service"]["service_cache_hits"] == 1
        assert len(payload["entries"]) == 1
        entry = payload["entries"][0]
        assert set(entry) == {
            "model_hash", "options_signature", "responses", "stats"
        }
        assert entry["model_hash"].startswith("sha256:")
        assert entry["responses"] == 1
        assert entry["stats"]["solve_ivp_calls"] > 0
        assert payload["config"]["max_entries"] == 32

    def test_stats_delta_reported_on_computes_only(self, service):
        _, cold = service.handle(check_request())
        _, warm = service.handle(check_request())
        assert cold["stats_delta"].get("solve_ivp_calls", 0) > 0
        assert warm["stats_delta"] == {}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_entries": 0},
            {"max_batch_items": 0},
            {"max_responses_per_entry": 0},
            {"default_deadline": -1.0},
            {"max_concurrent": 0},
            {"queue_timeout": -1.0},
            {"drain_deadline": 0.0},
            {"isolate": "thread"},
            {"queue_timeout": float("nan")},
            {"drain_deadline": float("nan")},
            {"connection_timeout": float("nan")},
            {"max_concurrent": "4"},
        ],
    )
    def test_bad_config_raises(self, kwargs):
        from repro.exceptions import ModelError

        with pytest.raises(ModelError):
            ServerConfig(**kwargs)
