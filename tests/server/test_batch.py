"""Tests for the batch API (``CheckingService.handle_batch`` + ``/batch``).

Covers the batch contract end to end: envelope validation, per-item
error isolation (a malformed item must not fail its siblings), the
shared batch budget, admission control that rejects whole envelopes
without touching the warm cache, duplicate items answered from the
response cache, and counter consistency under concurrent batches.
"""

import threading

import pytest

from repro.checking.global_ import MFModelChecker
from repro.exceptions import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CHECKING_ERROR,
    EXIT_FORMULA_ERROR,
    EXIT_MODEL_ERROR,
)
from repro.server.service import (
    HTTP_STATUS_REJECTED,
    CheckingService,
    ServerConfig,
)

FORMULA = "EP[<0.3](not_infected U[0,1] infected)"
FORMULA2 = "E[<0.5](infected)"


def _request(**overrides) -> dict:
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
    try:
        yield svc
    finally:
        svc.close()


class TestEnvelopeValidation:
    def test_non_object_envelope(self, service):
        status, body = service.handle_batch([_request()])
        assert status == 400
        assert "JSON object" in body["message"]

    def test_missing_queries(self, service):
        status, body = service.handle_batch({})
        assert status == 400
        assert "queries" in body["message"]

    def test_empty_queries(self, service):
        status, body = service.handle_batch({"queries": []})
        assert status == 400

    def test_too_many_items(self):
        svc = CheckingService(ServerConfig(max_batch_items=4))
        try:
            status, body = svc.handle_batch(
                {"queries": [_request()] * 5}
            )
            assert status == 400
            assert "at most 4" in body["message"]
        finally:
            svc.close()

    def test_bad_envelope_deadline(self, service):
        status, body = service.handle_batch(
            {"queries": [_request()], "deadline": "soon"}
        )
        assert status == 400
        status, body = service.handle_batch(
            {"queries": [_request()], "deadline": float("nan")}
        )
        assert status == 400
        status, body = service.handle_batch(
            {"queries": [_request()], "deadline": -1.0}
        )
        assert status == 400

    def test_bad_envelope_max_solves(self, service):
        status, body = service.handle_batch(
            {"queries": [_request()], "max_solves": 0}
        )
        assert status == 400

    def test_bad_config_bound(self):
        with pytest.raises(Exception):
            ServerConfig(max_batch_items=0)

    def test_closed_service(self):
        svc = CheckingService(ServerConfig())
        svc.close()
        status, body = svc.handle_batch({"queries": [_request()]})
        assert body["status"] == "error"


class TestBatchAnswers:
    def test_batch_matches_single_requests(self, service):
        queries = [
            _request(),
            _request(formula=FORMULA2),
            _request(occupancy=[0.6, 0.3, 0.1]),
        ]
        singles = [service.handle(dict(q)) for q in queries]
        status, body = service.handle_batch(
            {"queries": [dict(q) for q in queries]}
        )
        assert status == 200
        assert body["status"] == "ok"
        assert body["items"] == 3
        assert body["errors"] == 0
        for (s_status, s_body), b_body, code in zip(
            singles, body["results"], body["exit_codes"]
        ):
            assert s_status == 200
            assert b_body["verdict"] == s_body["verdict"]
            assert code == s_body["exit_code"]

    def test_one_malformed_item_of_eight(self, service):
        queries = [_request() for _ in range(8)]
        queries[3] = {"command": "explode"}
        status, body = service.handle_batch({"queries": queries})
        # Partial failure is per item: the envelope still answers 200.
        assert status == 200
        assert body["items"] == 8
        assert body["errors"] == 1
        assert body["exit_codes"][3] == EXIT_MODEL_ERROR
        assert body["results"][3]["status"] == "error"
        for i in range(8):
            if i == 3:
                continue
            assert body["exit_codes"][i] == 0
            assert body["results"][i]["status"] == "ok"
        assert service.stats.service_batch_item_errors == 1

    def test_mistyped_item_option_fails_only_that_item(self, service):
        queries = [
            _request(),
            _request(options={"propagator_tol": "1e-6"}),
            _request(formula=FORMULA2),
        ]
        status, body = service.handle_batch({"queries": queries})
        assert status == 200
        assert body["exit_codes"] == [0, EXIT_MODEL_ERROR, 0]
        assert "propagator_tol" in body["results"][1]["message"]

    def test_unexpected_item_error_fails_only_that_item(
        self, service, monkeypatch
    ):
        original = MFModelChecker.check_detailed

        def raising(self, formula, occupancy, ctx=None):
            if formula == FORMULA2:
                raise RuntimeError("injected: not a library error")
            return original(self, formula, occupancy, ctx=ctx)

        monkeypatch.setattr(MFModelChecker, "check_detailed", raising)
        queries = [
            _request(),
            _request(formula=FORMULA2),
            _request(formula="E[>0.1](infected)"),
        ]
        status, body = service.handle_batch({"queries": queries})
        assert status == 200
        assert body["exit_codes"] == [0, EXIT_CHECKING_ERROR, 0]
        assert body["results"][1]["error_class"] == "RuntimeError"

    def test_huge_occupancy_entry_fails_only_that_item(self, service):
        queries = [
            _request(),
            _request(occupancy=[0.8, 10**400, 0.05]),
            _request(formula=FORMULA2),
        ]
        status, body = service.handle_batch({"queries": queries})
        assert status == 200
        assert body["exit_codes"] == [0, EXIT_MODEL_ERROR, 0]
        assert (
            "'occupancy' entry 1 must be finite"
            in body["results"][1]["message"]
        )

    def test_too_deep_formula_fails_only_that_item(
        self, service, on_fresh_thread
    ):
        leaf = "E[>0.1](infected)"
        queries = [
            _request(),
            _request(formula=" & ".join([leaf] * 1000)),
            _request(formula="(" * 200 + leaf + ")" * 200),
            _request(formula=FORMULA2),
        ]
        status, body = on_fresh_thread(
            service.handle_batch, {"queries": queries}
        )
        assert status == 200
        assert body["exit_codes"] == [
            0, EXIT_FORMULA_ERROR, EXIT_FORMULA_ERROR, 0
        ]

    def test_duplicate_items_hit_the_response_cache(self, service):
        status, body = service.handle_batch(
            {"queries": [_request(), _request()]}
        )
        assert status == 200
        assert body["errors"] == 0
        assert body["cache"]["hits"] == 1
        assert (
            body["results"][0]["verdict"] == body["results"][1]["verdict"]
        )

    def test_batch_counters(self, service):
        service.handle_batch({"queries": [_request(), _request()]})
        assert service.stats.service_batch_requests == 1
        assert service.stats.service_batch_items == 2
        assert service.stats.service_requests == 2


class TestBatchBudget:
    def test_exhausted_deadline_gives_per_item_exit_5(self, service):
        status, body = service.handle_batch(
            {"queries": [_request(), _request(formula=FORMULA2)],
             "deadline": 1e-6}
        )
        # The envelope itself succeeds; every item ran out of the
        # shared budget and says so in its own slot.
        assert status == 200
        assert body["errors"] == 2
        assert body["exit_codes"] == [
            EXIT_BUDGET_EXCEEDED,
            EXIT_BUDGET_EXCEEDED,
        ]
        for item in body["results"]:
            assert item["status"] == "error"

    def test_envelope_max_solves_is_item_default(self, service):
        # One solve is not enough for a cold cSat scan; the envelope's
        # max_solves becomes the item's default and trips its budget.
        status, body = service.handle_batch(
            {
                "queries": [_request(command="csat", theta=5.0)],
                "max_solves": 1,
            }
        )
        assert status == 200
        assert body["exit_codes"] == [EXIT_BUDGET_EXCEEDED]

    def test_item_max_solves_overrides_envelope(self, service):
        status, body = service.handle_batch(
            {
                "queries": [
                    _request(
                        command="csat", theta=5.0, max_solves=100000
                    )
                ],
                "max_solves": 1,
            }
        )
        assert status == 200
        assert body["exit_codes"] == [0]


class TestBatchAdmission:
    def test_rejected_batch_does_not_evict_warm_cache(self):
        svc = CheckingService(
            ServerConfig(max_concurrent=1, queue_timeout=0.05)
        )
        try:
            status, _ = svc.handle(_request())
            assert status == 200
            warm_entries = len(svc._entries)
            assert warm_entries == 1
            # Occupy the only worker slot, then ask for a batch.
            assert svc._slots.acquire(timeout=1.0)
            try:
                status, body = svc.handle_batch(
                    {"queries": [_request(formula=FORMULA2)]}
                )
            finally:
                svc._slots.release()
            assert status == HTTP_STATUS_REJECTED
            assert body["error_class"] == "AdmissionRejected"
            assert body["exit_code"] == EXIT_BUDGET_EXCEEDED
            assert svc.stats.service_rejections == 1
            # The warm entry survived untouched and still answers.
            assert len(svc._entries) == warm_entries
            status, body = svc.handle(_request())
            assert status == 200
            assert body["cache"]["hit"] is True
        finally:
            svc.close()


class TestConcurrentBatches:
    def test_stats_stay_consistent(self, service):
        n_threads, n_items = 4, 4
        queries = [
            _request() if i % 2 == 0 else _request(formula=FORMULA2)
            for i in range(n_items)
        ]
        outcomes = [None] * n_threads

        def run(slot):
            outcomes[slot] = service.handle_batch(
                {"queries": [dict(q) for q in queries]}
            )

        threads = [
            threading.Thread(target=run, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for status, body in outcomes:
            assert status == 200
            assert body["items"] == n_items
            assert body["errors"] == 0
            assert body["exit_codes"] == [0] * n_items
        payload = service.stats_payload()["service"]
        assert payload["service_batch_requests"] == n_threads
        assert payload["service_batch_items"] == n_threads * n_items
        assert payload["service_requests"] == n_threads * n_items
        assert payload["service_batch_item_errors"] == 0
        # One entry, two distinct queries: each computed exactly once
        # under the entry lock, every other item a response-cache hit.
        assert payload["service_cache_misses"] == 1
        assert payload["service_cache_hits"] == n_threads * n_items - 2
