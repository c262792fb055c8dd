"""Tests for the client's retry and backoff behaviour.

The scripted tests shadow ``service.handle`` on a live in-process
server, so the retries travel the real HTTP path; sleeps and jitter are
injected, so no test actually waits.
"""

import random
import socket
import threading

import pytest

from repro.exceptions import CheckingError
from repro.server.client import (
    RETRYABLE_ERROR_CLASSES,
    ServerClient,
    response_is_retryable,
)
from repro.server.http import make_server
from repro.server.service import CheckingService, ServerConfig

FORMULA = "EP[<0.3](not_infected U[0,1] infected)"

REQUEST = {
    "command": "check",
    "model": "virus1",
    "occupancy": [0.8, 0.15, 0.05],
    "formula": FORMULA,
}


@pytest.fixture
def server():
    srv = make_server(port=0, config=ServerConfig())
    # Clients make_client opens against this server, closed on teardown:
    # a keep-alive connection left open is a ResourceWarning under
    # ``python -X dev``.
    srv.test_clients = []
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    for client in srv.test_clients:
        client.close()
    srv.shutdown()
    srv.server_close()


def make_client(server, **kwargs):
    host, port = server.server_address[:2]
    kwargs.setdefault("timeout", 60.0)
    kwargs.setdefault("rng", random.Random(7))
    sleeps = []
    kwargs.setdefault("sleep", sleeps.append)
    client = ServerClient(f"http://{host}:{port}", **kwargs)
    server.test_clients.append(client)
    return client, sleeps


def script_responses(server, canned):
    """Make the first ``len(canned)`` requests answer from a script,
    then fall through to the real service."""
    service = server.service
    real = service.handle
    remaining = list(canned)

    def scripted(payload):
        if remaining:
            return remaining.pop(0)
        return real(payload)

    service.handle = scripted


def rejection(error_class, status=503, **extra):
    body = {
        "status": "error",
        "error_class": error_class,
        "message": f"scripted {error_class}",
        "exit_code": 5,
    }
    body.update(extra)
    return status, body


class TestRetryPolicy:
    def test_classifier(self):
        assert response_is_retryable(429, {}) is True
        for error_class in RETRYABLE_ERROR_CLASSES:
            assert response_is_retryable(
                503, {"error_class": error_class}
            )
        assert not response_is_retryable(
            503, {"error_class": "BudgetExceededError"}
        )
        assert not response_is_retryable(200, {})
        assert not response_is_retryable(400, {"error_class": "ModelError"})

    def test_retries_past_admission_rejection(self, server):
        script_responses(server, [rejection("AdmissionRejected", status=429)])
        client, sleeps = make_client(server, retries=3)
        status, body = client.query(REQUEST)
        assert status == 200
        assert body["status"] == "ok"
        assert len(sleeps) == 1
        assert client.resilience_stats["retries"] == 1

    def test_retries_past_draining_and_worker_crash(self, server):
        script_responses(
            server,
            [rejection("Draining"), rejection("WorkerCrashError")],
        )
        client, sleeps = make_client(server, retries=3)
        status, body = client.query(REQUEST)
        assert status == 200
        assert len(sleeps) == 2

    def test_budget_503_is_returned_not_retried(self, server):
        """A deadline expiry is this request's own definitive answer;
        retrying would burn another deadline for the same outcome."""
        client, sleeps = make_client(server, retries=3)
        status, body = client.query({**REQUEST, "deadline": 1e-9})
        assert status == 503
        assert body["error_class"] == "BudgetExceededError"
        assert sleeps == []
        assert server.service.stats.service_requests == 1

    def test_retries_exhausted_returns_last_response(self, server):
        script_responses(server, [rejection("Draining")] * 5)
        client, sleeps = make_client(server, retries=2)
        status, body = client.query(REQUEST)
        assert status == 503
        assert body["error_class"] == "Draining"
        assert len(sleeps) == 2

    def test_zero_retries_restores_fail_fast(self, server):
        script_responses(server, [rejection("Draining")])
        client, sleeps = make_client(server, retries=0)
        status, body = client.query(REQUEST)
        assert status == 503
        assert sleeps == []

    def test_retry_after_header_is_honored_up_to_cap(self, server):
        script_responses(
            server, [rejection("Draining", retry_after=3.0)]
        )
        client, sleeps = make_client(
            server, retries=1, backoff_base=0.001, backoff_cap=4.0
        )
        status, _ = client.query(REQUEST)
        assert status == 200
        assert sleeps == [3.0]  # server hint, under the cap

    def test_retry_after_capped_by_backoff_cap(self, server):
        script_responses(
            server, [rejection("Draining", retry_after=120.0)]
        )
        client, sleeps = make_client(
            server, retries=1, backoff_base=0.001, backoff_cap=2.0
        )
        status, _ = client.query(REQUEST)
        assert status == 200
        assert sleeps == [2.0]  # an interactive caller never waits 120s

    def test_backoff_grows_with_jitter(self, server):
        script_responses(server, [rejection("Draining")] * 4)
        client, sleeps = make_client(
            server, retries=4, backoff_base=1.0, backoff_cap=8.0
        )
        client.query(REQUEST)
        assert len(sleeps) == 4
        # Full jitter: each delay is uniform in [0, base * 2**attempt),
        # so the *ceilings* double while individual draws stay random.
        for attempt, delay in enumerate(sleeps):
            assert 0.0 <= delay <= min(2.0**attempt, 8.0)

    def test_connect_errors_retry_then_raise(self):
        sleeps = []
        dead = ServerClient(
            "http://127.0.0.1:1",
            timeout=0.2,
            retries=2,
            sleep=sleeps.append,
            rng=random.Random(7),
        )
        with pytest.raises(CheckingError, match="cannot reach"):
            dead.query(REQUEST)
        assert len(sleeps) == 2

    def test_retries_reach_a_server_that_comes_back(self):
        """Every retry reaches the network: a server that starts while
        the client is still backing off answers the next attempt."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        sleeps, servers = [], []

        def sleep(delay):
            sleeps.append(delay)
            if len(sleeps) == 5:
                srv = make_server(port=port, config=ServerConfig())
                threading.Thread(
                    target=srv.serve_forever, daemon=True
                ).start()
                servers.append(srv)

        client = ServerClient(
            f"http://127.0.0.1:{port}",
            timeout=60.0,
            retries=8,
            rng=random.Random(7),
            sleep=sleep,
        )
        try:
            status, body = client.query(REQUEST)
        finally:
            client.close()
            for srv in servers:
                srv.shutdown()
                srv.server_close()
        assert status == 200
        assert body["status"] == "ok"
        assert len(sleeps) == 5

    def test_knob_validation(self):
        with pytest.raises(CheckingError):
            ServerClient("http://x", retries=-1)
        with pytest.raises(CheckingError):
            ServerClient("http://x", backoff_base=0.0)
        with pytest.raises(CheckingError):
            ServerClient("http://x", backoff_base=2.0, backoff_cap=1.0)
