"""Tests for the HTTP transport, the client, and the CLI entry points.

The in-process tests bind a real threading server on an ephemeral port
and talk to it through :class:`repro.server.client.ServerClient` — the
same path ``mfcsl query`` takes.  The subprocess test drives the full
``mfcsl serve`` command the way the CI smoke job does.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.server.client import ServerClient
from repro.server.http import make_server
from repro.server.service import ServerConfig

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
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture
def client(server):
    host, port = server.server_address[:2]
    with ServerClient(f"http://{host}:{port}", timeout=60.0) as client:
        yield client


class TestEndpoints:
    def test_health(self, client):
        assert client.health() is True

    def test_query_cold_then_warm(self, client):
        s1, r1 = client.query(REQUEST)
        s2, r2 = client.query(REQUEST)
        assert s1 == s2 == 200
        assert r1["cache"]["hit"] is False
        assert r2["cache"]["hit"] is True
        assert r2["verdict"] == r1["verdict"]

    def test_stats_endpoint(self, client):
        client.query(REQUEST)
        client.query(REQUEST)
        stats = client.stats()
        assert stats["service"]["service_requests"] == 2
        assert stats["service"]["service_cache_hits"] == 1

    def test_error_statuses_carry_json_bodies(self, client):
        status, body = client.query({"command": "bogus"})
        assert status == 400
        assert body["status"] == "error"
        assert body["exit_code"] == 2
        status, body = client.query({**REQUEST, "deadline": 1e-9})
        assert status == 503
        assert body["error_class"] == "BudgetExceededError"
        assert "progress" in body

    def test_unknown_path_is_404(self, client):
        status, body = client._request("/nope")
        assert status == 404
        assert body["error_class"] == "NotFound"

    def test_unreachable_server_raises_checking_error(self):
        from repro.exceptions import CheckingError

        with ServerClient("http://127.0.0.1:1", timeout=0.5) as dead:
            assert dead.health() is False
            with pytest.raises(CheckingError, match="cannot reach"):
                dead.query(REQUEST)

    def test_batch_endpoint(self, client):
        status, body = client.query_batch(
            [REQUEST, {"command": "bogus"}, dict(REQUEST)]
        )
        assert status == 200
        assert body["status"] == "ok"
        assert body["items"] == 3
        assert body["errors"] == 1
        assert body["exit_codes"][0] == 0
        assert body["exit_codes"][1] == 2
        assert body["exit_codes"][2] == 0
        # The duplicate item was answered from the response cache.
        assert body["cache"]["hits"] == 1

    def test_batch_envelope_error_is_400(self, client):
        status, body = client._request("/batch", {"queries": []})
        assert status == 400
        assert body["status"] == "error"


class TestKeepAlive:
    """The client holds one persistent HTTP/1.1 connection."""

    def test_connection_is_reused(self, client):
        client.query(REQUEST)
        conn = client._conn
        assert conn is not None
        client.query(REQUEST)
        client.stats()
        assert client._conn is conn  # same socket across requests

    def test_stale_connection_is_retried(self, client):
        status, _ = client.query(REQUEST)
        assert status == 200
        # Kill the cached socket behind the client's back; the next
        # request must transparently reconnect.
        client._conn.sock.close()
        status, body = client.query(REQUEST)
        assert status == 200
        assert body["cache"]["hit"] is True

    def test_close_then_reuse(self, client):
        client.query(REQUEST)
        client.close()
        assert client._conn is None
        status, _ = client.query(REQUEST)
        assert status == 200

    def test_context_manager(self, server):
        host, port = server.server_address[:2]
        with ServerClient(f"http://{host}:{port}", timeout=60.0) as c:
            assert c.health() is True
        assert c._conn is None


class TestServeSubprocess:
    """End-to-end smoke of ``mfcsl serve`` — the CI server-smoke job."""

    @pytest.fixture
    def serve_process(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            url = line.strip().split()[-1]
            yield url
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_serve_and_query_end_to_end(self, serve_process):
        url = serve_process
        with ServerClient(url, timeout=120.0) as client:
            deadline = time.monotonic() + 10.0
            while not client.health():
                assert time.monotonic() < deadline, "server never came up"
                time.sleep(0.05)

            s1, cold = client.query(REQUEST)
            s2, warm = client.query(REQUEST)
            assert s1 == s2 == 200
            assert cold["cache"]["hit"] is False
            assert warm["cache"]["hit"] is True
            assert warm["verdict"] == cold["verdict"]

            # A not-yet-cached formula: a cached answer would (correctly)
            # be served regardless of the deadline.
            status, body = client.query(
                {
                    **REQUEST,
                    "formula": "EP[<0.3](not_infected U[0,2] infected)",
                    "deadline": 1e-9,
                }
            )
            assert status == 503
            assert body["exit_code"] == 5

            stats = client.stats()
            assert stats["service"]["service_cache_hits"] >= 1


class TestQueryCommand:
    """The ``mfcsl query`` subcommand against an in-process server."""

    def test_query_check_exit_code_and_output(self, server, capsys):
        from repro.cli import main

        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        code = main(
            [
                "query",
                "--url",
                url,
                "--occupancy",
                "0.8,0.15,0.05",
                FORMULA,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SATISFIED" in out
        assert "cache: hit=False cold_entry=True" in out
        code = main(
            [
                "query",
                "--url",
                url,
                "--occupancy",
                "0.8,0.15,0.05",
                FORMULA,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cache: hit=True cold_entry=False" in out

    def test_query_value_and_csat(self, server, capsys):
        from repro.cli import main

        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        code = main(
            [
                "query",
                "--url",
                url,
                "--command",
                "value",
                "--occupancy",
                "0.8,0.15,0.05",
                FORMULA,
            ]
        )
        assert code == 0
        assert "0.2338" in capsys.readouterr().out
        code = main(
            [
                "query",
                "--url",
                url,
                "--command",
                "csat",
                "--theta",
                "5",
                "--occupancy",
                "0.8,0.15,0.05",
                FORMULA,
            ]
        )
        assert code == 0
        assert "[0.000000, 5.000000]" in capsys.readouterr().out

    def test_query_deadline_error_to_stderr(self, server, capsys):
        from repro.cli import main

        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        code = main(
            [
                "query",
                "--url",
                url,
                "--deadline",
                "1e-9",
                "--occupancy",
                "0.8,0.15,0.05",
                "EP[<0.3](not_infected U[0,2] infected)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert "error:" in captured.err
        assert "progress:" in captured.err

    def test_query_server_stats(self, server, capsys):
        from repro.cli import main

        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        code = main(["query", "--url", url, "--server-stats"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"

    def test_query_batch_file(self, server, capsys, tmp_path):
        from repro.cli import main

        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps(
                [
                    REQUEST,
                    {**REQUEST, "command": "value"},
                    {"command": "bogus"},
                ]
            )
        )
        code = main(["query", "--url", url, "--batch", str(batch)])
        out = capsys.readouterr().out
        # Exit code is the worst per-item code (2: the malformed item).
        assert code == 2
        assert "[0] exit=0 SATISFIED" in out
        assert "[1] exit=0 0.2338" in out
        assert "[2] exit=2 ERROR" in out
        assert "batch: items=3 errors=1" in out

    def test_query_closes_its_client(
        self, server, capsys, tmp_path, monkeypatch
    ):
        """Each ``mfcsl query`` call closes its keep-alive connection."""
        from repro.cli import main

        closed = []
        real_close = ServerClient.close

        def counting_close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(ServerClient, "close", counting_close)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([REQUEST]))
        calls = (
            ["--server-stats"],
            ["--occupancy", "0.8,0.15,0.05", FORMULA],
            ["--batch", str(batch)],
        )
        for argv in calls:
            assert main(["query", "--url", url, *argv]) == 0
        capsys.readouterr()
        assert len(closed) == len(calls)
        assert all(client._conn is None for client in closed)

    def test_query_batch_bad_file(self, server, capsys, tmp_path):
        from repro.cli import main

        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a batch\"}")
        code = main(["query", "--url", url, "--batch", str(bad)])
        assert code == 4
        assert "batch file" in capsys.readouterr().err

    def test_query_with_option_overrides(self, server, capsys):
        from repro.cli import main

        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        code = main(
            [
                "query",
                "--url",
                url,
                "--option",
                "curve_method=recompute",
                "--option",
                "grid_points=33",
                "--occupancy",
                "0.8,0.15,0.05",
                FORMULA,
            ]
        )
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out


class TestTransportRobustness:
    """Disconnects, idle timeouts and graceful drains at the HTTP layer."""

    def test_send_json_swallows_broken_pipe(self):
        """A client that hangs up mid-response must not unwind the
        handler thread; the event is counted instead."""
        from types import SimpleNamespace

        from repro.server.http import _Handler
        from repro.server.service import CheckingService

        service = CheckingService(ServerConfig())
        try:
            handler = _Handler.__new__(_Handler)
            handler.server = SimpleNamespace(service=service, verbose=False)
            handler.request_version = "HTTP/1.1"
            handler.requestline = "POST /query HTTP/1.1"
            handler.client_address = ("127.0.0.1", 1)
            handler.close_connection = False

            class GoneClient:
                def write(self, data):
                    raise BrokenPipeError("client hung up")

                def flush(self):
                    pass

            handler.wfile = GoneClient()
            handler._send_json(200, {"status": "ok"})  # must not raise
            assert handler.close_connection is True
            assert service.stats.service_client_disconnects == 1
        finally:
            service.close()

    def test_idle_keepalive_connection_times_out(self):
        """An idle keep-alive socket is closed after connection_timeout
        instead of pinning a daemon handler thread forever."""
        import socket

        srv = make_server(
            port=0, config=ServerConfig(connection_timeout=0.3)
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = srv.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.settimeout(10)
                # Send nothing: the server must hang up on us.
                assert sock.recv(1024) == b""
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if srv.service.stats.service_connection_timeouts >= 1:
                    break
                time.sleep(0.02)
            assert srv.service.stats.service_connection_timeouts == 1
        finally:
            srv.shutdown()
            srv.server_close()

    def test_connection_survives_timeout_of_other_client(self):
        """One client idling out must not disturb another's keep-alive
        connection."""
        import socket

        srv = make_server(
            port=0, config=ServerConfig(connection_timeout=0.5)
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = srv.server_address[:2]
            with ServerClient(f"http://{host}:{port}", timeout=60.0) as busy:
                assert busy.query(REQUEST)[0] == 200
                with socket.create_connection(
                    (host, port), timeout=10
                ) as idle:
                    idle.settimeout(10)
                    assert idle.recv(1024) == b""  # idler reaped...
                assert busy.query(REQUEST)[0] == 200  # ...worker unaffected
                assert busy.query(REQUEST)[1]["cache"]["hit"] is True
        finally:
            srv.shutdown()
            srv.server_close()

    def test_drain_races_in_flight_request(self, monkeypatch):
        """drain_and_shutdown must let an already-accepted request
        finish (and flush its response) while new requests during the
        drain get a clean 503 + Retry-After."""
        from repro.checking.global_ import MFModelChecker

        real = MFModelChecker.check_detailed

        def slow(self, formula, occupancy, ctx=None):
            time.sleep(1.0)
            return real(self, formula, occupancy, ctx=ctx)

        monkeypatch.setattr(MFModelChecker, "check_detailed", slow)

        srv = make_server(
            port=0, config=ServerConfig(drain_deadline=30.0)
        )
        serve_thread = threading.Thread(
            target=srv.serve_forever, daemon=True
        )
        serve_thread.start()
        host, port = srv.server_address[:2]
        url = f"http://{host}:{port}"
        results = {}

        def inflight():
            with ServerClient(url, timeout=60.0) as c:
                results["inflight"] = c.query(REQUEST)

        worker = threading.Thread(target=inflight)
        worker.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if srv.service.stats.service_requests >= 1:
                break
            time.sleep(0.01)

        drain_done = {}

        def drain():
            drain_done["clean"] = srv.drain_and_shutdown()

        drainer = threading.Thread(target=drain)
        drainer.start()
        time.sleep(0.1)  # drain flag is up, in-flight query still runs

        with ServerClient(url, timeout=60.0, retries=0) as late:
            try:
                status, body = late.query(REQUEST)
            except Exception:
                # Acceptable only if the drain already completed and
                # the socket is gone; otherwise the 503 must be clean.
                status, body = None, None
        worker.join(timeout=60)
        drainer.join(timeout=60)
        assert not worker.is_alive() and not drainer.is_alive()

        status_inflight, body_inflight = results["inflight"]
        assert status_inflight == 200
        assert body_inflight["status"] == "ok"
        assert drain_done["clean"] is True
        if status is not None:
            assert status == 503
            assert body["error_class"] == "Draining"
        srv.server_close()

    def test_shutdown_still_stops_immediately(self):
        """Plain shutdown() keeps its historical contract: accept loop
        stops and the service closes."""
        srv = make_server(port=0, config=ServerConfig())
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        srv.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert srv.service.state == "closed"
        srv.server_close()
