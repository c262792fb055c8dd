"""Chaos suite: fault injection against the serving stack.

Every test here breaks something on purpose — SIGKILLs a supervised
query worker mid-computation, SIGTERMs a server with a batch in flight —
and asserts the blast radius stays confined to the documented boundary:
one query, zero lost in-flight work.  The tier-1 suite runs this file with everything else; the
``server-chaos`` CI job runs it again on its own under ``-X dev``, with
leaked sockets and pipes turned into errors.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.checking.global_ import MFModelChecker
from repro.exceptions import EXIT_BUDGET_EXCEEDED, EXIT_SATISFIED
from repro.parallel import fork_available
from repro.server.client import ServerClient
from repro.server.service import CheckingService, ServerConfig

pytestmark = pytest.mark.chaos

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

FORMULA = "EP[<0.3](not_infected U[0,1] infected)"
FORMULA_B = "EP[<0.6](not_infected U[0,1] infected)"
OCCUPANCY = [0.8, 0.15, 0.05]


#: ``mfcsl serve --isolate process`` with every ``check`` killing the
#: process that computes it (``value`` requests still compute).
_KILLING_SERVER = textwrap.dedent(
    """
    import os, signal, sys
    from repro.checking.global_ import MFModelChecker
    from repro.cli import main

    def die(self, *args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    MFModelChecker.check_detailed = die
    sys.exit(main(["serve", "--port", "0", "--isolate", "process"]))
    """
)


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    return env


def check_request(**overrides):
    payload = {
        "command": "check",
        "model": "virus1",
        "occupancy": list(OCCUPANCY),
        "formula": FORMULA,
    }
    payload.update(overrides)
    return payload


# ----------------------------------------------------------------------
# Scenario 1: a SIGKILLed worker kills one query, not the server
# ----------------------------------------------------------------------


@needs_fork
class TestWorkerKill:
    def test_killed_worker_fails_one_query_server_survives(
        self, monkeypatch
    ):
        """SIGKILL a supervised worker mid-query: that query answers
        exit code 5 while a concurrent query (different entry, its own
        worker) succeeds and previously warm responses still hit."""
        service = CheckingService(
            ServerConfig(isolate="process", max_concurrent=4)
        )
        try:
            # Warm a response *before* the chaos so we can prove the
            # cache survives the crash.
            status, body = service.handle(check_request())
            assert status == 200

            # Slow every computation down (the fork child inherits the
            # patched class) so the worker is alive long enough to kill.
            real = MFModelChecker.check_detailed

            def slow(self, formula, occupancy, ctx=None):
                time.sleep(1.5)
                return real(self, formula, occupancy, ctx=ctx)

            monkeypatch.setattr(MFModelChecker, "check_detailed", slow)

            results = {}

            def run(name, request):
                results[name] = service.handle(request)

            victim = threading.Thread(
                target=run,
                args=("victim", check_request(formula=FORMULA_B)),
            )
            victim.start()
            victim_pid = self._wait_for_worker(service)

            survivor = threading.Thread(
                target=run,
                args=("survivor", check_request(model="virus2")),
            )
            survivor.start()

            os.kill(victim_pid, signal.SIGKILL)
            victim.join(timeout=30)
            survivor.join(timeout=60)
            assert not victim.is_alive() and not survivor.is_alive()

            status, body = results["victim"]
            assert status == 503
            assert body["error_class"] == "WorkerCrashError"
            assert body["exit_code"] == EXIT_BUDGET_EXCEEDED
            assert "SIGKILL" in body["message"]

            status, body = results["survivor"]
            assert status == 200
            assert body["status"] == "ok"

            # The crash is accounted for and the server still serves
            # the pre-chaos answer from cache.
            assert service.stats.service_worker_crashes == 1
            assert len(service.supervisor.crashes) == 1
            status, body = service.handle(check_request())
            assert status == 200
            assert body["cache"]["hit"] is True
        finally:
            service.close()

    @staticmethod
    def _wait_for_worker(service, timeout=30.0):
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            pids = service.supervisor.active_pids()
            if pids:
                return pids[0]
            time.sleep(0.01)
        raise AssertionError("no supervised worker appeared")

    def test_crashed_query_succeeds_on_retry(self, monkeypatch):
        """A one-off kill fails one attempt; retrying the same query
        right away forks a fresh worker, which answers it."""
        service = CheckingService(
            ServerConfig(isolate="process", max_concurrent=2)
        )
        try:
            real = MFModelChecker.check_detailed
            armed = {"on": True}

            def slow(self, formula, occupancy, ctx=None):
                if armed["on"]:
                    time.sleep(1.5)
                return real(self, formula, occupancy, ctx=ctx)

            monkeypatch.setattr(MFModelChecker, "check_detailed", slow)

            results = {}
            t = threading.Thread(
                target=lambda: results.update(
                    first=service.handle(check_request())
                )
            )
            t.start()
            pid = self._wait_for_worker(service)
            os.kill(pid, signal.SIGKILL)
            t.join(timeout=30)
            assert results["first"][0] == 503

            armed["on"] = False
            status, body = service.handle(check_request())
            assert status == 200
            assert body["exit_code"] in (0, 1)
            assert service.stats.service_worker_crashes == 1
            assert service.stats.service_supervised == 2
        finally:
            service.close()

    def test_query_killing_every_worker_leaves_server_serving(self):
        """A query that kills whichever process computes it costs one
        worker per attempt: the client's retries end in 503
        ``WorkerCrashError``, and the server stays ready, keeps its
        cached answers and stops cleanly on SIGTERM."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLING_SERVER],
            stdout=subprocess.PIPE,
            env=_src_env(),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://\S+", line)
            assert match, f"no listening line, got {line!r}"
            url = match.group(0)
            warm = check_request(command="value")
            with ServerClient(
                url, timeout=60, retries=3, rng=random.Random(1)
            ) as client:
                assert client.query(warm)[0] == 200

                status, body = client.query(check_request())
                assert status == 503
                assert body["error_class"] == "WorkerCrashError"
                assert body["exit_code"] == EXIT_BUDGET_EXCEEDED

                with urllib.request.urlopen(url + "/health") as resp:
                    assert json.loads(resp.read())["state"] == "ready"
                stats = client.stats()
                assert len(stats["supervisor"]["recent_crashes"]) == 4
                assert stats["service"]["service_worker_crashes"] == 4
                status, body = client.query(warm)
                assert status == 200
                assert body["cache"]["hit"] is True
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
                proc.stdout.close()
        assert code == 0


# ----------------------------------------------------------------------
# Scenario 2: SIGTERM with a batch in flight drains gracefully
# ----------------------------------------------------------------------


class TestGracefulDrain:
    def start_server(self, *extra):
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--drain-deadline",
                "30",
                *extra,
            ],
            stdout=subprocess.PIPE,
            env=_src_env(),
            text=True,
        )
        line = proc.stdout.readline()
        match = re.search(r"http://\S+", line)
        assert match, f"no listening line, got {line!r}"
        return proc, match.group(0)

    @staticmethod
    def post(url, path, payload, timeout=120):
        request = urllib.request.Request(
            url + path,
            json.dumps(payload).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_sigterm_drains_batch_and_restart_answers_cold(self):
        """SIGTERM lands while an 8-query batch is in flight: the batch
        finishes (no dropped items), the server exits cleanly, and a
        restarted server, which keeps nothing from its predecessor,
        recomputes the same answer cold."""
        proc, url = self.start_server()
        try:
            queries = [
                check_request(
                    occupancy=[0.8 - i * 0.02, 0.15 + i * 0.01, 0.05 + i * 0.01]
                )
                for i in range(8)
            ]
            outcome = {}

            def send_batch():
                outcome["batch"] = self.post(
                    url, "/batch", {"queries": queries}
                )

            sender = threading.Thread(target=send_batch)
            sender.start()
            time.sleep(0.4)  # let the batch get mid-flight
            proc.send_signal(signal.SIGTERM)

            sender.join(timeout=120)
            assert not sender.is_alive()
            status, body = outcome["batch"]
            assert status == 200, body
            assert body["items"] == 8
            assert body["errors"] == 0
            assert all(
                code in (0, 1) for code in body["exit_codes"]
            )

            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

        # Generation two starts empty and recomputes the batch's answer.
        proc2, url2 = self.start_server()
        try:
            status, cold = self.post(url2, "/query", queries[0])
            assert status == 200
            assert cold["cache"] == {"hit": False, "cold_entry": True}
            assert cold["verdict"] == body["results"][0]["verdict"]
        finally:
            proc2.send_signal(signal.SIGTERM)
            code = proc2.wait(timeout=60)
            proc2.stdout.close()
        assert code == 0

    def test_requests_during_drain_get_503_with_retry_after(self):
        """A draining service answers new work 503 + Retry-After while
        the health endpoint steers load balancers away."""
        service = CheckingService(ServerConfig(drain_deadline=5.0))
        try:
            status, body = service.handle(check_request())
            assert status == 200
            service.begin_drain()
            status, body = service.handle(check_request())
            assert status == 503
            assert body["error_class"] == "Draining"
            assert body["retry_after"] == 5.0
            status, body = service.health_payload()
            assert status == 503
            assert body["state"] == "draining"
            assert service.stats.service_drain_rejections == 1
            assert service.drain(timeout=5.0) is True
        finally:
            service.close()


# ----------------------------------------------------------------------
# Isolation end to end: warm-path semantics are unchanged under forks
# ----------------------------------------------------------------------


@needs_fork
class TestIsolatedSemantics:
    def test_isolated_answers_match_inline_answers(self):
        inline = CheckingService(ServerConfig(isolate="none"))
        forked = CheckingService(ServerConfig(isolate="process"))
        try:
            requests = [
                check_request(),
                check_request(formula=FORMULA_B),
                check_request(command="value"),
            ]
            for request in requests:
                s1, b1 = inline.handle(request)
                s2, b2 = forked.handle(request)
                assert s1 == s2
                assert s1 == 200
                for field in ("verdict", "value", "exit_code"):
                    assert b1.get(field) == b2.get(field), field
            assert forked.stats.service_supervised == len(requests)
        finally:
            inline.close()
            forked.close()
