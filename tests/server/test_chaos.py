"""Chaos suite: fault injection against the serving stack.

Every test here breaks something on purpose — SIGKILLs a supervised
query worker mid-computation, corrupts a spill file, SIGTERMs a server
with a batch in flight — and asserts the blast radius stays confined to
the documented boundary: one query, one spill file, zero lost in-flight
work.  The ``server-chaos`` CI job runs exactly this file
(``pytest -m chaos``).
"""

import hashlib
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.checking.global_ import MFModelChecker
from repro.exceptions import EXIT_BUDGET_EXCEEDED, EXIT_SATISFIED
from repro.parallel import fork_available
from repro.server.service import _SPILL_MAGIC, CheckingService, ServerConfig

pytestmark = pytest.mark.chaos

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

FORMULA = "EP[<0.3](not_infected U[0,1] infected)"
FORMULA_B = "EP[<0.6](not_infected U[0,1] infected)"
OCCUPANCY = [0.8, 0.15, 0.05]


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
        """After a crash the breaker degrades to in-process execution,
        so retrying the same query immediately succeeds."""
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
        finally:
            service.close()


# ----------------------------------------------------------------------
# Scenario 2: a corrupted spill file is quarantined, read at most once
# ----------------------------------------------------------------------


class TestSpillCorruption:
    def corrupt(self, path: Path) -> None:
        raw = bytearray(path.read_bytes())
        # Flip bits in the payload region (past the magic + checksum).
        for offset in range(50, min(80, len(raw))):
            raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))

    def spill_one_entry(self, cache_dir) -> dict:
        """Run one query against a spilling service; return its body."""
        service = CheckingService(ServerConfig(cache_dir=str(cache_dir)))
        status, body = service.handle(check_request())
        assert status == 200
        service.close()  # spills the warm entry
        return body

    def test_corrupt_spill_is_quarantined_and_recomputed(self, tmp_path):
        clean_body = self.spill_one_entry(tmp_path)
        (spill_file,) = list(tmp_path.glob("entry-*.pkl"))
        self.corrupt(spill_file)

        service = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        try:
            status, body = service.handle(check_request())
            # The poisoned file never reaches the answer: the query
            # recomputes and matches the pre-corruption verdict.
            assert status == 200
            assert body["cache"]["hit"] is False
            assert body["verdict"] == clean_body["verdict"]
            assert service.stats.service_spill_quarantined == 1
            assert service.stats.service_spill_loads == 0
            # The evidence is set aside, not deleted — and the probe
            # path is clear of it.
            assert not spill_file.exists()
            assert spill_file.with_name(
                spill_file.name + ".corrupt"
            ).exists()
        finally:
            service.close()

    def test_corrupt_spill_read_at_most_once(self, tmp_path, monkeypatch):
        """Regression: a known-bad spill used to be re-read (and
        re-deserialized) on every cold probe of its key; now the first
        failure blacklists the key in memory."""
        self.spill_one_entry(tmp_path)
        (spill_file,) = list(tmp_path.glob("entry-*.pkl"))
        self.corrupt(spill_file)

        reads = []
        real_read = CheckingService._read_spill

        def counting_read(self, path, key):
            reads.append(path)
            return real_read(self, path, key)

        monkeypatch.setattr(CheckingService, "_read_spill", counting_read)

        service = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        try:
            status, _ = service.handle(check_request())
            assert status == 200
            assert len(reads) == 1

            # Drop the warm entry without spilling, simulating an
            # eviction — the next request probes cold again...
            with service._lock:
                service._entries.clear()
            status, _ = service.handle(check_request())
            assert status == 200
            # ...but the quarantined key is never re-read from disk.
            assert len(reads) == 1
            assert service.stats.service_spill_quarantined == 1
        finally:
            service.close()

    @pytest.mark.parametrize(
        "vandalize",
        [
            lambda p: p.write_bytes(b""),  # truncated to nothing
            lambda p: p.write_bytes(b"not a spill file at all"),
            lambda p: p.write_bytes(p.read_bytes()[:40]),  # cut mid-header
        ],
    )
    def test_unreadable_spill_variants_quarantine(self, tmp_path, vandalize):
        self.spill_one_entry(tmp_path)
        (spill_file,) = list(tmp_path.glob("entry-*.pkl"))
        vandalize(spill_file)
        service = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        try:
            status, body = service.handle(check_request())
            assert status == 200
            assert body["status"] == "ok"
            assert service.stats.service_spill_quarantined == 1
        finally:
            service.close()

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_spill_is_quarantined_and_recomputed(
        self, tmp_path, version
    ):
        """A checksummed spill of an older format carries transient-cache
        keys no query can hit (version 2) or response cores of another
        verdict shape (version 3); it is set aside instead of loaded."""
        clean_body = self.spill_one_entry(tmp_path)
        (spill_file,) = list(tmp_path.glob("entry-*.pkl"))
        header = len(_SPILL_MAGIC) + hashlib.sha256().digest_size
        payload = pickle.loads(spill_file.read_bytes()[header:])
        payload["version"] = version
        blob = pickle.dumps(payload)
        spill_file.write_bytes(
            _SPILL_MAGIC + hashlib.sha256(blob).digest() + blob
        )

        service = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        try:
            status, body = service.handle(check_request())
            assert status == 200
            assert body["cache"]["hit"] is False
            assert body["verdict"] == clean_body["verdict"]
            assert service.stats.service_spill_quarantined == 1
            assert service.stats.service_spill_loads == 0
        finally:
            service.close()

    def test_good_respill_lifts_quarantine(self, tmp_path):
        """A fresh, verified spill supersedes the corruption verdict:
        the next service generation revives warm state again."""
        self.spill_one_entry(tmp_path)
        (spill_file,) = list(tmp_path.glob("entry-*.pkl"))
        self.corrupt(spill_file)

        service = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        status, _ = service.handle(check_request())
        assert status == 200
        assert service.stats.service_spill_quarantined == 1
        service.close()  # re-spills the recomputed warm entry

        revived = CheckingService(ServerConfig(cache_dir=str(tmp_path)))
        try:
            status, body = revived.handle(check_request())
            assert status == 200
            assert body["cache"]["hit"] is True
            assert revived.stats.service_spill_loads == 1
            assert revived.stats.service_spill_quarantined == 0
        finally:
            revived.close()


# ----------------------------------------------------------------------
# Scenario 3: SIGTERM with a batch in flight drains gracefully
# ----------------------------------------------------------------------


class TestGracefulDrain:
    def start_server(self, cache_dir, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(cache_dir),
                "--drain-deadline",
                "30",
                *extra,
            ],
            stdout=subprocess.PIPE,
            env=env,
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

    def test_sigterm_drains_batch_and_restart_serves_warm(self, tmp_path):
        """SIGTERM lands while an 8-query batch is in flight: the batch
        finishes (no dropped items), the server exits cleanly after
        spilling, and a restarted server answers the same queries warm
        from the shutdown spill."""
        proc, url = self.start_server(tmp_path)
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
            assert list(tmp_path.glob("entry-*.pkl")), "nothing spilled"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

        # Generation two: the drain-time spill must serve warm answers.
        proc2, url2 = self.start_server(tmp_path)
        try:
            status, body = self.post(url2, "/query", queries[0])
            assert status == 200
            assert body["cache"]["hit"] is True
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
                check_request(command="value", formula="Pr(true U[0,1] infected)"),
            ]
            for request in requests:
                s1, b1 = inline.handle(request)
                s2, b2 = forked.handle(request)
                assert s1 == s2
                for field in ("verdict", "value", "exit_code"):
                    assert b1.get(field) == b2.get(field), field
            assert forked.stats.service_supervised == len(requests)
        finally:
            inline.close()
            forked.close()
