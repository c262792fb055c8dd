"""Batched-checking benchmark — one ``/batch`` round-trip vs N singles.

The acceptance workload of the batch API (docs/serving.md):

- **correctness** (always on): every item of a warm 64-query batch
  carries the same verdict and exit code as the same query sent through
  64 sequential ``POST /query`` calls;
- **batch speedup** (``REPRO_BENCH_TIMING_GATE=0`` disables): against a
  warm server, the single batch round-trip answers all 64 queries at
  least :data:`BATCH_SPEEDUP_FLOOR` times faster than the sequential
  loop.  Both sides hit the response cache — the difference is 64 HTTP
  round-trips (request line, headers, JSON envelope each) collapsing
  into one;
- **accounting** (always on): the server attributes the items to the
  batch counters (``service_batch_requests``/``service_batch_items``).

Wall-times are appended to ``BENCH_batch.json`` via
:mod:`benchmarks.record`; regressions against the record's own history
are printed, not asserted (shared runners are too noisy to gate on).
"""

import os
import threading
import time

import pytest

from benchmarks.record import BATCH_PATH, check_regressions, record_wall_times
from repro.server.client import ServerClient
from repro.server.http import make_server

#: Acceptance floor on sequential/batch wall-time ratio for the warm
#: 64-query workload.  One HTTP round-trip vs 64 of them; in practice
#: the ratio is far above this.
BATCH_SPEEDUP_FLOOR = 5.0

#: Items per batch (the acceptance workload size).
BATCH_SIZE = 64

FORMULAS = (
    "EP[<0.3](not_infected U[0,1] infected)",
    "E[<0.5](infected)",
)

OCCUPANCIES = (
    [0.80, 0.15, 0.05],
    [0.70, 0.20, 0.10],
    [0.60, 0.30, 0.10],
    [0.50, 0.35, 0.15],
)


def _timing_gate() -> bool:
    return os.environ.get("REPRO_BENCH_TIMING_GATE", "1") != "0"


def _queries() -> "list[dict]":
    """64 items cycling over 8 distinct (formula, occupancy) queries."""
    distinct = [
        {
            "command": "check",
            "model": "virus1",
            "occupancy": occ,
            "formula": formula,
        }
        for formula in FORMULAS
        for occ in OCCUPANCIES
    ]
    return [dict(distinct[i % len(distinct)]) for i in range(BATCH_SIZE)]


@pytest.fixture()
def server():
    srv = make_server(port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()


def test_warm_batch_beats_sequential_queries(server):
    host, port = server.server_address[:2]
    client = ServerClient(f"http://{host}:{port}", timeout=120.0)
    try:
        queries = _queries()
        # Warm every distinct query (and the server's entry)
        # so both measured sides are pure cache hits.
        status, warmup = client.query_batch(queries)
        assert status == 200
        assert warmup["errors"] == 0

        t0 = time.perf_counter()
        singles = [client.query(q) for q in queries]
        t_sequential = time.perf_counter() - t0

        t0 = time.perf_counter()
        status, batch = client.query_batch(queries)
        t_batch = time.perf_counter() - t0

        assert status == 200
        assert batch["items"] == BATCH_SIZE
        assert batch["errors"] == 0
        # Equivalence: per-item verdicts and exit codes match the
        # sequential answers, element for element.
        for (s_status, s_body), b_body, b_code in zip(
            singles, batch["results"], batch["exit_codes"]
        ):
            assert s_status == 200
            assert b_body["verdict"] == s_body["verdict"]
            assert b_code == s_body["exit_code"]

        stats = client.stats()["service"]
        assert stats["service_batch_requests"] >= 2
        assert stats["service_batch_items"] >= 2 * BATCH_SIZE
        assert stats["service_batch_item_errors"] == 0

        speedup = t_sequential / max(t_batch, 1e-9)
        record_wall_times(
            "batch64_vs_sequential",
            {"sequential": t_sequential, "batch": t_batch},
            extra={
                "speedup": speedup,
                "floor": BATCH_SPEEDUP_FLOOR,
                "items": BATCH_SIZE,
                "distinct": len(FORMULAS) * len(OCCUPANCIES),
            },
            path=BATCH_PATH,
        )
        for flag in check_regressions(
            "batch64_vs_sequential", path=BATCH_PATH
        ):
            print(f"TIMING FLAG: {flag}")
        if not _timing_gate():
            pytest.skip("timing gate disabled (REPRO_BENCH_TIMING_GATE=0)")
        assert speedup >= BATCH_SPEEDUP_FLOOR, (
            f"64-query batch only {speedup:.1f}x faster than 64 "
            f"sequential queries (sequential {t_sequential * 1e3:.1f} ms, "
            f"batch {t_batch * 1e3:.1f} ms); acceptance floor is "
            f"{BATCH_SPEEDUP_FLOOR}x"
        )
    finally:
        client.close()
