"""``serve-mix``: an open loop against ``mfcsl serve`` over keep-alive HTTP.

Requests are due at a fixed rate; two worker threads, each with its own
keep-alive ``ServerClient``, send every request at (or, when both are
busy, after) its due time, and latency is timed from the due time.  The
seeded stream mixes, in fixed proportions per block of
:data:`BLOCK`:

- ``hot``: repeats of a warmed hot set on virus1/virus2/gossip/botnet
  (response-cache reads);
- ``miss-check`` / ``miss-csat``: a new occupancy on a warm entry
  (context miss, K = 3 compute);
- ``deep``: warm hits on ``loadbalance-deep`` (a 1001-entry occupancy to
  decode, validate and hash);
- ``batch``: ``/batch`` envelopes mixing hot items and misses.

``queries_per_s`` is correct items per second of summed round-trip time,
the time the server spends on the stream, not per second of wall time,
which at this fixed rate would restate the generator's schedule.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import threading
import time

from common import (
    ROOT,
    Phase,
    answer_of_response,
    child_env,
    perturbed,
    process_peak_rss_mb,
)

#: Requests per second, well below capacity: back-to-back hits on one
#: keep-alive connection take about 44 ms each (a delayed-ACK stall), so
#: two connections carry about 40/s; at this rate each connection idles
#: about 170 ms between requests and a hit round trip takes about 2 ms.
RATE = 12.0
#: Keep-alive connections (one sender thread each).
CONNECTIONS = 2
#: Server spawns timed per phase for ``setup_s``; the last one serves.
SETUP_SPAWNS = 3
#: Request kinds per block of 40 consecutive requests.  The shares put
#: the median inside the hot-set hits and the 90th percentile inside the
#: ``loadbalance-deep`` hits, so neither sits on the edge between kinds.
BLOCK = {"hot": 26, "miss-check": 4, "deep": 8, "miss-csat": 1, "batch": 1}
BATCH_HOT = 6
BATCH_MISS = 2
#: Latency limit of the ``slo_miss_share`` count, milliseconds.
SLO_MS = 500.0
PERTURBATION = 0.05

BASE = {
    "virus1": (0.8, 0.15, 0.05),
    "virus2": (0.85, 0.1, 0.05),
    "gossip": (0.9, 0.08, 0.02),
    "botnet": (0.8, 0.05, 0.05, 0.05, 0.05),
}

#: ``(model, command, formula, theta, leaf, bound)`` of the hot set.
HOT = (
    ("virus1", "check", "EP[<0.3](not_infected U[0,1] infected)", None,
     "EP[>=0](not_infected U[0,1] infected)", ["<", 0.3]),
    ("virus1", "value", "EP[<0.4](infected U[0,5] not_infected)", None,
     "EP[<0.4](infected U[0,5] not_infected)", None),
    ("virus1", "csat", "E[>0.1](infected)", 10.0, None, None),
    ("virus2", "check", "E[<0.1](active)", None, "E[>=0](active)",
     ["<", 0.1]),
    ("virus2", "csat", "E[>0.1](P[>0.8](tt U[0,0.5] infected))", 10.0,
     None, None),
    ("virus2", "value", "EP[>=0](tt U[0,0.5] infected)", None,
     "EP[>=0](tt U[0,0.5] infected)", None),
    ("gossip", "check", "EP[>0.5](ignorant U[0,2] informed)", None,
     "EP[>=0](ignorant U[0,2] informed)", [">", 0.5]),
    ("gossip", "value", "E[>=0](informed)", None, "E[>=0](informed)", None),
    ("gossip", "csat", "E[>0.5](informed)", 5.0, None, None),
    ("botnet", "check", "EP[<0.2](clean U[0,1] infected)", None,
     "EP[>=0](clean U[0,1] infected)", ["<", 0.2]),
    ("botnet", "value", "E[>=0](bot)", None, "E[>=0](bot)", None),
    ("botnet", "csat", "E[<0.3](infected)", 10.0, None, None),
)

#: Context misses: ``(model, command, formula, theta, leaf, bound)``.
MISS = {
    "miss-check": (
        ("virus1", "check", "EP[<0.3](not_infected U[0,1] infected)", None,
         "EP[>=0](not_infected U[0,1] infected)", ["<", 0.3]),
        ("gossip", "check", "EP[>0.5](ignorant U[0,2] informed)", None,
         "EP[>=0](ignorant U[0,2] informed)", [">", 0.5]),
    ),
    "miss-csat": (
        ("virus2", "csat", "E[>0.1](P[>0.8](tt U[0,0.5] infected))", 10.0,
         None, None),
        ("botnet", "csat", "E[<0.3](infected)", 10.0, None, None),
    ),
}

DEEP_MODEL = "loadbalance-deep"
DEEP_RATIO = 0.7
DEEP = (
    ("check", "E[>0.5](busy)", "E[>=0](busy)", [">", 0.5]),
    ("value", "E[>=0](idle)", "E[>=0](idle)", None),
)


def _query(model, command, formula, theta, leaf, bound, occ) -> dict:
    query = {
        "model": model,
        "options": {},
        "command": command,
        "formula": formula,
        "occupancy": occ,
        "leaf": leaf,
        "bound": bound,
    }
    if theta is not None:
        query["theta"] = theta
    return query


def payload(query) -> dict:
    """The HTTP request body of one query."""
    body = {
        "model": query["model"],
        "command": query["command"],
        "formula": query["formula"],
        "occupancy": query["occupancy"],
    }
    if "theta" in query:
        body["theta"] = query["theta"]
    return body


def generate(seed: int, requests: int) -> dict:
    """Warm-up set and the request stream of one run."""
    from deep_sparse import geometric_occupancy

    rng = random.Random(f"serve-mix/{seed}")
    hot_occ = {
        name: perturbed(rng, base, PERTURBATION) for name, base in BASE.items()
    }
    hot = [_query(*row, hot_occ[row[0]]) for row in HOT]
    deep_occ = geometric_occupancy(DEEP_RATIO, 1001)
    deep = [
        _query(DEEP_MODEL, command, formula, None, leaf, bound, deep_occ)
        for command, formula, leaf, bound in DEEP
    ]

    def miss(kind):
        row = rng.choice(MISS[kind])
        return _query(*row, perturbed(rng, BASE[row[0]], PERTURBATION))

    stream = []
    while len(stream) < requests:
        kinds = [k for k, n in BLOCK.items() for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "hot":
                items = [rng.choice(hot)]
            elif kind in MISS:
                items = [miss(kind)]
            elif kind == "deep":
                items = [rng.choice(deep)]
            else:
                items = [rng.choice(hot) for _ in range(BATCH_HOT)]
                items += [miss("miss-check") for _ in range(BATCH_MISS)]
                rng.shuffle(items)
            stream.append({"kind": kind, "items": items})
    return {"warm": hot + deep, "stream": stream[:requests]}


# ----------------------------------------------------------------------
# running the server


def _health_ready(port: int) -> bool:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
    try:
        conn.request("GET", "/health")
        resp = conn.getresponse()
        body = json.loads(resp.read())
        return resp.status == 200 and body.get("state") == "ready"
    except (OSError, ValueError):
        return False
    finally:
        conn.close()


class Server:
    """One ``mfcsl serve`` subprocess on a free port.

    ``traced`` starts it through ``serve_launcher.py``, which installs the
    layer wrappers first.  ``ready_s`` is the time from spawn until
    ``/health`` reports ``ready``.
    """

    def __init__(self, traced: bool):
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py")]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        cmd += ["--host", "127.0.0.1", "--port", "0"]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split()[-1]
            self.port = int(self.url.rsplit(":", 1)[1])
            deadline = start + 60.0
            while not _health_ready(self.port):
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never reported ready")
                time.sleep(0.002)
            self.ready_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _send(client, request):
    """One stream request: ``(status, body)``, or ``(None, error)``.

    A sender thread must outlive any one failed request (it is counted
    as failed), so every exception is turned into an error body.
    """
    try:
        if request["kind"] == "batch":
            return client.query_batch([payload(q) for q in request["items"]])
        return client.query(payload(request["items"][0]))
    except Exception as exc:
        print(f"request failed: {exc!r}", file=sys.stderr)
        return None, {"status": "error", "message": str(exc)}


def _open_loop(url: str, stream, rate: float):
    """Send ``stream`` at ``rate`` over two keep-alive connections."""
    from repro.server.client import ServerClient

    results = [None] * len(stream)
    retries = []
    lock = threading.Lock()
    next_index = iter(range(len(stream)))
    t0 = time.perf_counter() + 0.05

    def worker():
        client = ServerClient(url, timeout=120.0)
        try:
            while True:
                with lock:
                    i = next(next_index, None)
                if i is None:
                    return
                due = t0 + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = _send(client, stream[i])
                results[i] = (due, sent, time.perf_counter(), status, body)
        finally:
            client.close()
            with lock:
                retries.append(client.resilience_stats["retries"])

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, sum(retries)


def _item_answers(request, status, body):
    """``[(query, answer or None)]`` for every item of one request."""
    items = request["items"]
    if request["kind"] != "batch":
        ok = status == 200
        return [(items[0], answer_of_response(items[0]["command"], body)
                 if ok else None)]
    if status != 200:
        return [(q, None) for q in items]
    return [
        (q, answer_of_response(q["command"], r))
        for q, r in zip(items, body["results"])
    ]


def _stats(url: str) -> dict:
    from repro.server.client import ServerClient

    with ServerClient(url) as client:
        return client.stats()


def _counters(stats: dict) -> dict:
    """``service_*`` counters plus the entries' summed ``EvalStats``."""
    total = dict(stats["service"])
    for entry in stats["entries"]:
        for name, value in entry["stats"].items():
            if not name.startswith("service_"):
                total[name] = total.get(name, 0) + value
    return total


def phase(seed: int, seconds: float, traced: bool) -> Phase:
    """Spawn (timed), warm, run the stream, read ``/stats``, stop.

    ``busy_s`` is the summed round-trip time of the stream's requests:
    at :data:`RATE` the connections idle most of the time, so wall time
    would measure the generator's schedule rather than the server.
    Reference slices (:mod:`hostspeed`) are timed while the stream runs;
    each request is scaled by the slices around it and set-up by the
    phase's factor.  The layer times of a traced phase stay as measured.
    """
    from benchmarks.record import FAULT_COUNTERS
    from hostspeed import HostSpeed
    from repro.server.client import ServerClient

    inputs = generate(seed, int(RATE * seconds))
    ready = []
    for _ in range(SETUP_SPAWNS - 1):
        server = Server(traced)
        ready.append(server.ready_s)
        server.stop()
    server = Server(traced)
    ready.append(server.ready_s)
    try:
        with ServerClient(server.url) as client:
            for query in inputs["warm"]:
                status, body = client.query(payload(query))
                if status != 200:
                    raise RuntimeError(f"warm-up failed: {body}")
        before = _stats(server.url)
        speed = HostSpeed()
        with speed.sampling():
            results, retries = _open_loop(server.url, inputs["stream"], RATE)
        after = _stats(server.url)
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    factor = speed.factor
    scaled = speed.scaled
    records = []
    busy_s = 0.0
    round_trips = []
    late = []
    for request, (due, sent, done, status, body) in zip(
        inputs["stream"], results
    ):
        records.append((request["kind"], _item_answers(request, status, body),
                        scaled(due, done - due)))
        busy_s += scaled(sent, done - sent)
        round_trips.append(1000.0 * (done - sent))
        late.append(1000.0 * (sent - due))
    result = Phase(
        records=records,
        busy_s=busy_s,
        setup_s=[s * factor for s in ready],
        rss_mb=rss,
        host_factor=factor,
        late_ms=late,
        faults={
            name: after["service"][name]
            for name in FAULT_COUNTERS
            if after["service"].get(name, 0)
        },
    )
    if traced:
        handle = []
        transport = []
        for rtt, (_, _, _, _, body) in zip(round_trips, results):
            if "bench_handle_ms" in body:
                handle.append(body["bench_handle_ms"])
                transport.append(rtt - handle[-1])
        counters_before, counters_after = _counters(before), _counters(after)
        result.trace = {
            "summary": _trace_delta(before["bench_trace"],
                                    after["bench_trace"]),
            "counters": {
                k: v - counters_before.get(k, 0)
                for k, v in counters_after.items()
            },
            "share_base_ms": sum(round_trips),
            "transport_ms": transport,
            "handle_ms": handle,
            "retries": retries,
        }
    return result


def _trace_delta(before: dict, after: dict) -> dict:
    return {
        layer: {k: row[k] - before[layer][k] for k in row}
        for layer, row in after.items()
    }
