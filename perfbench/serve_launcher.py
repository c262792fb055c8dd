"""``mfcsl serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py --host 127.0.0.1 --port 0``
(any ``mfcsl serve`` arguments).  Before handing over to
``repro.cli.main(["serve", ...])`` it

- installs :func:`layers.install` in the server process;
- adds ``bench_handle_ms`` (the time ``CheckingService.handle`` /
  ``handle_batch`` took) to every response body, so the client can split a
  round trip into service time and transport;
- adds ``bench_trace`` (the tracer's per-layer summary) to ``GET /stats``.
"""

from __future__ import annotations

import sys
import time

import common


def _timed(fn):
    def handler(self, payload):
        start = time.perf_counter()
        status, body = fn(self, payload)
        body = dict(body)
        body["bench_handle_ms"] = 1000.0 * (time.perf_counter() - start)
        return status, body

    return handler


def main(argv) -> int:
    common.require_program()
    import layers
    from repro.cli import main as cli_main
    from repro.server.service import CheckingService

    tracer = layers.Tracer()
    layers.install(tracer)
    CheckingService.handle = _timed(CheckingService.handle)
    CheckingService.handle_batch = _timed(CheckingService.handle_batch)
    stats_payload = CheckingService.stats_payload

    def traced_stats(self):
        body = stats_payload(self)
        body["bench_trace"] = tracer.summary()
        return body

    CheckingService.stats_payload = traced_stats
    return cli_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
