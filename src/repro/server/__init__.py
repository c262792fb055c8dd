"""Checking-as-a-service: a long-running server with a warm cross-request cache.

The one-shot CLI rebuilds everything per invocation — model, compiled
generators, propagator cells, transient matrices — and throws it all
away on exit.  This package promotes that state to *process lifetime*:
:class:`~repro.server.service.CheckingService` keeps an LRU cache of
warm checking state keyed by ``(model hash, options signature)``, with
one computation per entry at a time (so identical concurrent requests
compute once), admission control built on
:class:`~repro.resilience.Budget`, and disk spill so warm state survives
restarts.  :mod:`repro.server.http` serves it over HTTP/JSON
(``mfcsl serve``) and :mod:`repro.server.client` talks to it
(``mfcsl query``).  See docs/serving.md.
"""

from repro.server.service import (
    HTTP_STATUS_BY_EXIT_CODE,
    HTTP_STATUS_REJECTED,
    SERVICE_STATES,
    CheckingService,
    ServerConfig,
)
from repro.server.supervisor import (
    ISOLATION_MODES,
    QuerySupervisor,
    WorkerCrash,
)

__all__ = [
    "CheckingService",
    "ServerConfig",
    "QuerySupervisor",
    "WorkerCrash",
    "HTTP_STATUS_BY_EXIT_CODE",
    "HTTP_STATUS_REJECTED",
    "SERVICE_STATES",
    "ISOLATION_MODES",
]
