"""Checking-as-a-service: a long-running server with a cross-request cache.

The one-shot CLI rebuilds the model and every answer per invocation and
throws them away on exit.  This package keeps them for the *process
lifetime*: :class:`~repro.server.service.CheckingService` builds each
registry model once and keeps an LRU cache of finished responses keyed
by ``(model hash, options signature)``.  Each computation builds its
own evaluation context and budget from its request, so no computation
depends on earlier traffic.  One computation runs per entry at a time
(so identical concurrent requests compute once), and admission
control bounds concurrent computations.  Answers live in memory only:
a restarted server answers cold.  :mod:`repro.server.http` serves it
over HTTP/JSON (``mfcsl serve``) and :mod:`repro.server.client` talks
to it (``mfcsl query``).  See docs/serving.md.
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
