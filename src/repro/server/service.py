"""The checking service: a persistent cross-request response cache.

This module is the transport-free core of ``mfcsl serve``.  A
:class:`CheckingService` owns a per-process LRU cache of entries keyed
by ``(model hash, options signature)``.  An entry keeps the model, its
options, a checker, its counters, a lock and the finished responses,
and serves ``check`` / ``value`` / ``csat`` requests from them.  Each
computation builds its own evaluation context from the request alone —
MF-CSL's answer is a function of the occupancy and the formula only —
and drops it once the response is stored, so earlier traffic never
changes a computation.  The HTTP layer (:mod:`repro.server.http`) is a
thin adapter: every behaviour worth testing lives here and is exercised
directly, without sockets, by ``tests/server/``.

The fault-tolerance layer (docs/serving.md, "Operations") adds four
more guarantees on top: supervised query execution
(``ServerConfig(isolate="process")`` runs each computation in a forked
worker, so a segfault/OOM answers one query with exit code 5 instead of
killing the server — :mod:`repro.server.supervisor`), a graceful
lifecycle (``starting → ready → draining → closed``, with
:meth:`CheckingService.drain` letting in-flight requests finish while
new ones get 503 + Retry-After), checksummed disk spill (corrupt files
are quarantined to ``*.corrupt`` and never re-probed), and
client/transport hardening in :mod:`repro.server.http` and
:mod:`repro.server.client`.

Three mechanisms keep a shared long-running process safe:

- **One computation per entry at a time** — an admitted request takes
  its entry's lock, probes the entry's response cache again and only
  then computes, storing its answer before it lets go.  So a burst of
  identical requests computes once: the others find the answer when
  their turn comes.  The response cache key *excludes* the per-request
  execution limits (deadline, solve cap), because they never change an
  answer (see :data:`repro.checking.options.SIGNATURE_EXCLUDED_FIELDS`);
  only successes are cached, so a request queued behind a failed
  computation computes on its own under its own limits.
- **Admission control** — at most ``max_concurrent`` computations run at
  once; a request that cannot get a slot within ``queue_timeout``
  seconds is rejected with HTTP 429 instead of piling onto an overloaded
  process.  Each admitted computation gets its own
  :class:`~repro.resilience.Budget`, built from the request's limits by
  :meth:`~repro.resilience.Budget.from_options` as the CLI builds one,
  so a deadline is anchored when the computation starts.
- **Bounded memory** — an entry holds at most
  ``max_responses_per_entry`` responses and the entry count is
  LRU-bounded by ``max_entries``; evicted entries are spilled to disk
  (when a cache directory is configured) and revived on the next cold
  request for the same key, so stored responses survive restarts.  No
  evaluation context outlives its request.

Locking discipline: ``self._lock`` (service-level) protects the entry
map, the entries' response caches and the service counters, and is only
ever held for dict operations — never across a computation.
``entry.lock`` (per-entry) serializes computations on one entry.  No
code path acquires the service lock while holding an entry lock *and*
blocks, so warm response-cache hits never queue behind a long compute.
The registry-model map takes no lock: a pair is only ever added, with
one atomic ``dict.setdefault``, and never replaced or removed.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.checking import CheckOptions, MFModelChecker
from repro.checking.context import EvaluationContext
from repro.exceptions import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CHECKING_ERROR,
    EXIT_NOT_SATISFIED,
    EXIT_SATISFIED,
    ModelError,
    ReproError,
    exit_code_for,
)
from repro.instrumentation import EvalStats
from repro.io import model_from_dict, model_hash
from repro.models import MODEL_REGISTRY
from repro.resilience import Budget, check_limit
from repro.server.supervisor import ISOLATION_MODES, QuerySupervisor

#: HTTP status per CLI exit code (documented in docs/serving.md).  The
#: two *answer* codes — satisfied, not satisfied — are both successful
#: checks (200); bad inputs are client errors (400);
#: budget expiry is 503 (the service is fine, this request ran out of
#: time); numerical and worker failures are server errors (500).
HTTP_STATUS_BY_EXIT_CODE = {
    0: 200,
    1: 200,
    2: 400,
    3: 400,
    4: 500,
    5: 503,
    6: 500,
}

#: HTTP status of an admission-control rejection.  Distinct from the 503
#: a deadline expiry earns: 429 means "retry later", the request itself
#: was fine.
HTTP_STATUS_REJECTED = 429

_VALID_COMMANDS = ("check", "value", "csat")

_MISSING = object()

_SPILL_FORMAT = "repro-server-spill"
#: Bumped whenever the payload (including the shape of the cached
#: response cores) changes, so a file written under another layout is
#: quarantined instead of loaded as stale answers.  Version-4 files of
#: earlier releases also carry a ``transients`` map; the reader ignores
#: it.
_SPILL_VERSION = 4

#: Spill file layout: magic, 32-byte sha256 of the pickled payload,
#: payload.  The checksum is verified *before* unpickling, so a
#: truncated or bit-flipped file can never feed garbage to ``pickle``.
_SPILL_MAGIC = b"mfcsl-spill\n"

#: The service lifecycle: ``starting`` (constructed, transport not yet
#: accepting), ``ready`` (serving), ``draining`` (graceful shutdown in
#: progress — new requests get 503 + Retry-After while in-flight ones
#: finish), ``closed`` (terminal; requests get 400).
SERVICE_STATES = ("starting", "ready", "draining", "closed")


@dataclass(frozen=True)
class ServerConfig:
    """Operating limits of a :class:`CheckingService`.

    Attributes
    ----------
    max_entries:
        LRU bound on warm ``(model hash, options signature)`` entries.
    max_responses_per_entry:
        LRU bound on finished responses cached within one entry.
    cache_dir:
        Directory for disk spill; ``None`` disables spill entirely
        (evicted entries are simply dropped).
    default_deadline:
        Deadline applied to requests that do not set one; ``None``
        leaves them unbounded.
    max_concurrent:
        Admission-control bound on concurrently running computations.
        Response-cache hits never take a slot; a request that waits for
        its entry's lock holds one.
    queue_timeout:
        Seconds a computation may wait for an admission slot before
        being rejected with 429.
    max_batch_items:
        Upper bound on the number of queries one ``/batch`` envelope may
        carry; larger envelopes are rejected with 400 before any work
        starts.
    isolate:
        Query-execution isolation mode: ``"none"`` (in-process,
        historical behaviour), ``"process"`` (each computation runs in
        a forked worker so a segfault/OOM kills one query — answered
        with exit code 5 — instead of the server).
        See :class:`repro.server.supervisor.QuerySupervisor`.
    drain_deadline:
        Seconds :meth:`CheckingService.drain` waits for in-flight
        requests during graceful shutdown; also advertised to rejected
        clients as ``Retry-After``.
    connection_timeout:
        Per-connection socket timeout applied by the HTTP layer; an
        idle keep-alive client (or a slow-loris stall) is disconnected
        after this many silent seconds instead of pinning a handler
        thread forever.  ``None`` disables the timeout.
    """

    max_entries: int = 32
    max_responses_per_entry: int = 256
    cache_dir: Optional[str] = None
    default_deadline: Optional[float] = None
    max_concurrent: int = 4
    queue_timeout: float = 30.0
    max_batch_items: int = 256
    isolate: str = "none"
    drain_deadline: float = 30.0
    connection_timeout: Optional[float] = 60.0

    def __post_init__(self) -> None:
        for name in (
            "max_entries",
            "max_responses_per_entry",
            "max_concurrent",
            "max_batch_items",
        ):
            check_limit(name, getattr(self, name), integer=True)
        check_limit("drain_deadline", self.drain_deadline)
        check_limit("queue_timeout", self.queue_timeout, nonnegative=True)
        for name in ("default_deadline", "connection_timeout"):
            check_limit(name, getattr(self, name), optional=True)
        if self.isolate not in ISOLATION_MODES:
            raise ModelError(
                f"isolate must be one of {list(ISOLATION_MODES)}, "
                f"got {self.isolate!r}"
            )


class _RequestSpec:
    """One validated request, normalized for cache addressing."""

    __slots__ = (
        "command",
        "model",
        "model_hash",
        "options",
        "signature",
        "occ_key",
        "formula",
        "theta",
        "deadline",
        "max_solves",
    )

    def __init__(
        self,
        command: str,
        model,
        model_hash_: str,
        options: CheckOptions,
        occupancy: np.ndarray,
        formula: str,
        theta: Optional[float],
        deadline: Optional[float],
        max_solves: Optional[int],
    ):
        self.command = command
        self.model = model
        self.model_hash = model_hash_
        self.options = options
        self.signature = options.signature()
        # Rounded so float formatting noise ("0.8" vs "0.80000000000001"
        # from a lossy client) cannot split cached responses; the answer
        # is computed at this rounded vector (``_compute_admitted``).
        self.occ_key = tuple(round(float(x), 12) for x in occupancy)
        self.formula = formula
        self.theta = theta
        self.deadline = deadline
        self.max_solves = max_solves

    @property
    def entry_key(self) -> Tuple[str, str]:
        return (self.model_hash, self.signature)

    @property
    def response_key(self) -> tuple:
        """Cache address of the *answer* — execution limits excluded."""
        return (self.command, self.formula, self.occ_key, self.theta)


class _CacheEntry:
    """Cached answers for one ``(model hash, options signature)`` pair."""

    def __init__(self, model, options: CheckOptions, key: Tuple[str, str]):
        self.key = key
        self.model = model
        # The entry's options never carry per-request execution limits:
        # each computation builds its budget from its own request.
        self.options = options
        self.stats = EvalStats()
        self.checker = MFModelChecker(model, options)
        self.lock = threading.Lock()
        self.responses: "OrderedDict[tuple, dict]" = OrderedDict()

    def trim_responses(self, bound: int) -> None:
        while len(self.responses) > bound:
            self.responses.popitem(last=False)


class CheckingService:
    """Transport-free checking-as-a-service core.

    ``handle(payload)`` is the whole public request API: it accepts one
    decoded JSON request dict and returns ``(http_status, response
    dict)``.  It is safe to call from many threads at once — that is the
    deployment shape (:class:`repro.server.http.CheckingHTTPServer` is a
    threading server).
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.stats = EvalStats()
        self._lock = threading.Lock()
        #: Signalled whenever an in-flight request finishes; drain()
        #: waits on it.  Shares ``self._lock`` so the active counter and
        #: the lifecycle state change atomically with everything else.
        self._cond = threading.Condition(self._lock)
        self._entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        #: ``(model, model_hash)`` per registry name, built on the first
        #: request that names it and shared by every entry after that
        #: (models are immutable).  Never evicted: one per registry name.
        self._registry_models: Dict[str, Tuple[Any, str]] = {}
        self._slots = threading.BoundedSemaphore(self.config.max_concurrent)
        self._closed = False
        #: Set once the first ``close()`` has finished spilling; later
        #: ``close()`` calls wait on it so none returns mid-spill.
        self._close_done = threading.Event()
        self._state = "starting"
        self._active = 0
        #: Entry keys whose spill file failed verification; never probed
        #: again (the file itself was renamed to ``*.corrupt``).
        self._quarantined: set = set()
        self.supervisor = QuerySupervisor(
            self.config.isolate, stats=self.stats
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """One of :data:`SERVICE_STATES`."""
        with self._lock:
            return self._state

    def mark_ready(self) -> None:
        """The transport is bound and accepting: starting → ready."""
        with self._lock:
            if self._state == "starting":
                self._state = "ready"

    def begin_drain(self) -> None:
        """Stop accepting new requests; in-flight ones keep running."""
        with self._lock:
            if self._state in ("starting", "ready"):
                self._state = "draining"

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful-shutdown step: reject new work, wait out old work.

        Flips to ``draining`` and blocks until every in-flight request
        has finished or ``timeout`` (default ``config.drain_deadline``)
        expires.  Returns whether the service fully quiesced; either
        way the caller proceeds to :meth:`close`, which spills the
        responses stored by then.
        """
        if timeout is None:
            timeout = self.config.drain_deadline
        self.begin_drain()
        end = time.monotonic() + timeout
        with self._lock:
            while self._active > 0:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def health_payload(self) -> Tuple[int, dict]:
        """The ``/health`` endpoint: liveness plus lifecycle state.

        ``starting``/``ready`` answer 200; ``draining``/``closed``
        answer 503 so load balancers stop routing here, with
        ``retry_after`` hinting when a replacement should be up.
        """
        state = self.state
        if state in ("starting", "ready"):
            return 200, {"status": "ok", "state": state}
        body = {"status": "error", "state": state}
        if state == "draining":
            body["retry_after"] = self.config.drain_deadline
        return 503, body

    def bump(self, counter: str) -> None:
        """Thread-safe increment of one service counter.

        The transport layer uses this for events the service core never
        sees (client disconnects mid-response, idle-connection
        timeouts).
        """
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _drain_rejection(self) -> Tuple[int, dict]:
        """503 for a request arriving mid-drain.  Caller holds the lock."""
        self.stats.service_drain_rejections += 1
        return (
            503,
            {
                "status": "error",
                "error_class": "Draining",
                "message": (
                    "server is draining (graceful shutdown in "
                    "progress); retry against a fresh instance"
                ),
                "exit_code": EXIT_BUDGET_EXCEEDED,
                "retry_after": self.config.drain_deadline,
            },
        )

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, payload: Any) -> Tuple[int, dict]:
        """Serve one request; never raises (errors become responses)."""
        with self._lock:
            self.stats.service_requests += 1
            if self._state == "draining":
                return self._drain_rejection()
            self._active += 1
        try:
            try:
                spec = self._validate(payload)
            except ReproError as exc:
                return self._error_response(exc)
            try:
                return self._serve(spec)
            except ReproError as exc:
                return self._error_response(exc)
        finally:
            with self._lock:
                self._active -= 1
                self._cond.notify_all()

    def handle_batch(self, payload: Any) -> Tuple[int, dict]:
        """Serve one batch envelope of independent queries.

        The envelope is ``{"queries": [request, ...]}`` plus optional
        ``deadline`` / ``max_solves`` defaults shared by every item.
        One admission slot and one deadline budget cover the whole
        batch; items execute sequentially, so an item repeated later in
        the envelope is answered from the response the earlier one
        stored.  Item failures
        are *per item*: a malformed or failing query yields an error
        body and exit code in its slot while the rest of the batch is
        answered normally — the envelope itself only fails on envelope
        errors (bad shape, too many items) or admission rejection.
        """
        with self._lock:
            if self._state == "draining":
                return self._drain_rejection()
            self._active += 1
        try:
            return self._handle_batch_tracked(payload)
        finally:
            with self._lock:
                self._active -= 1
                self._cond.notify_all()

    def _handle_batch_tracked(self, payload: Any) -> Tuple[int, dict]:
        """Body of :meth:`handle_batch`; the caller tracks in-flight."""
        try:
            queries, batch_deadline, batch_max_solves = (
                self._validate_batch(payload)
            )
        except ReproError as exc:
            return self._error_response(exc)
        with self._lock:
            if self._closed:
                return self._error_response(
                    ModelError("service is shut down")
                )
            self.stats.service_batch_requests += 1

        # One slot for the whole envelope — a 64-item batch costs the
        # admission controller exactly one concurrent computation.
        if not self._slots.acquire(timeout=self.config.queue_timeout):
            return self._admission_rejection()

        deadline_end = (
            None
            if batch_deadline is None
            else time.monotonic() + batch_deadline
        )
        results = []
        exit_codes = []
        errors = 0
        hits = 0
        last_key: Optional[tuple] = None
        computed_any = False
        try:
            for doc in queries:
                with self._lock:
                    self.stats.service_requests += 1
                    self.stats.service_batch_items += 1
                remaining: Optional[float] = None
                if deadline_end is not None:
                    remaining = deadline_end - time.monotonic()
                    if remaining <= 0:
                        body = {
                            "status": "error",
                            "error_class": "BudgetExceededError",
                            "message": (
                                "batch deadline of "
                                f"{batch_deadline}s exhausted before "
                                "this item started"
                            ),
                            "exit_code": EXIT_BUDGET_EXCEEDED,
                        }
                        results.append(body)
                        exit_codes.append(EXIT_BUDGET_EXCEEDED)
                        errors += 1
                        continue
                if isinstance(doc, dict):
                    doc = dict(doc)
                    if (
                        batch_max_solves is not None
                        and "max_solves" not in doc
                    ):
                        doc["max_solves"] = batch_max_solves
                try:
                    spec = self._validate(doc)
                except ReproError as exc:
                    _, body = self._error_response(exc)
                    results.append(body)
                    exit_codes.append(body["exit_code"])
                    errors += 1
                    continue
                # The envelope budget is the binding one: never let an
                # item outlive what is left of the batch deadline.
                if remaining is not None and (
                    spec.deadline is None or spec.deadline > remaining
                ):
                    spec.deadline = remaining
                try:
                    _, body, computed = self._serve_via(
                        spec, self._compute_admitted
                    )
                except ReproError as exc:
                    _, body = self._error_response(exc)
                    computed = False
                if computed:
                    computed_any = True
                    last_key = spec.entry_key
                elif body.get("status") == "ok":
                    hits += 1
                results.append(body)
                exit_codes.append(
                    body.get("exit_code", EXIT_CHECKING_ERROR)
                )
                if body.get("status") != "ok":
                    errors += 1
        finally:
            self._slots.release()
        if computed_any and last_key is not None:
            self._enforce_limits(keep=last_key)
        with self._lock:
            self.stats.service_batch_item_errors += errors
        return (
            200,
            {
                "status": "ok",
                "items": len(results),
                "errors": errors,
                "exit_codes": exit_codes,
                "results": results,
                "cache": {"hits": hits, "items": len(results)},
            },
        )

    # ``check_batch`` is the documented public name; ``handle_batch``
    # mirrors ``handle`` for the HTTP layer.
    check_batch = handle_batch

    # -- validation ----------------------------------------------------

    def _validate_batch(self, payload: Any):
        """Envelope validation: shape, size bound, shared limits."""
        if not isinstance(payload, dict):
            raise ModelError(
                f"batch request must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise ModelError(
                "field 'queries' must be a non-empty list of request "
                "objects"
            )
        if len(queries) > self.config.max_batch_items:
            raise ModelError(
                f"batch carries {len(queries)} queries but the server "
                f"accepts at most {self.config.max_batch_items} per "
                f"batch"
            )
        deadline = payload.get("deadline", _MISSING)
        if deadline is _MISSING:
            deadline = self.config.default_deadline
        deadline = check_limit("batch deadline", deadline, optional=True)
        if deadline is not None:
            deadline = float(deadline)
        max_solves = check_limit(
            "batch max_solves", payload.get("max_solves"),
            integer=True, optional=True,
        )
        return queries, deadline, max_solves

    def _validate(self, payload: Any) -> _RequestSpec:
        if not isinstance(payload, dict):
            raise ModelError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        command = payload.get("command")
        if command not in _VALID_COMMANDS:
            raise ModelError(
                f"field 'command' must be one of {list(_VALID_COMMANDS)}, "
                f"got {command!r}"
            )
        formula = payload.get("formula")
        if not isinstance(formula, str) or not formula.strip():
            raise ModelError(
                "field 'formula' must be a non-empty string"
            )
        occupancy_doc = payload.get("occupancy")
        if not isinstance(occupancy_doc, (list, tuple)) or not occupancy_doc:
            raise ModelError(
                "field 'occupancy' must be a non-empty list of numbers"
            )
        for i, x in enumerate(occupancy_doc):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ModelError(
                    f"field 'occupancy' entry {i} is not a number: {x!r}"
                )
        try:
            occupancy = np.array([float(x) for x in occupancy_doc])
        except OverflowError:  # a JSON integer beyond float range
            occupancy = None
        if occupancy is None or not np.isfinite(occupancy).all():
            # Slow path, errors only: name the offending entry.
            for i, x in enumerate(occupancy_doc):
                check_limit(
                    f"field 'occupancy' entry {i}", x, nonnegative=True
                )

        theta: Optional[float] = None
        if command == "csat":
            theta = float(check_limit("theta", payload.get("theta", 10.0)))
        elif "theta" in payload:
            raise ModelError(
                f"field 'theta' is only valid for the 'csat' command "
                f"(got command {command!r})"
            )

        options, deadline, max_solves = self._parse_options(payload)
        model, hash_ = self._parse_model(payload)
        return _RequestSpec(
            command=command,
            model=model,
            model_hash_=hash_,
            options=options,
            occupancy=occupancy,
            formula=formula,
            theta=theta,
            deadline=deadline,
            max_solves=max_solves,
        )

    def _parse_options(self, payload: dict):
        """The entry-level options plus the per-request execution limits.

        Deadline and solve cap are pulled *out* of the options so the
        entry's :class:`~repro.checking.options.CheckOptions` never
        carries them — each computation builds its budget from its own
        request's limits (the options signature excludes them for the
        same reason).
        """
        opts_doc = payload.get("options", {})
        if opts_doc is None:
            opts_doc = {}
        if not isinstance(opts_doc, dict):
            raise ModelError(
                f"field 'options' must be an object, got {opts_doc!r}"
            )
        opts_doc = dict(opts_doc)
        known = {f.name for f in dataclass_fields(CheckOptions)}
        unknown = sorted(set(opts_doc) - known)
        if unknown:
            raise ModelError(
                f"unknown option fields {unknown}; valid fields: "
                f"{sorted(known)}"
            )
        # Validated even when a top-level field overrides them, so a
        # malformed limit is never silently accepted.
        opt_deadline = check_limit(
            "deadline", opts_doc.pop("deadline", None), optional=True
        )
        opt_max_solves = check_limit(
            "max_solves", opts_doc.pop("max_solves", None),
            integer=True, optional=True,
        )
        options = CheckOptions(**opts_doc)

        deadline = payload.get("deadline", _MISSING)
        if deadline is _MISSING:
            deadline = (
                opt_deadline
                if opt_deadline is not None
                else self.config.default_deadline
            )
        deadline = check_limit("deadline", deadline, optional=True)
        if deadline is not None:
            deadline = float(deadline)

        max_solves = payload.get("max_solves", _MISSING)
        if max_solves is _MISSING:
            max_solves = opt_max_solves
        max_solves = check_limit(
            "max_solves", max_solves, integer=True, optional=True
        )
        return options, deadline, max_solves

    def _parse_model(self, payload: dict):
        document = payload.get("model_document")
        if document is not None:
            if not isinstance(document, dict):
                raise ModelError(
                    "field 'model_document' must be a model JSON object"
                )
            model = model_from_dict(document)
            return model, model_hash(model)
        name = payload.get("model", "virus1")
        if not isinstance(name, str) or name not in MODEL_REGISTRY:
            raise ModelError(
                f"unknown model {name!r}; choose from "
                f"{sorted(MODEL_REGISTRY)} or pass 'model_document'"
            )
        built = self._registry_models.get(name)
        if built is None:
            # Build outside the service lock, as _entry_for does for
            # checkers; setdefault makes concurrent first requests
            # agree on one instance.
            model = MODEL_REGISTRY[name]()
            built = self._registry_models.setdefault(
                name, (model, model_hash(model, fallback=f"builtin:{name}"))
            )
        return built

    # -- the serve path ------------------------------------------------

    def _serve(self, spec: _RequestSpec) -> Tuple[int, dict]:
        status, response, computed = self._serve_via(spec, self._compute)
        if computed:
            self._enforce_limits(keep=spec.entry_key)
        return status, response

    def _serve_via(
        self, spec: _RequestSpec, compute
    ) -> Tuple[int, dict, bool]:
        """Cache probe → ``compute(spec)`` for one request.

        The common serve skeleton of :meth:`handle` (where ``compute``
        acquires its own admission slot) and :meth:`handle_batch` (where
        the whole batch already holds one).  Returns ``(status,
        response, computed)`` — ``computed`` is ``False`` for answers
        served from a warm entry's response cache, which never warrant
        an eviction sweep.
        """
        with self._lock:
            if self._closed:
                raise ModelError("service is shut down")
            entry = self._entries.get(spec.entry_key)
            if entry is not None:
                self._entries.move_to_end(spec.entry_key)
                core = self._probe(entry, spec)
                if core is not None:
                    status, response = self._finish(core, hit=True)
                    return status, response, False
        try:
            return compute(spec)
        except Exception as exc:
            # Any failure, not only a library error, answers this
            # request or its /batch slot alike.
            if not isinstance(exc, ReproError):
                traceback.print_exc()  # a defect: keep its traceback
            status, response = self._error_response(exc)
            return status, response, True

    def _probe(self, entry: _CacheEntry, spec: _RequestSpec) -> Optional[dict]:
        """The entry's cached response core, counted as a hit.  Caller
        holds ``self._lock``."""
        core = entry.responses.get(spec.response_key)
        if core is not None:
            entry.responses.move_to_end(spec.response_key)
            self.stats.service_cache_hits += 1
        return core

    def _admission_rejection(self) -> Tuple[int, dict]:
        """The 429 response of a failed admission-slot acquisition."""
        with self._lock:
            self.stats.service_rejections += 1
        return (
            HTTP_STATUS_REJECTED,
            {
                "status": "error",
                "error_class": "AdmissionRejected",
                "message": (
                    f"no worker slot free within "
                    f"{self.config.queue_timeout}s "
                    f"({self.config.max_concurrent} concurrent "
                    f"computations allowed); retry later"
                ),
                "exit_code": EXIT_BUDGET_EXCEEDED,
            },
        )

    def _compute(self, spec: _RequestSpec) -> Tuple[int, dict, bool]:
        """Acquire an admission slot, then run one computation."""
        if not self._slots.acquire(timeout=self.config.queue_timeout):
            status, response = self._admission_rejection()
            return status, response, False
        try:
            return self._compute_admitted(spec)
        finally:
            self._slots.release()

    def _compute_admitted(
        self, spec: _RequestSpec
    ) -> Tuple[int, dict, bool]:
        """Answer one request under its entry's lock; the caller holds
        an admission slot.  Returns ``(status, response, computed)``."""
        entry, cold = self._entry_for(spec)
        with entry.lock:
            # While this request waited for the lock, an identical one
            # may have stored the answer, or the entry may have been
            # revived from a spill that holds it: probe before computing.
            with self._lock:
                core = self._probe(entry, spec)
            if core is not None:
                status, response = self._finish(core, hit=True)
                return status, response, cold
            before = entry.stats.as_dict()
            budget = Budget.from_options(
                replace(
                    entry.options,
                    deadline=spec.deadline,
                    max_solves=spec.max_solves,
                )
            )
            # Compute at the occupancy the response key names, so every
            # request that shares this key gets the answer it would get
            # alone, whichever of them arrived first.
            occupancy = np.array(spec.occ_key)
            ctx = EvaluationContext(
                entry.model,
                occupancy,
                entry.options,
                stats=entry.stats,
                budget=budget,
            )

            def job():
                # Runs in-process or in a forked worker, depending on
                # the isolation mode.  The fork boundary strands
                # everything the child computes, so the job ships back
                # the response core and the entry counters (the
                # parent's copies are frozen while entry.lock is held,
                # so a wholesale copy-back is exact).
                core = self._execute(spec, entry, ctx, occupancy)
                return core, entry.stats.as_dict()

            try:
                (core, counters), isolated = self.supervisor.run(
                    job, deadline=spec.deadline
                )
            except ReproError as exc:
                status, response = self._error_response(exc)
                return status, response, True
            if isolated:
                for name, value in counters.items():
                    setattr(entry.stats, name, value)
            after = entry.stats.as_dict()
            with self._lock:
                entry.responses[spec.response_key] = core
                entry.trim_responses(self.config.max_responses_per_entry)
        delta = {
            k: after[k] - before[k]
            for k in after
            if after[k] != before[k]
        }
        status, response = self._finish(
            core, hit=False, cold_entry=cold, stats_delta=delta
        )
        return status, response, True

    def _entry_for(self, spec: _RequestSpec) -> Tuple[_CacheEntry, bool]:
        """The warm entry for this request (created cold on a miss)."""
        with self._lock:
            entry = self._entries.get(spec.entry_key)
            if entry is not None:
                self._entries.move_to_end(spec.entry_key)
                return entry, False
        # Build outside the service lock: constructing a checker and
        # probing the spill directory must not stall cache hits on
        # unrelated entries.
        entry = _CacheEntry(spec.model, spec.options, spec.entry_key)
        loaded = self._load_spill(entry)
        with self._lock:
            existing = self._entries.get(spec.entry_key)
            if existing is not None:
                self._entries.move_to_end(spec.entry_key)
                return existing, False
            self.stats.service_cache_misses += 1
            if loaded:
                self.stats.service_spill_loads += 1
            self._entries[spec.entry_key] = entry
        return entry, True

    def _execute(
        self,
        spec: _RequestSpec,
        entry: _CacheEntry,
        ctx: EvaluationContext,
        occupancy: np.ndarray,
    ) -> dict:
        """The actual checking work at ``occupancy`` (the key's rounded
        vector) — returns the cacheable response core."""
        core: dict = {
            "status": "ok",
            "command": spec.command,
            "model_hash": spec.model_hash,
            "options_signature": spec.signature,
        }
        if spec.command == "check":
            verdict = entry.checker.check_detailed(
                spec.formula, occupancy, ctx=ctx
            )
            core["verdict"] = {
                "holds": verdict.holds,
                "value": verdict.value,
                "margin": verdict.margin,
            }
            core["exit_code"] = (
                EXIT_SATISFIED if verdict.holds else EXIT_NOT_SATISFIED
            )
        elif spec.command == "value":
            core["value"] = float(
                entry.checker.value(spec.formula, occupancy, ctx=ctx)
            )
            core["exit_code"] = EXIT_SATISFIED
        else:  # csat
            result = entry.checker.conditional_sat(
                spec.formula, occupancy, spec.theta, ctx=ctx
            )
            core["theta"] = spec.theta
            core["intervals"] = [
                [float(a), float(b)] for a, b in result.intervals
            ]
            core["exit_code"] = EXIT_SATISFIED
        return core

    # -- response shaping ----------------------------------------------

    @staticmethod
    def _finish(
        core: dict,
        *,
        hit: bool,
        cold_entry: bool = False,
        stats_delta: Optional[dict] = None,
    ) -> Tuple[int, dict]:
        """Attach per-request cache metadata to a cached/fresh core."""
        response = dict(core)
        response["cache"] = {"hit": hit, "cold_entry": cold_entry}
        response["stats_delta"] = stats_delta or {}
        return HTTP_STATUS_BY_EXIT_CODE[core["exit_code"]], response

    @staticmethod
    def _error_response(exc: Exception) -> Tuple[int, dict]:
        """The error body of ``exc``; a non-library error is a 500."""
        code = (
            exit_code_for(exc)
            if isinstance(exc, ReproError)
            else EXIT_CHECKING_ERROR
        )
        response = {
            "status": "error",
            "error_class": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
        progress = getattr(exc, "progress", None)
        if progress:
            response["progress"] = {
                k: v
                for k, v in sorted(progress.items())
                if isinstance(v, (int, float, str, bool)) or v is None
            }
        return HTTP_STATUS_BY_EXIT_CODE.get(code, 500), response

    # ------------------------------------------------------------------
    # Cache limits, eviction and disk spill
    # ------------------------------------------------------------------

    def _enforce_limits(self, keep: tuple) -> None:
        """Evict LRU entries beyond ``max_entries``.

        ``keep`` (the entry just used) is never evicted — evicting the
        answers a request just stored would defeat the cache.
        """
        evicted = []
        with self._lock:
            while len(self._entries) > self.config.max_entries:
                key = next(k for k in self._entries if k != keep)
                evicted.append(self._entries.pop(key))
            self.stats.service_cache_evictions += len(evicted)
        for entry in evicted:
            self._spill_entry(entry)

    def _spill_path(self, key: Tuple[str, str]) -> Optional[Path]:
        if self.config.cache_dir is None:
            return None
        digest = hashlib.sha256(
            f"{key[0]}|{key[1]}".encode("utf-8")
        ).hexdigest()
        return Path(self.config.cache_dir) / f"entry-{digest[:32]}.pkl"

    def _spill_entry(self, entry: _CacheEntry) -> None:
        """Write an entry's stored responses to the spill directory.

        Failures are counted (``service_spill_failures``) and otherwise
        swallowed: spill is an optimization, never a correctness
        dependency.
        """
        path = self._spill_path(entry.key)
        if path is None:
            return
        # Taking the entry lock lets an in-flight computation store its
        # response first.
        with entry.lock:
            payload = {
                "format": _SPILL_FORMAT,
                "version": _SPILL_VERSION,
                "model_hash": entry.key[0],
                "options_signature": entry.key[1],
                "responses": dict(entry.responses),
            }
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(blob).digest()
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as fh:
                fh.write(_SPILL_MAGIC)
                fh.write(digest)
                fh.write(blob)
            tmp.replace(path)
        except Exception:
            with self._lock:
                self.stats.service_spill_failures += 1
            return
        with self._lock:
            self.stats.service_spill_saves += 1
            # A fresh, verified write supersedes any earlier corruption
            # verdict for this key.
            self._quarantined.discard(entry.key)

    def _load_spill(self, entry: _CacheEntry) -> bool:
        """Revive a cold entry from the spill directory (best-effort).

        A file that fails verification — unreadable, bad header, wrong
        checksum, undecodable payload, key mismatch — is *quarantined*:
        renamed to ``*.corrupt`` and its key blacklisted in memory, so
        a corrupt spill is read at most once instead of being re-probed
        (and re-deserialized) on every cold request for its key.
        """
        path = self._spill_path(entry.key)
        if path is None:
            return False
        with self._lock:
            if entry.key in self._quarantined:
                return False
        if not path.exists():
            return False
        payload = self._read_spill(path, entry.key)
        if payload is None:
            return False
        responses = payload.get("responses")
        if isinstance(responses, dict):
            entry.responses.update(responses)
            entry.trim_responses(self.config.max_responses_per_entry)
        return True

    def _read_spill(self, path: Path, key: tuple) -> Optional[dict]:
        """Checksum-verified spill read; any failure quarantines ``path``."""
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except Exception:
            self._quarantine(path, key)
            return None
        header_len = len(_SPILL_MAGIC) + hashlib.sha256().digest_size
        if len(raw) < header_len or not raw.startswith(_SPILL_MAGIC):
            self._quarantine(path, key)
            return None
        digest = raw[len(_SPILL_MAGIC):header_len]
        blob = raw[header_len:]
        if hashlib.sha256(blob).digest() != digest:
            self._quarantine(path, key)
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self._quarantine(path, key)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _SPILL_FORMAT
            or payload.get("version") != _SPILL_VERSION
            or payload.get("model_hash") != key[0]
            or payload.get("options_signature") != key[1]
        ):
            self._quarantine(path, key)
            return None
        return payload

    def _quarantine(self, path: Path, key: tuple) -> None:
        """Blacklist a failed spill and rename it out of the probe path."""
        with self._lock:
            if key not in self._quarantined:
                self._quarantined.add(key)
                self.stats.service_spill_quarantined += 1
        try:
            path.rename(path.with_name(path.name + ".corrupt"))
        except Exception:
            # The rename is cosmetic (keeps the evidence around for a
            # human); the in-memory blacklist is what stops re-probes.
            pass

    # ------------------------------------------------------------------
    # Introspection and shutdown
    # ------------------------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``/stats`` endpoint body."""
        with self._lock:
            entries = [
                {
                    "model_hash": e.key[0],
                    "options_signature": e.key[1],
                    "responses": len(e.responses),
                    "stats": e.stats.as_dict(),
                }
                for e in self._entries.values()
            ]
            service = {
                name: value
                for name, value in self.stats.as_dict().items()
                if name.startswith("service_")
            }
            return {
                "status": "ok",
                "state": self._state,
                "active_requests": self._active,
                "service": service,
                "supervisor": self.supervisor.snapshot(),
                "entries": entries,
                "config": {
                    "max_entries": self.config.max_entries,
                    "max_concurrent": self.config.max_concurrent,
                    "queue_timeout": self.config.queue_timeout,
                    "default_deadline": self.config.default_deadline,
                    "cache_dir": self.config.cache_dir,
                    "isolate": self.config.isolate,
                    "drain_deadline": self.config.drain_deadline,
                    "connection_timeout": self.config.connection_timeout,
                },
            }

    def close(self) -> None:
        """Spill every entry's responses and refuse further requests.

        Terminal: unlike ``draining`` (a transient 503 — retry
        elsewhere), a closed service answers 400, because there is no
        point retrying against it.  Graceful shutdown is
        :meth:`drain` followed by ``close()``.

        Safe to call from several threads: every call returns only
        after the spill begun by the first one has finished, so a
        process may exit as soon as any ``close()`` returns.
        """
        with self._lock:
            first = not self._closed
            if first:
                self._closed = True
                self._state = "closed"
                entries = list(self._entries.values())
                self._entries.clear()
        if not first:
            self._close_done.wait()
            return
        try:
            for entry in entries:
                self._spill_entry(entry)
        finally:
            self._close_done.set()
