"""The HTTP query server: ThreadingHTTPServer around a framework-free app.

Two layers, deliberately separated:

* :class:`ServeApp` — the whole request lifecycle as a pure function
  ``(method, path, body) -> (status, headers, body)``: routing, JSON
  parsing, admission control, the generation-keyed result cache, query
  execution against *any* database facade (:class:`~repro.core.engine.
  MatchDatabase`, :class:`~repro.shard.ShardedMatchDatabase`,
  :class:`~repro.core.dynamic.DynamicMatchDatabase`), canonical
  encoding and error mapping.  No sockets anywhere, so every behaviour
  is unit-testable in-process.
* :class:`MatchServer` — a ``ThreadingHTTPServer`` that owns one
  :class:`ServeApp` and does nothing but move bytes.  ``start()`` runs
  it on a background thread (tests, benchmarks); ``run()`` serves on
  the calling thread with SIGTERM/SIGINT triggering a graceful drain
  (the CLI path).

Endpoints::

    POST /v1/query              one k-n-match
    POST /v1/frequent           one frequent k-n-match
    POST /v1/batch              a batch of k-n-matches
    POST /v1/insert             insert one point (mutable facades)
    POST /v1/delete             delete one point by id (mutable facades)
    GET  /healthz               liveness + database generation
    GET  /metrics               Prometheus 0.0.4 text (the repro.obs exporter)
    GET  /v1/debug/flight       the flight recorder's retained records
    GET  /v1/debug/trace/<id>   one record by trace id (?format=chrome)

Observability: the app always owns a
:class:`~repro.obs.MetricsRegistry` (``/metrics`` must have something
to export) and records ``repro_serve_*`` series through the canonical
helpers in :mod:`repro.obs.instrument`; with ``instrument_database=True``
(the default) the registry — and the span collector, when one is passed
— is also installed on the facade, so engine-level counters and
``serve_handle``/``serve_cache`` phase spans land in the same registry
a scrape sees.

Request tracing: every request gets a :class:`~repro.obs.TraceContext`
— minted deterministically, or adopted from the client's
``X-Repro-Trace`` header (W3C-traceparent layout) — echoed back in the
response headers, attached to the ``serve_handle`` span root, and keyed
into the flight recorder, which retains the complete record (span tree,
plan/engine/mode, cache event, queue/handle ms) of every slow, shed or
failed query for the debug endpoints above.  ``access_log`` streams one
canonical-JSON line per request.  See ``docs/observability.md``.
"""

from __future__ import annotations

import inspect
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import validation
from ..core.engine import validate_engine_choice
from ..errors import ValidationError
from ..obs import (
    NULL_SPANS,
    FlightRecorder,
    MetricsRegistry,
    TRACE_HEADER,
    TraceContext,
    TraceIdGenerator,
    observe_serve_cache,
    observe_serve_request,
    observe_serve_shed,
    parse_trace_header,
    render_prometheus,
    serve_inflight_gauge,
)
from . import protocol
from .admission import AdmissionController, ShedError
from .cache import ResultCache, cache_key, query_fingerprint

__all__ = ["ServeApp", "MatchServer"]

_JSON = "application/json"

#: Largest request body the HTTP shell reads.  A ``Content-Length``
#: above it is refused with 413 before a byte of the body is read.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Endpoint label used for paths that match no route, so the metrics
#: registry's label cardinality stays bounded no matter what clients
#: send.
_UNKNOWN_ENDPOINT = "unknown"

_POST_ENDPOINTS = (
    "/v1/query", "/v1/frequent", "/v1/batch", "/v1/insert", "/v1/delete",
)
#: The subset of POST endpoints that mutate the database; they bypass
#: the result cache and stamp the new generation on the response.
_MUTATION_ENDPOINTS = ("/v1/insert", "/v1/delete")
_GET_ENDPOINTS = ("/healthz", "/metrics", "/v1/debug/flight")
#: Prefix route for one-record lookup: ``/v1/debug/trace/<trace_id>``.
_TRACE_PREFIX = "/v1/debug/trace/"


class ServeApp:
    """The request lifecycle, independent of any socket (see module doc)."""

    def __init__(
        self,
        db,
        default_engine: Optional[str] = None,
        max_inflight: int = 64,
        deadline_ms: float = 1000.0,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[object] = None,
        instrument_database: bool = True,
        default_mode: Optional[str] = None,
        default_budget: Optional[int] = None,
        default_target_recall: Optional[float] = None,
        default_candidate_multiplier: Optional[int] = None,
        slow_threshold_seconds: Optional[float] = None,
        flight_capacity: int = 64,
        access_log: Optional[object] = None,
        trace_seed: int = 0,
    ) -> None:
        self._db = db
        signature = inspect.signature(db.k_n_match).parameters
        self._supports_engine = "engine" in signature
        self._supports_approx = "mode" in signature
        frequent = getattr(db, "frequent_k_n_match", None)
        self._supports_frequent_mode = (
            frequent is not None
            and "mode" in inspect.signature(frequent).parameters
        )
        self._supports_mutation = hasattr(db, "insert") and hasattr(
            db, "delete"
        )
        approx_defaults = (
            default_mode, default_budget, default_target_recall,
            default_candidate_multiplier,
        )
        if any(value is not None for value in approx_defaults):
            from ..approx import (
                APPROX_UNSUPPORTED_MESSAGE,
                validate_approx_params,
            )

            if not self._supports_approx:
                raise ValidationError(APPROX_UNSUPPORTED_MESSAGE)
            (
                default_mode, default_budget, default_target_recall,
                default_candidate_multiplier,
            ) = validate_approx_params(*approx_defaults)
        self._default_mode = default_mode
        self._default_budget = default_budget
        self._default_target_recall = default_target_recall
        self._default_candidate_multiplier = default_candidate_multiplier
        if default_engine is not None:
            if default_mode == "approx" and default_engine != "auto":
                from ..approx import validate_approx_engine

                validate_approx_engine(default_engine)
            else:
                validate_engine_choice(default_engine)
            if not self._supports_engine:
                raise ValidationError(
                    "default_engine was given but this database does not "
                    "support per-query engine selection"
                )
        self._default_engine = default_engine
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._spans = spans
        self._admission = AdmissionController(
            max_inflight=max_inflight,
            deadline_seconds=deadline_ms / 1000.0,
        )
        self._cache = ResultCache(cache_size)
        self._draining = False
        if slow_threshold_seconds is not None and slow_threshold_seconds < 0:
            raise ValidationError(
                "slow_threshold_seconds must be >= 0 or None; "
                f"got {slow_threshold_seconds}"
            )
        self._slow_threshold = slow_threshold_seconds
        if spans is not None and slow_threshold_seconds is not None:
            # Wire the server's slow threshold into the collector's own
            # slow-query log so `traces()`/`slow_traces()` agree with
            # the flight recorder on what "slow" means.
            spans.slow_threshold_seconds = slow_threshold_seconds
        self._flight = FlightRecorder(flight_capacity)
        self._trace_ids = TraceIdGenerator(trace_seed)
        self._trace_lock = threading.Lock()
        self._access_log = access_log
        self._access_lock = threading.Lock()
        if instrument_database:
            if hasattr(db, "set_metrics"):
                db.set_metrics(self._metrics)
            if spans is not None and hasattr(db, "set_spans"):
                db.set_spans(spans)

    # ------------------------------------------------------------------
    @property
    def db(self):
        return self._db

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def spans(self):
        return self._spans

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def flight(self) -> FlightRecorder:
        """The flight recorder (capacity 0 means disabled)."""
        return self._flight

    @property
    def slow_threshold_seconds(self) -> Optional[float]:
        return self._slow_threshold

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new queries; in-flight ones run to completion."""
        self._draining = True

    def close(self) -> None:
        """Release the database's backend resources (idempotent).

        Matters for process-backed sharded databases, whose worker pool
        and shared-memory segments should not outlive the server; other
        databases have no ``close`` and this is a no-op.
        """
        if hasattr(self._db, "close"):
            self._db.close()

    def generation(self) -> int:
        """The facade's mutation counter (static facades pin it at 0)."""
        return int(getattr(self._db, "generation", 0))

    # ------------------------------------------------------------------
    # the one entry point
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """Process one request; returns ``(status, headers, body)``.

        ``headers`` are the incoming request headers (any casing); the
        only one the app reads is ``X-Repro-Trace``.  Omitting them
        keeps the three-argument test/bench call sites working — the
        request simply gets a freshly minted trace context.
        """
        path, _, query_string = path.partition("?")
        context = self._trace_context(headers)
        routed = (
            path in _GET_ENDPOINTS
            or path in _POST_ENDPOINTS
            or path.startswith(_TRACE_PREFIX)
        )
        if routed:
            expected = "POST" if path in _POST_ENDPOINTS else "GET"
            if method != expected:
                return self._finish(
                    path, 0.0, 0.0,
                    self._error(
                        405, "method_not_allowed",
                        f"{path} only accepts {expected}",
                        extra_headers=[("Allow", expected)],
                    ),
                    method=method,
                    context=context,
                )
        started = time.perf_counter()
        if path == "/healthz":
            response = self._handle_health()
        elif path == "/metrics":
            response = self._handle_metrics()
        elif path == "/v1/debug/flight":
            response = self._handle_flight()
        elif path.startswith(_TRACE_PREFIX):
            response = self._handle_trace(
                path[len(_TRACE_PREFIX):], query_string
            )
        elif path in _POST_ENDPOINTS:
            return self._handle_post(path, body, started, method, context)
        else:
            response = self._error(
                404, "not_found",
                f"unknown path {path!r}; endpoints: "
                f"{', '.join(_POST_ENDPOINTS + _GET_ENDPOINTS)}, "
                f"{_TRACE_PREFIX}<trace_id>",
            )
            return self._finish(
                _UNKNOWN_ENDPOINT, time.perf_counter() - started, 0.0,
                response, method=method, context=context,
            )
        return self._finish(
            path, time.perf_counter() - started, 0.0, response,
            method=method, context=context,
        )

    def _trace_context(
        self, headers: Optional[Dict[str, str]]
    ) -> TraceContext:
        """Adopt the client's trace context, or mint the next one."""
        value = None
        if headers:
            for name, header_value in headers.items():
                if name.lower() == TRACE_HEADER.lower():
                    value = header_value
                    break
        context = parse_trace_header(value)
        if context is None:
            with self._trace_lock:
                context = self._trace_ids.mint()
        return context

    # ------------------------------------------------------------------
    # GET endpoints
    # ------------------------------------------------------------------
    def _handle_health(self):
        payload = {
            "protocol": protocol.PROTOCOL_VERSION,
            "status": "draining" if self._draining else "ok",
            "generation": self.generation(),
            "cardinality": int(self._db.cardinality),
            "dimensionality": int(self._db.dimensionality),
            "inflight": self._admission.inflight,
            "cache_entries": len(self._cache),
        }
        status = 503 if self._draining else 200
        return status, [("Content-Type", _JSON)], protocol.canonical_json(
            payload
        )

    def _handle_metrics(self):
        text = render_prometheus(self._metrics)
        return (
            200,
            [("Content-Type", "text/plain; version=0.0.4; charset=utf-8")],
            text.encode("utf-8"),
        )

    def _handle_flight(self):
        """The flight recorder's retained records, oldest first.

        Deterministic: records are ordered by the monotone ``seq``
        assigned under the recorder lock, so concurrent requests that
        raced each other still export in one total order.
        """
        payload = {
            "protocol": protocol.PROTOCOL_VERSION,
            "capacity": self._flight.capacity,
            "recorded": self._flight.recorded,
            "dropped": self._flight.dropped,
            "records": [
                record.to_dict() for record in self._flight.snapshot()
            ],
        }
        return 200, [("Content-Type", _JSON)], protocol.canonical_json(
            payload
        )

    def _handle_trace(self, trace_id: str, query_string: str):
        """One flight record by trace id; ``?format=chrome`` exports it."""
        record = self._flight.find(trace_id.strip().lower())
        if record is None:
            return self._error(
                404, "not_found",
                f"no flight record for trace id {trace_id!r}; the "
                "recorder keeps slow, shed and error requests only "
                f"(capacity {self._flight.capacity})",
            )
        if "format=chrome" in query_string:
            epoch = (
                self._spans.epoch if self._spans is not None else 0.0
            )
            payload = record.chrome_trace(epoch=epoch)
        else:
            payload = {
                "protocol": protocol.PROTOCOL_VERSION,
                "record": record.to_dict(),
            }
        return 200, [("Content-Type", _JSON)], protocol.canonical_json(
            payload
        )

    # ------------------------------------------------------------------
    # POST endpoints
    # ------------------------------------------------------------------
    def _handle_post(
        self,
        path: str,
        body: bytes,
        started: float,
        method: str = "POST",
        context: Optional[TraceContext] = None,
    ):
        # ``detail`` rides along to the access log and flight recorder;
        # a non-None detail is also what marks the request as a query
        # (only those are flight-recorded).
        detail: Dict[str, object] = {}
        if self._draining:
            return self._finish(
                path, time.perf_counter() - started, 0.0,
                self._error(
                    503, "draining", "server is draining; no new queries"
                ),
                method=method, context=context, detail=detail,
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return self._finish(
                path, time.perf_counter() - started, 0.0,
                self._error(400, "bad_json", f"request body is not JSON: {error}"),
                method=method, context=context, detail=detail,
            )
        try:
            if path == "/v1/query":
                request = protocol.parse_query_request(payload)
            elif path == "/v1/frequent":
                request = protocol.parse_frequent_request(payload)
            elif path == "/v1/insert":
                request = protocol.parse_insert_request(payload)
            elif path == "/v1/delete":
                request = protocol.parse_delete_request(payload)
            else:
                request = protocol.parse_batch_request(payload)
        except ValidationError as error:
            return self._finish(
                path, time.perf_counter() - started, 0.0,
                self._error(400, "validation", str(error)),
                method=method, context=context, detail=detail,
            )

        detail["engine"] = self._engine_label(request)
        deadline = (
            None if request.deadline_ms is None
            else request.deadline_ms / 1000.0
        )
        try:
            ticket = self._admission.admit(deadline)
        except ShedError as error:
            registry = self._metrics
            observe_serve_shed(registry, path, error.reason)
            # An honest Retry-After: the queue wait this request (and
            # its recent peers) actually observed, rounded up — not a
            # hardcoded constant that under-advises loaded servers.
            retry_after = self._admission.retry_after_seconds(
                error.queue_seconds
            )
            return self._finish(
                path, time.perf_counter() - started, error.queue_seconds,
                self._error(
                    429, "shed", str(error),
                    extra_headers=[("Retry-After", str(retry_after))],
                ),
                method=method, context=context, detail=detail,
            )
        serve_inflight_gauge(self._metrics).set(self._admission.inflight)
        try:
            spans = self._spans or NULL_SPANS
            trace_id = context.trace_id if context is not None else ""
            # Without a collector ``root`` is None: flight records made
            # for this request then carry no span tree.
            with spans.span(
                "serve_handle", endpoint=path, trace_id=trace_id
            ) as root:
                response = self._answer(path, request, detail)
        finally:
            self._admission.release()
            serve_inflight_gauge(self._metrics).set(self._admission.inflight)
        return self._finish(
            path, time.perf_counter() - started, ticket.queue_seconds,
            response, method=method, context=context, detail=detail,
            root=root,
        )

    def _answer(self, path: str, request, detail: Optional[Dict] = None):
        """Cache lookup -> (maybe) execute -> encode, inside admission."""
        spans = self._spans or NULL_SPANS
        if detail is None:
            detail = {}
        detail["kind"] = {
            "/v1/query": "k_n_match",
            "/v1/frequent": "frequent_k_n_match",
            "/v1/batch": "k_n_match_batch",
            "/v1/insert": "insert",
            "/v1/delete": "delete",
        }[path]
        if path in _MUTATION_ENDPOINTS:
            # Mutations never touch the result cache: the generation
            # bump they cause is itself what invalidates cached answers
            # (every cache key embeds the generation it was computed
            # under).
            return self._mutate(path, request, detail)
        try:
            key = self._cache_key(path, request)
        except ValidationError as error:
            return self._error(400, "validation", str(error))
        if self._cache.enabled:
            with spans.span("serve_cache", op="get"):
                cached = self._cache.get(key[1])
            if cached is not None:
                observe_serve_cache(self._metrics, path, "hit")
                spans.annotate(cache="hit")
                detail["cache"] = "hit"
                headers = [("Content-Type", _JSON), ("X-Repro-Cache", "hit")]
                # Replayed approx answers re-derive the recall header
                # from the cached canonical bytes, so hit and miss
                # responses are indistinguishable header-for-header.
                if (
                    path != "/v1/frequent"
                    and self._approx_kwargs(request).get("mode") == "approx"
                ):
                    recall = self._payload_recall(json.loads(cached))
                    if recall is not None:
                        detail["certified_recall"] = recall
                        headers.append(("X-Repro-Recall", f"{recall:.6f}"))
                return (200, headers, cached)
        generation_before = key[0]
        try:
            payload = self._execute(path, request)
        except ValidationError as error:
            return self._error(400, "validation", str(error))
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            return self._error(
                500, "internal", f"{type(error).__name__}: {error}"
            )
        body = protocol.canonical_json(payload)
        if self._cache.enabled:
            event = "miss"
            # Only cache what is still current: if a writer bumped the
            # generation while we computed, the answer may reflect a
            # mix of states and must not be replayed.
            if self.generation() == generation_before:
                with spans.span("serve_cache", op="put"):
                    evicted = self._cache.put(key[1], body)
            else:
                evicted = 0
            observe_serve_cache(self._metrics, path, event, evicted)
        else:
            event = "bypass"
        spans.annotate(cache=event)
        detail["cache"] = event
        if "mode" in payload:
            detail["mode"] = payload["mode"]
        headers = [("Content-Type", _JSON), ("X-Repro-Cache", event)]
        recall = self._payload_recall(payload)
        if recall is not None:
            detail["certified_recall"] = recall
            headers.append(("X-Repro-Recall", f"{recall:.6f}"))
        return (200, headers, body)

    def _mutate(self, path: str, request, detail: Dict):
        """Execute one mutation and encode its canonical response."""
        if not self._supports_mutation:
            return self._error(
                400, "validation",
                "this database does not support mutations; serve a "
                "DynamicMatchDatabase or an LSM store (--store)",
            )
        db = self._db
        try:
            if path == "/v1/insert":
                pid = db.insert(request.point)
            else:
                pid = request.pid
                db.delete(pid)
        except ValidationError as error:
            return self._error(400, "validation", str(error))
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            return self._error(
                500, "internal", f"{type(error).__name__}: {error}"
            )
        generation = self.generation()
        detail["pid"] = pid
        detail["generation"] = generation
        payload = {
            "protocol": protocol.PROTOCOL_VERSION,
            "kind": detail["kind"],
            "pid": int(pid),
            "generation": generation,
            "cardinality": int(db.cardinality),
        }
        headers = [
            ("Content-Type", _JSON),
            ("X-Repro-Generation", str(generation)),
        ]
        return (200, headers, protocol.canonical_json(payload))

    @staticmethod
    def _payload_recall(payload: Dict) -> Optional[float]:
        """The certificate an approx payload carries (batch: the weakest)."""
        if payload.get("mode") != "approx":
            return None
        if "result" in payload:
            return float(payload["result"]["certified_recall"])
        results = payload.get("results") or []
        if not results:
            return None
        return min(float(entry["certified_recall"]) for entry in results)

    # ------------------------------------------------------------------
    def _approx_kwargs(self, request) -> Dict:
        """The approximate-tier kwargs this request resolves to.

        Request fields win outright; the server defaults apply only
        when the request sets *none* of them (mixing per-request fields
        with half-applied defaults would make ``budget`` vs
        ``target_recall`` exclusivity unpredictable from the client
        side).  Facades without the approx surface reject everything
        but a redundant explicit ``mode="exact"``.
        """
        fields = {
            "mode": request.mode,
            "budget": request.budget,
            "target_recall": request.target_recall,
            "candidate_multiplier": request.candidate_multiplier,
        }
        if all(value is None for value in fields.values()):
            fields = {
                "mode": self._default_mode,
                "budget": self._default_budget,
                "target_recall": self._default_target_recall,
                "candidate_multiplier": self._default_candidate_multiplier,
            }
        fields = {
            name: value for name, value in fields.items() if value is not None
        }
        if fields and not self._supports_approx:
            if fields == {"mode": "exact"}:
                return {}
            from ..approx import APPROX_UNSUPPORTED_MESSAGE

            raise ValidationError(APPROX_UNSUPPORTED_MESSAGE)
        return fields

    def _engine_kwargs(self, request, approx: Optional[Dict] = None) -> Dict:
        engine = request.engine or self._default_engine
        if engine is None:
            return {}
        if not self._supports_engine:
            raise ValidationError(
                "this database does not support per-query engine "
                "selection; drop the 'engine' field"
            )
        if approx and approx.get("mode") == "approx":
            if engine != "auto":
                from ..approx import validate_approx_engine

                validate_approx_engine(engine)
        else:
            validate_engine_choice(engine)
        return {"engine": engine}

    def _engine_label(self, request) -> str:
        # Mutation requests have no engine field: their label is empty.
        if not hasattr(request, "engine"):
            return ""
        return (
            request.engine
            or self._default_engine
            or getattr(self._db, "default_engine", "")
            or ""
        )

    def _resolved_n_range(self, request) -> Tuple:
        if request.n_range is not None:
            return (request.n_range[0], request.n_range[1])
        return (1, int(self._db.dimensionality))

    def _cache_key(self, path: str, request):
        """``(generation, key)`` for this request, fingerprinting the query."""
        generation = self.generation()
        engine = self._engine_label(request)
        if path == "/v1/query":
            spec = self._approx_spec(request, request.n)
            fingerprint = query_fingerprint(request.query)
            kind = "k_n_match"
        elif path == "/v1/frequent":
            spec = (self._resolved_n_range(request), request.keep_answer_sets)
            if request.mode is not None:
                spec = spec + (request.mode,)
            fingerprint = query_fingerprint(request.query)
            kind = "frequent_k_n_match"
        else:
            spec = self._approx_spec(request, request.n)
            fingerprint = query_fingerprint(self._batch_array(request))
            kind = "k_n_match_batch"
        return generation, cache_key(
            generation, engine, kind, request.k, spec, fingerprint
        )

    def _approx_spec(self, request, spec):
        """Fold resolved approx fields into a cache spec.

        Requests with no approx surface keep the pre-approx spec, so
        existing cache keys (and their byte-identity property) are
        untouched.
        """
        approx = self._approx_kwargs(request)
        if not approx:
            return spec
        return (spec, tuple(sorted(approx.items())))

    def _batch_array(self, request) -> np.ndarray:
        if not request.queries:
            return np.empty((0, int(self._db.dimensionality)))
        try:
            return np.asarray(request.queries, dtype=np.float64)
        except ValueError:
            raise ValidationError(
                "queries rows must all have the same length"
            ) from None

    def _execute(self, path: str, request) -> Dict:
        db = self._db
        if path == "/v1/query":
            approx = self._approx_kwargs(request)
            kwargs = self._engine_kwargs(request, approx)
            result = db.k_n_match(
                request.query, request.k, request.n, **kwargs, **approx
            )
            if approx.get("mode") == "approx":
                return {
                    "protocol": protocol.PROTOCOL_VERSION,
                    "kind": "k_n_match",
                    "mode": "approx",
                    "result": protocol.encode_approx_result(result),
                }
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "kind": "k_n_match",
                "result": protocol.encode_match_result(result),
            }
        if path == "/v1/frequent":
            kwargs = self._engine_kwargs(request)
            if request.mode is not None:
                if self._supports_frequent_mode:
                    kwargs["mode"] = request.mode
                elif request.mode != "exact":
                    from ..approx import APPROX_UNSUPPORTED_MESSAGE

                    raise ValidationError(APPROX_UNSUPPORTED_MESSAGE)
            result = db.frequent_k_n_match(
                request.query,
                request.k,
                self._resolved_n_range(request),
                keep_answer_sets=request.keep_answer_sets,
                **kwargs,
            )
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "kind": "frequent_k_n_match",
                "result": protocol.encode_frequent_result(result),
            }
        approx = self._approx_kwargs(request)
        kwargs = self._engine_kwargs(request, approx)
        queries = self._batch_array(request)
        native = getattr(db, "k_n_match_batch", None)
        if native is not None:
            results = native(queries, request.k, request.n, **kwargs, **approx)
        else:
            # Facades without a batch surface (the dynamic database) loop;
            # k/n are validated up front so an empty batch still rejects
            # bad parameters exactly like the batch-native facades.
            k = validation.validate_k(request.k, db.cardinality)
            n = validation.validate_n(request.n, db.dimensionality)
            results = [db.k_n_match(row, k, n, **approx) for row in queries]
        if approx.get("mode") == "approx":
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "kind": "k_n_match_batch",
                "mode": "approx",
                "count": len(results),
                "results": [
                    protocol.encode_approx_result(result)
                    for result in results
                ],
            }
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "kind": "k_n_match_batch",
            "count": len(results),
            "results": [
                protocol.encode_match_result(result) for result in results
            ],
        }

    # ------------------------------------------------------------------
    def _error(
        self,
        status: int,
        error_type: str,
        message: str,
        extra_headers: Optional[List[Tuple[str, str]]] = None,
    ):
        body = protocol.canonical_json(
            protocol.error_payload(error_type, message)
        )
        headers = [("Content-Type", _JSON)] + (extra_headers or [])
        return status, headers, body

    def _finish(
        self,
        endpoint: str,
        wall_seconds: float,
        queue_seconds: float,
        response,
        method: str = "POST",
        context: Optional[TraceContext] = None,
        detail: Optional[Dict[str, object]] = None,
        root=None,
    ):
        status, headers, body = response
        observe_serve_request(
            self._metrics, endpoint, status, wall_seconds, queue_seconds
        )
        if endpoint in _POST_ENDPOINTS:
            # Uniform on every query response — cache hits and early
            # 4xx included — so clients can always parse it (0.000
            # means "never queued").
            headers = headers + [
                ("X-Repro-Queue-Ms", f"{queue_seconds * 1000:.3f}")
            ]
        if context is not None:
            headers = headers + [(TRACE_HEADER, context.header_value())]
            # Only query requests carry a non-None detail; GETs and
            # unrouted paths are never flight-recorded.
            if detail is not None:
                reason = self._flight_reason(status, wall_seconds)
                if reason is not None and self._flight.enabled:
                    self._flight.record(
                        trace_id=context.trace_id,
                        reason=reason,
                        method=method,
                        path=endpoint,
                        status=status,
                        queue_ms=queue_seconds * 1000,
                        handle_ms=wall_seconds * 1000,
                        detail=detail,
                        span=root,
                    )
            if self._access_log is not None:
                self._write_access_log(
                    context, method, endpoint, status,
                    queue_seconds, wall_seconds, detail,
                )
        return status, headers, body

    def _flight_reason(
        self, status: int, wall_seconds: float
    ) -> Optional[str]:
        """Why this request deserves a flight record, or ``None``."""
        if status == 429:
            return "shed"
        if status >= 400:
            return "error"
        threshold = self._slow_threshold
        if threshold is not None and wall_seconds >= threshold:
            return "slow"
        return None

    def _write_access_log(
        self,
        context: TraceContext,
        method: str,
        endpoint: str,
        status: int,
        queue_seconds: float,
        wall_seconds: float,
        detail: Optional[Dict[str, object]],
    ) -> None:
        entry: Dict[str, object] = {
            "ts": round(time.time(), 6),
            "trace_id": context.trace_id,
            "method": method,
            "path": endpoint,
            "status": status,
            "queue_ms": round(queue_seconds * 1000, 3),
            "handle_ms": round(wall_seconds * 1000, 3),
        }
        for name in (
            "engine", "kind", "mode", "cache", "certified_recall",
            "pid", "generation",
        ):
            if detail and name in detail:
                entry[name] = detail[name]
        line = protocol.canonical_json(entry).decode("utf-8")
        with self._access_lock:
            self._access_log.write(line + "\n")
            flush = getattr(self._access_log, "flush", None)
            if flush is not None:
                flush()


# ----------------------------------------------------------------------
# the HTTP shell
# ----------------------------------------------------------------------
class _ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET", b"")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            self._reject(
                400, "bad_content_length",
                f"Content-Length must be a non-negative integer; "
                f"got {declared!r}",
            )
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._reject(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
            return
        body = self.rfile.read(length) if length > 0 else b""
        self._dispatch("POST", body)

    def _reject(self, status: int, error_type: str, message: str) -> None:
        """Refuse a request without reading its body, then hang up.

        The unread body would otherwise be parsed as the next request
        on this keep-alive connection.
        """
        payload = protocol.canonical_json(
            protocol.error_payload(error_type, message)
        )
        self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", _JSON)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self, method: str, body: bytes) -> None:
        status, headers, payload = self.server.app.handle(
            method, self.path, body, dict(self.headers.items())
        )
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass  # request logging is the metrics registry's job


class MatchServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer bound to one :class:`ServeApp`.

    ``start()``/``stop()`` run it on a background thread (usable as a
    context manager); ``run()`` serves on the calling thread until
    SIGTERM/SIGINT, then drains gracefully: stop admitting, wait for
    in-flight requests, close the socket.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, app: ServeApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__((host, port), _ServeHandler)
        self.app = app
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral ``port=0`` request)."""
        return self.server_address[1]

    # ------------------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.1) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def start(self) -> "MatchServer":
        """Serve on a daemon thread; returns immediately."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self, drain_seconds: float = 5.0) -> None:
        """Graceful drain: reject new queries, wait, then shut down."""
        self.app.begin_drain()
        self.app.admission.wait_idle(drain_seconds)
        if self._serving:
            self.shutdown()
        self._close()
        if self._thread is not None:
            self._thread.join(timeout=drain_seconds)
            self._thread = None

    def run(self, drain_seconds: float = 5.0) -> None:
        """Serve on this thread until SIGTERM/SIGINT (the CLI path)."""
        previous = {}

        def _on_signal(signum, frame) -> None:
            # stop() must run off the serving thread: shutdown() blocks
            # until serve_forever returns.
            threading.Thread(
                target=self.stop,
                kwargs={"drain_seconds": drain_seconds},
                daemon=True,
            ).start()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _on_signal)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        try:
            self.serve_forever()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._close()

    def _close(self) -> None:
        if not self._closed:
            self._closed = True
            self.server_close()
            self.app.close()

    # ------------------------------------------------------------------
    def __enter__(self) -> "MatchServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
