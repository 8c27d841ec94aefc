"""Transport-neutral request core of the HTTP serving front end.

:class:`ServerApp` implements every endpoint as a plain method taking
parsed inputs and returning a :class:`Response`; the HTTP layer
(:mod:`repro.server.http`) only adapts sockets to these calls.  Keeping the
core transport-free makes the protocol unit-testable without ports and
leaves room for other transports later.

Request flow of a query endpoint::

    tenant  <- Authorization bearer token (or X-Tenant header)
    ticket  <- AdmissionController.admit(tenant)   # 429 + Retry-After on refusal
    fault_point("server.request")                  # chaos-test hook
    session <- SessionRegistry (or an ephemeral one)
    cursor  <- Session.run(...)                    # streaming engines underneath
    response <- wire model                         # typed errors -> status table

Per-tenant quotas come for free: the tenant id is the admission client, so
``per_client_limit`` bounds each tenant's concurrent queries exactly like
``QueryRequest.client`` does in the in-process executor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.backend.runtime.context import InFlightTokens
from repro.errors import (
    ExecutionTimeout,
    GOptError,
    NotFoundError,
    ServiceOverloadedError,
)
from repro.server.metrics import ServerCounters, render_metrics
from repro.server.protocol import error_to_wire, retry_after_header
from repro.server.registry import ServerSession, SessionRegistry
from repro.server.wire import (
    CursorChunkWire,
    CursorWire,
    ExplainPlanWire,
    PreparedWire,
    QueryResultWire,
    SessionWire,
)
from repro.service.admission import AdmissionController
from repro.service.session import Session
from repro.testing.faults import fault_point

#: endpoints that execute query work and therefore pass admission control
_ADMITTED_ENDPOINTS = ("queries", "fetch", "explain")


@dataclass
class Response:
    """One endpoint's answer, ready for any transport to serialize."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload: Dict[str, object], status: int = 200,
             headers: Optional[Dict[str, str]] = None) -> "Response":
        return cls(status=status,
                   body=json.dumps(payload).encode("utf-8"),
                   content_type="application/json",
                   headers=dict(headers or {}))

    @classmethod
    def text(cls, payload: str, status: int = 200) -> "Response":
        return cls(status=status, body=payload.encode("utf-8"),
                   content_type="text/plain; version=0.0.4; charset=utf-8")


class _Unauthorized(GOptError):
    """Missing or invalid bearer token (only when the server requires one)."""


class ServerApp:
    """Every endpoint of the serving protocol, over one ``GraphService``."""

    def __init__(
        self,
        service,
        max_concurrent: int = 8,
        max_queue_depth: Optional[int] = 64,
        queue_timeout_seconds: Optional[float] = None,
        per_tenant_limit: Optional[int] = None,
        admission: Optional[AdmissionController] = None,
        tokens: Optional[Dict[str, str]] = None,
        session_ttl_seconds: float = 300.0,
        cursor_ttl_seconds: float = 60.0,
        default_fetch_size: int = 512,
    ):
        self.service = service
        self.admission = AdmissionController.for_front_end(
            admission, max_concurrent, max_queue_depth, queue_timeout_seconds,
            per_tenant_limit)
        #: token -> tenant; when set, every /v1 request must present a
        #: matching ``Authorization: Bearer`` token
        self.tokens = dict(tokens) if tokens else None
        self.registry = SessionRegistry(
            session_ttl_seconds=session_ttl_seconds,
            cursor_ttl_seconds=cursor_ttl_seconds)
        self.counters = ServerCounters()
        self.default_fetch_size = default_fetch_size
        self._active = InFlightTokens()
        self._closed = False

    # -- dispatch ----------------------------------------------------------------
    def handle_request(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ) -> Response:
        """Route one request; every exception becomes a typed error response."""
        headers = {key.lower(): value for key, value in headers.items()}
        tenant = "anonymous"
        try:
            if method == "GET" and path == "/healthz":
                return self.handle_healthz()
            if method == "GET" and path == "/metrics":
                return self.handle_metrics()
            tenant = self._authenticate(headers)
            payload = self._parse_body(body)
            deadline = self._deadline_of(headers)
            if method == "POST" and path == "/v1/sessions":
                return self.handle_create_session(tenant, payload)
            if method == "DELETE" and path.startswith("/v1/sessions/"):
                return self.handle_close_session(tenant, path.split("/")[3])
            if method == "POST" and path == "/v1/prepare":
                return self.handle_prepare(tenant, payload)
            if method == "POST" and path == "/v1/queries":
                return self._admitted(tenant, "queries", self.handle_query,
                                      payload, deadline)
            if method == "POST" and path == "/v1/explain":
                return self._admitted(tenant, "explain", self.handle_explain,
                                      payload)
            if (method == "GET" and path.startswith("/v1/cursors/")
                    and path.endswith("/fetch")):
                return self._admitted(tenant, "fetch", self.handle_fetch,
                                      path.split("/")[3], params)
            if method == "DELETE" and path.startswith("/v1/cursors/"):
                return self.handle_close_cursor(tenant, path.split("/")[3])
            raise NotFoundError("no route for %s %s" % (method, path))
        except BaseException as exc:  # noqa: BLE001 - single error boundary
            return self._error_response(tenant, exc)

    def _admitted(self, tenant: str, endpoint: str, handler, *args) -> Response:
        """Run a query-executing endpoint under admission control."""
        self.counters.record_request(tenant, endpoint)
        ticket = None
        if self.admission is not None:
            ticket = self.admission.admit(tenant)
            self.admission.begin(ticket)
        try:
            fault_point("server.request", tenant=tenant, endpoint=endpoint)
            return handler(tenant, *args)
        finally:
            if ticket is not None:
                self.admission.finish(ticket)

    def _error_response(self, tenant: str, exc: BaseException) -> Response:
        error = error_to_wire(exc)
        self.counters.record_error(error.type)
        if isinstance(exc, ServiceOverloadedError):
            self.counters.record_rejected(tenant)
        if isinstance(exc, _Unauthorized):
            error.status = 401
        headers = {}
        retry_after = retry_after_header(error)
        if retry_after is not None:
            headers["Retry-After"] = retry_after
        return Response.json(error.to_dict(), status=error.status, headers=headers)

    # -- request plumbing --------------------------------------------------------
    def _authenticate(self, headers: Dict[str, str]) -> str:
        """The tenant id of a request.

        With a token map configured, only ``Authorization: Bearer <token>``
        headers naming a known token pass; otherwise the (trusted)
        ``X-Tenant`` header names the tenant, defaulting to ``anonymous``.
        """
        if self.tokens is not None:
            authorization = headers.get("authorization", "")
            if not authorization.startswith("Bearer "):
                raise _Unauthorized("missing bearer token")
            tenant = self.tokens.get(authorization[len("Bearer "):])
            if tenant is None:
                raise _Unauthorized("unknown bearer token")
            return tenant
        return headers.get("x-tenant", "anonymous")

    @staticmethod
    def _parse_body(body: bytes) -> Dict[str, object]:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GOptError("malformed JSON request body: %s" % (exc,))
        if not isinstance(payload, dict):
            raise GOptError("request body must be a JSON object")
        return payload

    @staticmethod
    def _deadline_of(headers: Dict[str, str]) -> Optional[float]:
        raw = headers.get("x-deadline-seconds")
        if raw is None:
            return None
        try:
            deadline = float(raw)
        except ValueError:
            raise GOptError("X-Deadline-Seconds must be a number, got %r" % (raw,))
        if not (math.isfinite(deadline) and deadline > 0):
            raise GOptError("X-Deadline-Seconds must be a finite number > 0, "
                            "got %r" % (raw,))
        return deadline

    # -- plain endpoints ---------------------------------------------------------
    def handle_healthz(self) -> Response:
        return Response.json({"status": "ok"})

    def handle_metrics(self) -> Response:
        admission = (None if self.admission is None
                     else self.admission.stats().to_dict())
        return Response.text(render_metrics(
            cache_info=self.service.cache_info().to_dict(),
            admission=admission,
            registry=self.registry.stats(),
            counters=self.counters.snapshot(),
        ))

    def handle_create_session(self, tenant: str, payload: Dict[str, object]) -> Response:
        self.counters.record_request(tenant, "sessions")
        session = self.service.session(**{
            name: payload[name] for name in (
                "engine", "timeout_seconds", "batch_size")
            if name in payload})
        ttl = payload.get("ttl_seconds")
        if ttl is not None and not (
                isinstance(ttl, (int, float)) and not isinstance(ttl, bool)
                and math.isfinite(ttl) and ttl > 0):
            raise GOptError("ttl_seconds must be a finite number > 0, got %r"
                            % (ttl,))
        entry = self.registry.create_session(
            tenant, session, ttl_seconds=None if ttl is None else float(ttl))
        return Response.json(SessionWire(
            session_id=entry.session_id, tenant=tenant,
            engine=payload.get("engine"),
            ttl_seconds=entry.ttl_seconds).to_dict(), status=201)

    def handle_close_session(self, tenant: str, session_id: str) -> Response:
        self.counters.record_request(tenant, "sessions")
        closed = self.registry.close_session(session_id, tenant)
        return Response.json({"closed": True, "cursors_closed": closed})

    def handle_prepare(self, tenant: str, payload: Dict[str, object]) -> Response:
        self.counters.record_request(tenant, "prepare")
        entry = self.registry.get_session(
            self._required(payload, "session_id"), tenant)
        query = self._required(payload, "query")
        language = payload.get("language", "cypher")
        prepared = entry.session.prepare(query, language)
        statement_id = "%s-q%d" % (entry.session_id, len(entry.statements) + 1)
        entry.statements[statement_id] = prepared
        return Response.json(PreparedWire(
            statement_id=statement_id, query=query, language=language,
            deferred=prepared.deferred,
            parameter_names=sorted(prepared.parameter_names)).to_dict(),
            status=201)

    # -- query endpoints ---------------------------------------------------------
    def handle_query(self, tenant: str, payload: Dict[str, object],
                     deadline: Optional[float]) -> Response:
        entry, query, language, parameters = self._resolve_query(tenant, payload)
        session, ephemeral = self._session_for(
            entry, payload.get("engine"), deadline)
        try:
            if payload.get("cursor"):
                cursor = session.run(query, language, parameters)
                if entry is None:
                    # a cursor must outlive this request: give it a registry
                    # session to own it (and be TTL-swept through)
                    entry = self.registry.create_session(tenant, session)
                    ephemeral = False
                held = self.registry.register_cursor(entry, query, cursor)
                return Response.json(CursorWire(
                    cursor_id=held.cursor_id, session_id=entry.session_id,
                    query=query,
                    ttl_seconds=held.ttl_seconds).to_dict(), status=201)
            return self._materialize(tenant, session, query, language,
                                     parameters, payload)
        finally:
            if ephemeral:
                session.close()

    def _materialize(self, tenant: str, session, query: str, language: str,
                     parameters, payload: Dict[str, object]) -> Response:
        max_rows = payload.get("max_rows")
        if max_rows is not None and (not isinstance(max_rows, int)
                                     or isinstance(max_rows, bool) or max_rows < 0):
            raise GOptError("max_rows must be a non-negative integer")
        with self._active.track() as token:
            cursor = session.run(query, language, parameters,
                                 cancel_token=token)
            if max_rows is None:
                rows = cursor.fetch_all()
                truncated = False
            else:
                rows = cursor.fetch_many(max_rows)
                truncated = cursor.fetch_one() is not None
            peak = cursor.peak_held_rows
            timed_out = cursor.timed_out
            exchange_stats = cursor.exchange_stats
            metrics = cursor.consume()
        if timed_out:
            raise ExecutionTimeout(
                "query exceeded its deadline after %d rows" % len(rows),
                metrics=metrics)
        self.counters.record_rows(tenant, len(rows))
        self.counters.record_execution(peak_held_rows=peak,
                                       exchange_stats=exchange_stats)
        return Response.json(QueryResultWire.from_rows(
            query, rows, metrics=metrics, peak_held_rows=peak,
            truncated=truncated,
            warning=("result truncated at max_rows=%d" % max_rows
                     if truncated else None)).to_dict())

    def handle_explain(self, tenant: str, payload: Dict[str, object]) -> Response:
        entry, query, language, parameters = self._resolve_query(tenant, payload)
        session, ephemeral = self._session_for(entry, payload.get("engine"), None)
        try:
            if parameters:
                report = session.prepare(query, language).report(parameters)
            else:
                report = self.service.optimize(query, language, None,
                                               engine=session.engine)
        finally:
            if ephemeral:
                session.close()
        return Response.json(ExplainPlanWire.from_report(query, report).to_dict())

    def handle_fetch(self, tenant: str, cursor_id: str,
                     params: Dict[str, str]) -> Response:
        held = self.registry.get_cursor(cursor_id, tenant)
        try:
            count = int(params.get("n", self.default_fetch_size))
        except ValueError:
            raise GOptError("fetch count n must be an integer")
        if count < 1:
            raise GOptError("fetch count n must be >= 1")
        with held.lock:
            rows = held.cursor.fetch_many(count)
            exhausted = len(rows) < count
            timed_out = held.cursor.timed_out
            chunk = CursorChunkWire(
                cursor_id=cursor_id, rows=rows, row_count=len(rows),
                exhausted=exhausted, timed_out=timed_out)
            held.rows_served += len(rows)
            if exhausted:
                chunk.peak_held_rows = held.cursor.peak_held_rows
                self.counters.record_execution(
                    peak_held_rows=held.cursor.peak_held_rows,
                    exchange_stats=held.cursor.exchange_stats)
                chunk.metrics = held.cursor.consume().as_dict()
        if exhausted:
            self.registry.release_cursor(cursor_id)
        held.touch()
        self.counters.record_rows(tenant, len(rows))
        return Response.json(chunk.to_dict())

    def handle_close_cursor(self, tenant: str, cursor_id: str) -> Response:
        self.counters.record_request(tenant, "fetch")
        self.registry.get_cursor(cursor_id, tenant)
        self.registry.release_cursor(cursor_id)
        return Response.json({"closed": True})

    # -- helpers -----------------------------------------------------------------
    @staticmethod
    def _required(payload: Dict[str, object], key: str):
        value = payload.get(key)
        if value is None:
            raise GOptError("request body is missing required field %r" % (key,))
        return value

    def _resolve_query(
        self, tenant: str, payload: Dict[str, object],
    ) -> Tuple[Optional[ServerSession], str, str, Optional[Dict[str, object]]]:
        """Resolve (session entry, query text, language, parameters).

        Queries name either raw ``query`` text or a ``statement_id`` from a
        prior ``/v1/prepare``; ``session_id`` is optional for text queries
        (an ephemeral session serves them).
        """
        parameters = payload.get("parameters") or None
        if parameters is not None and not isinstance(parameters, dict):
            raise GOptError("parameters must be a JSON object of $param values")
        entry: Optional[ServerSession] = None
        session_id = payload.get("session_id")
        if session_id is not None:
            entry = self.registry.get_session(session_id, tenant)
        statement_id = payload.get("statement_id")
        if statement_id is not None:
            if entry is None:
                raise GOptError("statement_id requires a session_id")
            prepared = entry.statements.get(statement_id)
            if prepared is None:
                raise NotFoundError("unknown statement %r" % (statement_id,))
            return entry, prepared.query, prepared.language, parameters
        query = self._required(payload, "query")
        if not isinstance(query, str):
            raise GOptError("query must be a string")
        return entry, query, payload.get("language", "cypher"), parameters

    def _session_for(self, entry: Optional[ServerSession],
                     engine: Optional[str], deadline: Optional[float]):
        """The in-process session a request executes on.

        The request's options are its registry session's (the backend's
        defaults without one) with the body's ``engine`` and the deadline
        header applied.  A registry session whose options those already are
        is reused as-is; anything else gets a fresh session (options are
        fixed at session construction).  Returns ``(session, ephemeral)`` --
        ephemeral sessions are closed by the caller when the request finishes.
        """
        options = (entry.session.options if entry is not None
                   else self.service.backend.options).override(engine=engine)
        if deadline is not None:
            options = options.override(timeout_seconds=deadline)
        if entry is not None and options == entry.session.options:
            return entry.session, False
        return Session(self.service, options), True

    # -- lifecycle ---------------------------------------------------------------
    def cancel_active(self, reason: str = "server shutdown") -> int:
        """Cancel every in-flight materialized execution."""
        return self._active.cancel_all(reason)

    def shutdown(self) -> None:
        """Cancel in-flight work and close every session and cursor."""
        if self._closed:
            return
        self._closed = True
        self.cancel_active()
        self.registry.close_all()
