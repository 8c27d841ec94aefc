"""GraphClient: a blocking, dependency-free client of the serving protocol.

Mirrors the in-process ``Session`` API over HTTP/1.1 keep-alive
connections (one persistent ``http.client.HTTPConnection`` per thread, so
one client instance can serve a thread pool of callers)::

    client = GraphClient("127.0.0.1", 8642, tenant="team-a")
    with client.session(engine="vectorized") as session:
        result = session.run("MATCH (p:Person) RETURN p.name AS name")
        for row in result.rows:
            ...
        prepared = session.prepare(
            "MATCH (p:Person) WHERE p.id = $x RETURN p.name AS name")
        hit = prepared.run({"x": 7})
        with session.cursor("MATCH (p:Person) RETURN p.name AS n",
                            fetch_size=100) as cursor:
            for row in cursor:          # incremental /fetch round-trips
                ...
    client.close()

Non-2xx responses raise the *same typed exceptions* the in-process API
uses -- :class:`~repro.errors.ServiceOverloadedError` (with the server's
``Retry-After`` hint), :class:`~repro.errors.ExecutionTimeout`,
:class:`~repro.errors.ParseError`, :class:`~repro.errors.NotFoundError`,
:class:`~repro.errors.CancelledError` -- so retry/backoff code is portable
between in-process and remote serving.
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import GOptError, ServiceOverloadedError
from repro.server.protocol import exception_from_wire
from repro.server.wire import (
    CursorChunkWire,
    CursorWire,
    ErrorWire,
    ExplainPlanWire,
    PreparedWire,
    QueryResultWire,
    SessionWire,
)


#: a failure of a *reused* keep-alive connection before any response byte
#: arrived: the server closed it while idle, so the request never ran
_STALE_CONNECTION_ERRORS = (http.client.RemoteDisconnected,
                            ConnectionResetError, BrokenPipeError)


class _Connection(http.client.HTTPConnection):
    """An ``HTTPConnection`` whose every socket runs with ``TCP_NODELAY``.

    ``http.client`` sends a POST's head and body in two ``send()`` calls;
    with Nagle's algorithm on, the body waits for the server's delayed ACK.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class GraphClient:
    """A connection pool (one keep-alive connection per calling thread)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 tenant: Optional[str] = None, token: Optional[str] = None,
                 timeout_seconds: float = 30.0):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.token = token
        self.timeout_seconds = timeout_seconds
        self._local = threading.local()
        self._connections_lock = threading.Lock()
        self._connections: List[http.client.HTTPConnection] = []
        self._closed = False

    # -- transport ---------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection(
                self.host, self.port, timeout=self.timeout_seconds)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def _headers(self, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = "Bearer %s" % self.token
        elif self.tenant is not None:
            headers["X-Tenant"] = self.tenant
        if extra:
            headers.update(extra)
        return headers

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None,
                headers: Optional[Dict[str, str]] = None,
                ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange; returns (status, headers, raw body).

        A reused keep-alive connection that the server closed while it sat
        idle (restart, idle timeout) fails before any response byte
        arrives; that request never ran, so it is retried once on a fresh
        connection.  Every other failure surfaces unretried -- a timeout
        above all, since the server may still be executing the request.
        """
        if self._closed:
            raise GOptError("client is closed")
        payload = None if body is None else json.dumps(body).encode("utf-8")
        for attempt in (1, 2):
            connection = self._connection()
            reused = connection.sock is not None
            response = None
            try:
                connection.request(method, path, body=payload,
                                   headers=self._headers(headers))
                response = connection.getresponse()
                data = response.read()
            except BaseException as exc:
                self._discard(connection)
                if (attempt == 1 and reused and response is None
                        and isinstance(exc, _STALE_CONNECTION_ERRORS)):
                    continue
                raise
            return (response.status,
                    {key.lower(): value for key, value in response.getheaders()},
                    data)
        raise AssertionError("unreachable")

    def _discard(self, connection: http.client.HTTPConnection) -> None:
        """Close a failed connection and drop it from the pool."""
        connection.close()
        self._local.connection = None
        with self._connections_lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None,
             headers: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
        """One API call; non-2xx responses raise their typed exception."""
        status, response_headers, data = self.request(method, path, body, headers)
        if 200 <= status < 300:
            return json.loads(data.decode("utf-8")) if data else {}
        retry_after_hint: Optional[float] = None
        header_hint = response_headers.get("retry-after")
        if header_hint is not None:
            try:
                retry_after_hint = float(header_hint)
            except ValueError:
                pass
        try:
            error = ErrorWire.from_dict(json.loads(data.decode("utf-8")))
        except (ValueError, KeyError):
            error = ErrorWire(type="GOptError",
                              message=data.decode("utf-8", "replace") or "HTTP error",
                              status=status)
        raise exception_from_wire(error, retry_after_hint=retry_after_hint)

    # -- service-level endpoints -------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self.call("GET", "/healthz")

    def metrics_text(self) -> str:
        status, _, data = self.request("GET", "/metrics")
        if status != 200:
            raise GOptError("metrics scrape failed with HTTP %d" % status)
        return data.decode("utf-8")

    def session(self, engine: Optional[str] = None,
                timeout_seconds: Optional[float] = None,
                batch_size: Optional[int] = None,
                ttl_seconds: Optional[float] = None) -> "RemoteSession":
        """Open a server-side session (maps onto this client's tenant)."""
        body: Dict[str, Any] = {}
        if engine is not None:
            body["engine"] = engine
        if timeout_seconds is not None:
            body["timeout_seconds"] = timeout_seconds
        if batch_size is not None:
            body["batch_size"] = batch_size
        if ttl_seconds is not None:
            body["ttl_seconds"] = ttl_seconds
        wire = SessionWire.from_dict(self.call("POST", "/v1/sessions", body))
        return RemoteSession(self, wire)

    def run(self, query: str, language: str = "cypher",
            parameters: Optional[Dict[str, Any]] = None,
            engine: Optional[str] = None,
            deadline_seconds: Optional[float] = None,
            max_rows: Optional[int] = None,
            max_overload_retries: int = 0) -> QueryResultWire:
        """Run one sessionless query (the server serves it ephemerally).

        ``max_overload_retries`` > 0 makes the client honor 429
        ``Retry-After`` hints with bounded patience, like the in-process
        executor's ``run_all``.
        """
        body: Dict[str, Any] = {"query": query, "language": language}
        if parameters:
            body["parameters"] = parameters
        if engine is not None:
            body["engine"] = engine
        if max_rows is not None:
            body["max_rows"] = max_rows
        headers = ({"X-Deadline-Seconds": repr(deadline_seconds)}
                   if deadline_seconds is not None else None)
        attempts = max_overload_retries + 1
        for attempt in range(1, attempts + 1):
            try:
                return QueryResultWire.from_dict(
                    self.call("POST", "/v1/queries", body, headers))
            except ServiceOverloadedError as exc:
                if attempt == attempts:
                    raise
                time.sleep(exc.retry_after_seconds)
        raise AssertionError("unreachable")

    def explain(self, query: str, language: str = "cypher",
                parameters: Optional[Dict[str, Any]] = None,
                engine: Optional[str] = None) -> ExplainPlanWire:
        body: Dict[str, Any] = {"query": query, "language": language}
        if parameters:
            body["parameters"] = parameters
        if engine is not None:
            body["engine"] = engine
        return ExplainPlanWire.from_dict(self.call("POST", "/v1/explain", body))

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        self._closed = True
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()

    def __enter__(self) -> "GraphClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemoteSession:
    """A server-side session handle: run/prepare/cursor, then ``close()``."""

    def __init__(self, client: GraphClient, wire: SessionWire):
        self._client = client
        self.session_id = wire.session_id
        self.tenant = wire.tenant
        self.engine = wire.engine
        self.ttl_seconds = wire.ttl_seconds
        self._closed = False

    def run(self, query: str, language: str = "cypher",
            parameters: Optional[Dict[str, Any]] = None,
            deadline_seconds: Optional[float] = None,
            max_rows: Optional[int] = None) -> QueryResultWire:
        """Execute and materialize one query on this session."""
        body: Dict[str, Any] = {"session_id": self.session_id,
                                "query": query, "language": language}
        if parameters:
            body["parameters"] = parameters
        if max_rows is not None:
            body["max_rows"] = max_rows
        headers = ({"X-Deadline-Seconds": repr(deadline_seconds)}
                   if deadline_seconds is not None else None)
        return QueryResultWire.from_dict(
            self._client.call("POST", "/v1/queries", body, headers))

    def cursor(self, query: str, language: str = "cypher",
               parameters: Optional[Dict[str, Any]] = None,
               fetch_size: int = 256) -> "RemoteCursor":
        """Open a server-held cursor; iterate it to stream rows."""
        body: Dict[str, Any] = {"session_id": self.session_id, "query": query,
                                "language": language, "cursor": True}
        if parameters:
            body["parameters"] = parameters
        wire = CursorWire.from_dict(
            self._client.call("POST", "/v1/queries", body))
        return RemoteCursor(self._client, wire, fetch_size=fetch_size)

    def prepare(self, query: str, language: str = "cypher") -> "RemotePrepared":
        wire = PreparedWire.from_dict(self._client.call(
            "POST", "/v1/prepare",
            {"session_id": self.session_id, "query": query, "language": language}))
        return RemotePrepared(self, wire)

    def explain(self, query: str, language: str = "cypher",
                parameters: Optional[Dict[str, Any]] = None) -> ExplainPlanWire:
        body: Dict[str, Any] = {"session_id": self.session_id,
                                "query": query, "language": language}
        if parameters:
            body["parameters"] = parameters
        return ExplainPlanWire.from_dict(
            self._client.call("POST", "/v1/explain", body))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._client.call("DELETE", "/v1/sessions/%s" % self.session_id)

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemotePrepared:
    """A prepared statement living on the server."""

    def __init__(self, session: RemoteSession, wire: PreparedWire):
        self._session = session
        self.statement_id = wire.statement_id
        self.query = wire.query
        self.language = wire.language
        self.deferred = wire.deferred
        self.parameter_names = list(wire.parameter_names)

    def run(self, parameters: Optional[Dict[str, Any]] = None,
            deadline_seconds: Optional[float] = None) -> QueryResultWire:
        body: Dict[str, Any] = {"session_id": self._session.session_id,
                                "statement_id": self.statement_id}
        if parameters:
            body["parameters"] = parameters
        headers = ({"X-Deadline-Seconds": repr(deadline_seconds)}
                   if deadline_seconds is not None else None)
        return QueryResultWire.from_dict(self._session._client.call(
            "POST", "/v1/queries", body, headers))


class RemoteCursor:
    """Iterates a server-held cursor via incremental ``/fetch`` requests."""

    def __init__(self, client: GraphClient, wire: CursorWire, fetch_size: int = 256):
        if fetch_size < 1:
            raise GOptError("fetch_size must be >= 1")
        self._client = client
        self.cursor_id = wire.cursor_id
        self.session_id = wire.session_id
        self.query = wire.query
        self._fetch_size = fetch_size
        self._buffer: Deque[Dict[str, Any]] = deque()
        self._exhausted = False
        self._closed = False
        #: populated from the final chunk once the server reports exhaustion
        self.metrics: Optional[Dict[str, Any]] = None
        self.peak_held_rows: Optional[int] = None
        self.timed_out = False

    def _fetch_chunk(self) -> None:
        chunk = CursorChunkWire.from_dict(self._client.call(
            "GET", "/v1/cursors/%s/fetch?n=%d" % (self.cursor_id, self._fetch_size)))
        self._buffer.extend(chunk.rows)
        self.timed_out = self.timed_out or chunk.timed_out
        if chunk.exhausted:
            self._exhausted = True  # the server already released the cursor
            self.metrics = chunk.metrics
            self.peak_held_rows = chunk.peak_held_rows

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return self

    def __next__(self) -> Dict[str, Any]:
        if self._closed:
            raise StopIteration
        while not self._buffer:
            if self._exhausted:
                raise StopIteration
            self._fetch_chunk()
        return self._buffer.popleft()

    def fetch_one(self) -> Optional[Dict[str, Any]]:
        """The next row, or ``None`` at the end, like ``ResultCursor.fetch_one``."""
        return next(self, None)

    def fetch_many(self, count: int) -> List[Dict[str, Any]]:
        """Up to ``count`` further rows, like ``ResultCursor.fetch_many``."""
        if count < 0:
            raise GOptError("fetch_many expects a non-negative count")
        return list(itertools.islice(self, count))

    def fetch_all(self) -> List[Dict[str, Any]]:
        return list(self)

    def close(self) -> None:
        """Release the server-side cursor early (idempotent); after
        exhaustion the server has already released it, so nothing is sent."""
        if self._closed:
            return
        self._closed = True
        self._buffer.clear()
        if not self._exhausted:
            self._client.call("DELETE", "/v1/cursors/%s" % self.cursor_id)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run, as on ``ResultCursor``: exhaustion
        alone does not close a cursor."""
        return self._closed

    def __enter__(self) -> "RemoteCursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
