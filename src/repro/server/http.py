"""The socket layer: a stdlib threaded HTTP server over :class:`ServerApp`.

``GraphHTTPServer`` wraps :class:`http.server.ThreadingHTTPServer` (one
handler thread per connection, HTTP/1.1 keep-alive so a client's persistent
connection serves many requests) around the transport-neutral
:class:`~repro.server.app.ServerApp`.  Beyond adapting sockets, it owns two
lifecycle duties the app cannot:

* a **background sweeper thread** that evicts TTL-expired sessions and
  cursors even when no request traffic triggers the opportunistic sweep --
  this is what reclaims cursors whose clients disappeared mid-fetch;
* **orderly shutdown**: stop accepting, cancel in-flight executions, close
  every registered session and cursor, and join the server threads, so a
  stopped server leaves no runtime threads or open cursors behind.

All server-owned threads are named ``repro-http-*``; the test suite's
thread-leak fixture watches that prefix.

Transport: every accepted connection runs with ``TCP_NODELAY`` and each
response (status line, headers, body) leaves in one write.  A head sent
apart from its body is the write-write-read pattern where Nagle's
algorithm waits for the client's delayed ACK -- ~40 ms per request on
Linux loopback.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.errors import GOptError
from repro.server.app import Response, ServerApp
from repro.server.protocol import error_to_wire

#: largest request body read into memory; a bigger Content-Length gets a 413
MAX_BODY_BYTES = 1 << 20

#: the whole request body must arrive within this many seconds, or the
#: request gets a 408 (only the body read is timed: an idle keep-alive
#: connection waiting for its next request has no timeout)
BODY_TIMEOUT_SECONDS = 10.0


class _RequestHandler(BaseHTTPRequestHandler):
    """Adapts one HTTP exchange onto ``ServerApp.handle_request``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-graph"
    disable_nagle_algorithm = True  # StreamRequestHandler.setup sets TCP_NODELAY

    def setup(self) -> None:
        super().setup()
        # per-connection threads are created by ThreadingHTTPServer with
        # generic names; rename so leak detection can attribute them
        threading.current_thread().name = (
            "repro-http-conn-%s:%s" % self.client_address[:2])

    # -- verb handlers -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        params = {key: values[-1]
                  for key, values in parse_qs(split.query).items()}
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                raise ValueError(length)
        except ValueError:
            # the body's extent is unknown (and read(-1) would block until
            # the client hangs up), so answer and give the connection up
            self._refuse(400, "Content-Length must be a non-negative integer")
            return
        if length > MAX_BODY_BYTES:
            # never buffer it: the unread body forfeits the connection
            self._refuse(413, "Content-Length %d exceeds the %d-byte request "
                         "body limit" % (length, MAX_BODY_BYTES))
            return
        try:
            body = self._read_body(length) if length else b""
        except TimeoutError:
            # a client that declared more body than it sends (slow-loris)
            # must not hold this handler thread until it hangs up
            self._refuse(408, "request body of %d bytes not received within "
                         "%g s" % (length, BODY_TIMEOUT_SECONDS))
            return
        response = self.server.app.handle_request(  # type: ignore[attr-defined]
            method, split.path, params, dict(self.headers.items()), body)
        self._write(response)

    def _read_body(self, length: int) -> bytes:
        """``length`` body bytes (fewer if the client hangs up first),
        raising ``TimeoutError`` past :data:`BODY_TIMEOUT_SECONDS`."""
        deadline = time.monotonic() + BODY_TIMEOUT_SECONDS
        body = bytearray()
        try:
            while len(body) < length:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("request body timed out")
                self.connection.settimeout(remaining)
                chunk = self.rfile.read1(length - len(body))
                if not chunk:
                    break
                body += chunk
        finally:
            self.connection.settimeout(None)
        return bytes(body)

    def _refuse(self, status: int, message: str) -> None:
        """A typed error without reading the body, then close the connection."""
        error = replace(error_to_wire(GOptError(message)), status=status)
        self._write(Response.json(error.to_dict(), status=status,
                                  headers={"Connection": "close"}))

    def _write(self, response: Response) -> None:
        # 499 has no registered reason phrase; supply one so send_response
        # does not crash on the lookup
        self.send_response(response.status,
                           "Client Closed Request" if response.status == 499
                           else None)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for key, value in response.headers.items():
            self.send_header(key, value)
        # end_headers() would send the head on its own; queue the blank
        # line and the body behind it so the response is one write
        self._headers_buffer.extend((b"\r\n", response.body))
        self.flush_headers()

    def log_message(self, format, *args) -> None:  # noqa: A002 - http.server API
        """Per-request stderr logging is noise at serving rates; drop it."""


class _Server(ThreadingHTTPServer):
    daemon_threads = True  # connection threads must not block interpreter exit
    request_queue_size = 128  # listen() backlog; socketserver's default is 5

    def __init__(self, address, app: ServerApp):
        super().__init__(address, _RequestHandler)
        self.app = app


class GraphHTTPServer:
    """A runnable HTTP front end over one :class:`~repro.service.GraphService`.

    Usage::

        server = GraphHTTPServer(service, port=0, per_tenant_limit=4)
        with server:                      # binds, starts serving
            print(server.url)             # http://127.0.0.1:<ephemeral>
            ...
        # exit closes all sessions/cursors and joins server threads

    Constructor keywords beyond the ones below are forwarded to
    :class:`~repro.server.app.ServerApp` -- admission knobs
    (``max_concurrent``, ``max_queue_depth``, ``queue_timeout_seconds``,
    ``per_tenant_limit``), the ``tokens`` auth map, and the session/cursor
    TTLs.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 sweep_interval_seconds: float = 1.0, **app_options):
        self.app = ServerApp(service, **app_options)
        self._server = _Server((host, port), self.app)
        self.host, self.port = self._server.server_address[:2]
        self._sweep_interval = sweep_interval_seconds
        self._serve_thread: Optional[threading.Thread] = None
        self._sweeper: Optional[threading.Thread] = None
        self._stop_sweeper = threading.Event()
        self._stopped = False

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "GraphHTTPServer":
        if self._serve_thread is not None:
            return self
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-http-serve-%d" % self.port, daemon=True)
        self._serve_thread.start()
        if self._sweep_interval:
            self._sweeper = threading.Thread(
                target=self._sweep_loop,
                name="repro-http-sweeper-%d" % self.port, daemon=True)
            self._sweeper.start()
        return self

    def _sweep_loop(self) -> None:
        while not self._stop_sweeper.wait(self._sweep_interval):
            self.app.registry.evict_expired()

    def stop(self) -> None:
        """Stop serving and release everything; safe to call twice."""
        if self._stopped:
            return
        self._stopped = True
        self._stop_sweeper.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=5.0)
        if self._serve_thread is not None:
            self._server.shutdown()
            self._serve_thread.join(timeout=5.0)
        self._server.server_close()
        self.app.shutdown()

    def __enter__(self) -> "GraphHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve(service, host: str = "127.0.0.1", port: int = 8642,
          **app_options) -> GraphHTTPServer:
    """Start a server and return it running (convenience for scripts)."""
    return GraphHTTPServer(service, host=host, port=port, **app_options).start()
