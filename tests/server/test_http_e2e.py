"""End-to-end: GraphClient against a live server on an ephemeral port.

The heart of the wire-layer contract: remote execution returns rows
*identical* to an in-process ``Session.run()`` for the differential-suite
queries, overload produces 429 + positive ``Retry-After``, and ``/metrics``
exposes the serving counters.
"""

import http.client
import json
import socket
import socketserver
import statistics
import threading
import time

import pytest

from repro.client import GraphClient
from repro.errors import (
    ExecutionTimeout,
    GOptError,
    NotFoundError,
    ParseError,
    ServiceOverloadedError,
)
import repro.server.http as http_server
from repro.server import GraphHTTPServer
from repro.server.http import MAX_BODY_BYTES
from repro.server.wire import ErrorWire
from repro.service import GraphService
from repro.testing.faults import FaultInjector
from repro.workloads import bi_queries, ic_queries, qr_queries, qt_queries

#: every differential-suite query expressible as Cypher text (plan-factory
#: queries have no wire form; the wire protocol is text-in)
WIRE_QUERIES = [(qs.name, q) for qs in
                (qr_queries(), qt_queries(), ic_queries(), bi_queries())
                for q in qs if q.cypher is not None]


def jsonable(rows):
    """What a row list looks like after one JSON round-trip (tuples->lists)."""
    return json.loads(json.dumps(rows))


@pytest.fixture(scope="module")
def ldbc_service(ldbc_graph):
    return GraphService(ldbc_graph, backend="graphscope", num_partitions=4)


# function-scoped on purpose: the per-test thread-leak fixture must see the
# keep-alive connection threads die with their client at the end of each test
@pytest.fixture()
def ldbc_server(ldbc_service):
    with GraphHTTPServer(ldbc_service, max_queue_depth=64) as server:
        yield server


@pytest.fixture()
def ldbc_client(ldbc_server):
    with GraphClient(ldbc_server.host, ldbc_server.port, tenant="e2e") as client:
        yield client


@pytest.mark.parametrize("set_name,query", WIRE_QUERIES,
                         ids=["%s__%s" % (s, q.name) for s, q in WIRE_QUERIES])
def test_remote_rows_match_in_process(ldbc_service, ldbc_client, set_name, query):
    with ldbc_service.session() as session:
        local = session.run(query.cypher, parameters=query.parameters or None)
        expected = jsonable(local.fetch_all())
    remote = ldbc_client.run(query.cypher, parameters=query.parameters or None)
    assert remote.rows == expected
    assert remote.row_count == len(expected)
    # the work counters rode the wire
    assert remote.metrics is not None
    assert remote.metrics["operators_executed"] >= 1


def test_cursor_stream_matches_materialized(ldbc_service, ldbc_client):
    query = "MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName AS n"
    with ldbc_service.session() as session:
        expected = jsonable(session.run(query).fetch_all())
    with ldbc_client.session() as remote_session:
        with remote_session.cursor(query, fetch_size=7) as cursor:
            rows = cursor.fetch_all()
        assert rows == expected
        assert cursor.metrics is not None  # final chunk carries metrics
        assert cursor.peak_held_rows is not None


def test_prepared_statement_over_the_wire(ldbc_service, ldbc_client):
    template = "MATCH (p:Person) WHERE p.id = $pid RETURN p.firstName AS name"
    with ldbc_client.session() as remote_session:
        prepared = remote_session.prepare(template)
        assert prepared.deferred
        assert prepared.parameter_names == ["pid"]
        with ldbc_service.session() as session:
            for pid in (1, 2, 3):
                expected = jsonable(
                    session.run(template, parameters={"pid": pid}).fetch_all())
                assert prepared.run({"pid": pid}).rows == expected


def test_gremlin_over_the_wire(ldbc_service, ldbc_client):
    query = "g.V().hasLabel('Person').count()"
    with ldbc_service.session() as session:
        expected = jsonable(session.run(query, language="gremlin").fetch_all())
    assert ldbc_client.run(query, language="gremlin").rows == expected


def test_explain_over_the_wire(ldbc_service, ldbc_client):
    query = "MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName"
    local = ldbc_service.optimize(query).explain()
    remote = ldbc_client.explain(query)
    assert remote.plan == local
    assert remote.estimated_cost is not None and remote.estimated_cost > 0


def test_max_rows_truncation_flag(ldbc_client):
    result = ldbc_client.run("MATCH (p:Person) RETURN p.firstName AS n",
                             max_rows=3)
    assert result.row_count == 3
    assert result.truncated
    assert result.warning


def test_parse_error_maps_to_400(ldbc_client):
    with pytest.raises(ParseError):
        ldbc_client.run("MATCH p:Person RETURN")


#: Content-Length header -> the status the server must answer it with
CONTENT_LENGTH_STATUS = {"abc": 400, "-1": 400, str(MAX_BODY_BYTES + 1): 413}


@pytest.mark.parametrize("content_length", list(CONTENT_LENGTH_STATUS))
def test_malformed_content_length_gets_a_typed_400(ldbc_server, content_length):
    """Neither a dead handler thread with no response, nor a read that blocks
    until the client hangs up, nor an unbounded body buffered in memory: a
    typed 400 (413 when over the size cap) within 2 s, then the server
    closes."""
    status = CONTENT_LENGTH_STATUS[content_length]
    request = ("POST /v1/queries HTTP/1.1\r\nHost: test\r\n"
               "Content-Length: %s\r\n\r\n" % content_length).encode("ascii")
    with socket.create_connection((ldbc_server.host, ldbc_server.port),
                                  timeout=2.0) as sock:
        sock.sendall(request)
        raw = b""
        while True:  # until the server closes; a hang trips the 2 s timeout
            chunk = sock.recv(4096)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    error = ErrorWire.from_dict(json.loads(body))
    assert (error.type, error.status) == ("GOptError", status)
    assert "Content-Length" in error.message


def test_slow_request_body_gets_a_typed_408(ldbc_server, monkeypatch):
    """A client that declares 100 body bytes, sends 10 and waits must not
    hold a handler thread until it hangs up: a typed 408 once the body
    timeout passes, then the server closes."""
    monkeypatch.setattr(http_server, "BODY_TIMEOUT_SECONDS", 0.3, raising=False)
    request = (b"POST /v1/queries HTTP/1.1\r\nHost: test\r\n"
               b"Content-Length: 100\r\n\r\n" + b"{\"query\": ")
    with socket.create_connection((ldbc_server.host, ldbc_server.port),
                                  timeout=2.0) as sock:
        sock.sendall(request)
        raw = b""
        while True:  # until the server closes; a hang trips the 2 s timeout
            chunk = sock.recv(4096)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408 ")
    assert b"Connection: close" in head
    error = ErrorWire.from_dict(json.loads(body))
    assert (error.type, error.status) == ("GOptError", 408)


def test_truncated_json_body_gets_a_typed_400_and_keeps_the_connection(ldbc_server):
    """A complete request whose body is cut-off JSON is answered with a
    typed 400, and the same keep-alive connection serves the next request."""
    connection = http.client.HTTPConnection(ldbc_server.host, ldbc_server.port,
                                            timeout=2.0)
    try:
        connection.request("POST", "/v1/queries", body=b'{"query": "MATCH',
                           headers={"X-Tenant": "e2e"})
        response = connection.getresponse()
        error = ErrorWire.from_dict(json.loads(response.read()))
        assert response.status == 400
        assert (error.type, error.status) == ("GOptError", 400)
        assert "malformed JSON" in error.message
        assert response.getheader("Connection") is None
        sock = connection.sock
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert (response.status, json.loads(response.read())) == (
            200, {"status": "ok"})
        assert connection.sock is sock  # no reconnect happened
    finally:
        connection.close()


def test_cursor_is_invisible_to_another_tenant(ldbc_server, ldbc_service):
    """Tenant B's fetch and DELETE of tenant A's cursor get a typed 404 and
    leave the cursor intact: tenant A still drains all of it."""
    query = "MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName AS n"
    with ldbc_service.session() as session:
        expected = jsonable(session.run(query).fetch_all())
    owner = GraphClient(ldbc_server.host, ldbc_server.port, tenant="tenant-a")
    intruder = GraphClient(ldbc_server.host, ldbc_server.port, tenant="tenant-b")
    try:
        with owner.session() as remote_session:
            cursor = remote_session.cursor(query, fetch_size=5)
            rows = cursor.fetch_many(3)
            with pytest.raises(NotFoundError):
                intruder.call("GET", "/v1/cursors/%s/fetch?n=5" % cursor.cursor_id)
            with pytest.raises(NotFoundError):
                intruder.call("DELETE", "/v1/cursors/%s" % cursor.cursor_id)
            rows += cursor.fetch_all()
            assert sorted(map(json.dumps, rows)) == sorted(map(json.dumps, expected))
            assert cursor.metrics is not None  # drained to the final chunk
    finally:
        owner.close()
        intruder.close()


def test_read_timeout_is_not_retried(serving_service):
    """A request that outlives the client's timeout may still be running on
    the server: it surfaces as one TimeoutError and is never sent twice."""
    injector = FaultInjector(seed=17)
    injector.add_rule("server.request", action="sleep", rate=1.0, seconds=0.6,
                      match={"endpoint": "queries"})
    with GraphHTTPServer(serving_service, max_queue_depth=64) as server:
        client = GraphClient(server.host, server.port, tenant="impatient",
                             timeout_seconds=0.2)
        try:
            client.healthz()  # the query goes out on a reused connection
            with injector:
                with pytest.raises(TimeoutError):
                    client.run("MATCH (p:Person) RETURN p.name AS n")
                time.sleep(0.6)  # let the stalled handler finish its sleep
            requests = server.app.counters.snapshot()["requests"]
            assert requests["impatient"]["queries"] == 1
            assert server.app.admission.stats().admitted == 1
            # the discarded connection is replaced on the next call
            assert client.healthz() == {"status": "ok"}
        finally:
            client.close()


def test_idle_connection_closed_by_the_server_is_retried_once():
    """A keep-alive connection the server dropped while idle costs the
    caller nothing: the request never ran, so it goes out again, once, on a
    fresh connection."""
    listener = socket.create_server(("127.0.0.1", 0))
    request_lines = []

    def serve_two_connections():
        for _ in range(2):
            connection, _ = listener.accept()
            with connection:  # answer one request, then drop the connection
                request_lines.append(connection.recv(65536).split(b"\r\n")[0])
                connection.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 16\r\n"
                                   b"\r\n{\"status\": \"ok\"}")

    server = threading.Thread(target=serve_two_connections)
    server.start()
    client = GraphClient(*listener.getsockname()[:2], timeout_seconds=2.0)
    try:
        assert client.healthz() == {"status": "ok"}
        time.sleep(0.1)  # the server has closed the idle connection
        assert client.healthz() == {"status": "ok"}
    finally:
        client.close()
        server.join(timeout=2.0)
        listener.close()
    assert request_lines == [b"GET /healthz HTTP/1.1"] * 2


# -- transport guards: a return of the Nagle x delayed-ACK stall fails these --
def test_transport_both_ends_run_with_nodelay(ldbc_client, monkeypatch):
    def nodelay(sock):
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    server_side = []
    original_setup = http_server._RequestHandler.setup

    def recording_setup(handler):
        original_setup(handler)
        server_side.append(nodelay(handler.connection))

    monkeypatch.setattr(http_server._RequestHandler, "setup", recording_setup)
    ldbc_client.healthz()
    assert nodelay(ldbc_client._local.connection.sock)
    # http.client reopens a closed connection on the next request
    ldbc_client._local.connection.close()
    ldbc_client.healthz()
    assert nodelay(ldbc_client._local.connection.sock)
    assert len(server_side) == 2 and all(server_side)


def test_transport_one_write_per_response(ldbc_server, ldbc_client, monkeypatch):
    """Status line, headers and body leave the server in a single write,
    for a served request and for a refused one alike."""
    writes = []
    original = socketserver._SocketWriter.write

    def counting_write(self, data):
        writes.append(bytes(data))
        return original(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
    ldbc_client.healthz()
    ldbc_client.run("MATCH (p:Person) RETURN p.firstName AS n")
    with socket.create_connection((ldbc_server.host, ldbc_server.port),
                                  timeout=2.0) as sock:
        sock.sendall(b"POST /v1/queries HTTP/1.1\r\nHost: test\r\n"
                     b"Content-Length: abc\r\n\r\n")
        while sock.recv(4096):
            pass
    assert [data.split(b" ", 2)[1] for data in writes] == [b"200", b"200", b"400"]
    for data in writes:
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"Content-Length: %d\r\n" % len(body) in head + b"\r\n"


def test_transport_keepalive_point_lookups_do_not_stall(ldbc_client):
    """30 sequential keep-alive point lookups: a median under 10 ms (a
    head and body sent apart under Nagle cost ~40 ms each)."""
    template = "MATCH (p:Person) WHERE p.id = $pid RETURN p.firstName AS name"
    ldbc_client.run(template, parameters={"pid": 1})  # warm the plan cache
    samples = []
    for pid in range(30):
        started = time.perf_counter()
        ldbc_client.run(template, parameters={"pid": pid})
        samples.append(time.perf_counter() - started)
    assert statistics.median(samples) < 0.010, samples


def test_transport_64_simultaneous_fresh_connections(ldbc_server):
    """64 clients connecting at once all get /healthz back within 2 s."""
    count = 64
    barrier = threading.Barrier(count)
    answers = []

    def probe():
        client = GraphClient(ldbc_server.host, ldbc_server.port,
                             timeout_seconds=2.0)
        try:
            barrier.wait(timeout=2.0)
            answers.append(client.healthz())
        finally:
            client.close()

    started = time.monotonic()
    threads = [threading.Thread(target=probe) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5.0)
    assert answers == [{"status": "ok"}] * count
    assert time.monotonic() - started < 2.0


def test_unknown_cursor_maps_to_404(ldbc_client):
    with pytest.raises(NotFoundError):
        ldbc_client.call("GET", "/v1/cursors/c-does-not-exist/fetch?n=5")


def test_deadline_header_maps_to_504(ldbc_client):
    with pytest.raises(ExecutionTimeout):
        ldbc_client.run(
            "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)"
            "-[:KNOWS]->(d:Person) RETURN count(d) AS c",
            deadline_seconds=0.0005)


def test_foreign_tenant_cannot_touch_sessions(ldbc_server, ldbc_client):
    with ldbc_client.session() as remote_session:
        intruder = GraphClient(ldbc_server.host, ldbc_server.port,
                               tenant="intruder")
        with pytest.raises(NotFoundError):
            intruder.call("POST", "/v1/queries",
                          {"session_id": remote_session.session_id,
                           "query": "MATCH (p:Person) RETURN p.id"})
        intruder.close()


def test_quota_breach_returns_429_with_positive_retry_after(serving_service):
    """Induced per-tenant quota breach: one slow in-flight query (stalled at
    the server.request fault point while holding its admission slot) plus a
    second request from the same tenant -> 429 + Retry-After."""
    injector = FaultInjector(seed=13)
    injector.add_rule("server.request", action="sleep", rate=1.0, seconds=0.6,
                      max_fires=1, match={"endpoint": "queries"})
    with GraphHTTPServer(serving_service, per_tenant_limit=1,
                         max_queue_depth=64) as server:
        slow = GraphClient(server.host, server.port, tenant="greedy")
        fast = GraphClient(server.host, server.port, tenant="greedy")
        other = GraphClient(server.host, server.port, tenant="patient")
        with injector:
            worker = threading.Thread(
                target=lambda: slow.run("MATCH (p:Person) RETURN p.name AS n"))
            worker.start()
            time.sleep(0.2)  # the slow query is now asleep inside its slot
            status, headers, body = fast.request(
                "POST", "/v1/queries",
                {"query": "MATCH (p:Person) RETURN p.name AS n"})
            assert status == 429
            assert int(headers["retry-after"]) > 0
            error = json.loads(body.decode())["error"]
            assert error["type"] == "ServiceOverloadedError"
            assert error["retry_after_seconds"] > 0
            with pytest.raises(ServiceOverloadedError) as info:
                fast.run("MATCH (p:Person) RETURN p.name AS n")
            assert info.value.retry_after_seconds > 0
            # a different tenant is NOT over quota
            assert other.run("MATCH (p:Person) RETURN p.name AS n").row_count > 0
            worker.join()
        # after the slot frees, the same tenant is served again
        assert fast.run("MATCH (p:Person) RETURN p.name AS n").row_count > 0
        metrics_text = slow.metrics_text()
        assert 'repro_tenant_rejected_total{tenant="greedy"}' in metrics_text
        for client in (slow, fast, other):
            client.close()


def test_metrics_exposition_contract(serving_service):
    with GraphHTTPServer(serving_service, max_queue_depth=16) as server:
        client = GraphClient(server.host, server.port, tenant="scraper")
        client.run("MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS n")
        client.run("MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS n")
        with client.session() as session:
            with session.cursor("MATCH (p:Person) RETURN p.name AS n",
                                fetch_size=50) as cursor:
                cursor.fetch_all()
        text = client.metrics_text()
        for required in (
            "repro_plan_cache_hit_rate",
            "repro_plan_cache_hits",
            "repro_admission_queue_depth",
            "repro_admission_admitted_total",
            "repro_sessions_open",
            "repro_cursors_open",
            "repro_peak_held_rows_max",
            "repro_queries_executed_total",
            'repro_requests_total{endpoint="queries",tenant="scraper"}',
            'repro_rows_returned_total{tenant="scraper"}',
        ):
            assert required in text, "missing %s in exposition" % required
        # hit rate is live: the repeated query hit the shared plan cache
        hit_rate = float([line for line in text.splitlines()
                          if line.startswith("repro_plan_cache_hit_rate")][0]
                         .split()[-1])
        assert 0.0 <= hit_rate <= 1.0
        client.close()


def test_healthz(client):
    assert client.healthz() == {"status": "ok"}


def test_remote_fetch_many_counts_like_in_process(client, serving_service):
    """``fetch_many(0)`` returns no row and a negative count raises, on the
    remote cursor exactly as on the in-process ``ResultCursor``; neither
    consumes a row."""
    query = "MATCH (p:Person) RETURN p.name AS n"
    with serving_service.session() as session:
        local = session.run(query)
        assert local.fetch_many(0) == []
        with pytest.raises(GOptError):
            local.fetch_many(-1)
        expected = jsonable(local.fetch_all())
    with client.session() as remote_session:
        cursor = remote_session.cursor(query, fetch_size=4)
        assert cursor.fetch_many(0) == []
        with pytest.raises(GOptError):
            cursor.fetch_many(-1)
        assert cursor.fetch_many(3) == expected[:3]
        assert cursor.fetch_all() == expected[3:]


def test_remote_fetch_one_and_closed_like_in_process(client, serving_service):
    """``fetch_one`` returns ``None`` at the end and ``closed`` turns true
    only on ``close()``, on the remote cursor as on the in-process one."""
    query = "MATCH (p:Person) RETURN p.name AS n"
    cursors = []
    with serving_service.session() as session:
        cursors.append(session.run(query))
        expected = jsonable(session.run(query).fetch_all())
        with client.session() as remote_session:
            cursors.append(remote_session.cursor(query, fetch_size=4))
            for cursor in cursors:
                assert jsonable([cursor.fetch_one()]) == expected[:1]
                assert jsonable(cursor.fetch_all()) == expected[1:]
                assert cursor.fetch_one() is None
                assert not cursor.closed  # exhaustion alone does not close
                cursor.close()
                assert cursor.closed
                assert cursor.fetch_one() is None


def test_remote_close_sends_delete_only_before_exhaustion(client, server, monkeypatch):
    deletes = []
    call = client.call

    def recording_call(method, path, *args, **kwargs):
        if method == "DELETE" and path.startswith("/v1/cursors/"):
            deletes.append(path)
        return call(method, path, *args, **kwargs)

    monkeypatch.setattr(client, "call", recording_call)
    query = "MATCH (p:Person) RETURN p.name AS n"
    with client.session() as session:
        early = session.cursor(query, fetch_size=4)
        assert early.fetch_one() is not None
        early.close()
        early.close()
        assert deletes == ["/v1/cursors/%s" % early.cursor_id]
        assert early.closed and early.fetch_one() is None  # buffered rows dropped
        drained = session.cursor(query, fetch_size=4)
        drained.fetch_all()
        drained.close()
        assert drained.closed
        assert len(deletes) == 1  # the server released the exhausted cursor
        assert server.app.registry.stats()["cursors_open"] == 0


def test_session_close_via_delete(client, server):
    session = client.session()
    cursor = session.cursor("MATCH (p:Person) RETURN p.name AS n", fetch_size=4)
    assert len(cursor.fetch_many(4)) == 4
    session.close()
    assert server.app.registry.stats()["cursors_open"] == 0
    with pytest.raises(NotFoundError):
        session.run("MATCH (p:Person) RETURN p.name AS n")
