"""End-to-end: GraphClient against a live server on an ephemeral port.

The heart of the wire-layer contract: remote execution returns rows
*identical* to an in-process ``Session.run()`` for the differential-suite
queries, overload produces 429 + positive ``Retry-After``, and ``/metrics``
exposes the serving counters.
"""

import json
import socket
import threading
import time

import pytest

from repro.client import GraphClient
from repro.errors import (
    ExecutionTimeout,
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
            "repro_worker_busy_seconds_total",
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


def test_session_close_via_delete(client, server):
    session = client.session()
    cursor = session.cursor("MATCH (p:Person) RETURN p.name AS n", fetch_size=4)
    assert len(cursor.fetch_many(4)) == 4
    session.close()
    assert server.app.registry.stats()["cursors_open"] == 0
    with pytest.raises(NotFoundError):
        session.run("MATCH (p:Person) RETURN p.name AS n")
