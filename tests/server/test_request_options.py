"""A request runs under its registry session's options, with the body's
``engine`` and the deadline header applied on top -- nothing else is lost.

Driven through ``ServerApp.handle_request`` (no sockets).  Both tests fail
on the code before ``ExecutionOptions``: the per-request session was built
from ``engine`` + deadline only, and a registry session was reused as-is
whenever no deadline was sent.
"""

import json

import pytest

from repro.server.app import ServerApp

QUERY = "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS name"


@pytest.fixture()
def app(serving_service):
    app = ServerApp(serving_service)
    yield app
    app.shutdown()


def post(app, path, payload, headers=None):
    response = app.handle_request(
        "POST", path, {}, headers or {}, json.dumps(payload).encode("utf-8"))
    return response.status, json.loads(response.body)


def open_session(app, **options):
    status, body = post(app, "/v1/sessions", options)
    assert status == 201
    return body["session_id"]


def test_deadline_header_keeps_the_sessions_workers(app, monkeypatch):
    executions = []
    record = app.counters.record_execution
    monkeypatch.setattr(
        app.counters, "record_execution",
        lambda **observed: (executions.append(observed), record(**observed)))
    session_id = open_session(app, engine="dataflow", workers=2)
    status, body = post(app, "/v1/queries",
                        {"session_id": session_id, "query": QUERY},
                        headers={"X-Deadline-Seconds": "30"})
    assert status == 200 and body["row_count"] > 0
    assert len(executions) == 1
    assert len(executions[0]["worker_busy"]) == 2   # not the backend's 4
    assert app.counters.snapshot()["exchange_rows"]["gathered"] > 0


def test_body_engine_overrides_a_registry_sessions_engine(app):
    session_id = open_session(app, engine="row")
    status, _ = post(app, "/v1/queries", {"session_id": session_id, "query": QUERY})
    assert status == 200
    assert app.counters.snapshot()["exchange_rows"] == {}   # serial engine
    status, _ = post(app, "/v1/queries", {"session_id": session_id, "query": QUERY,
                                          "engine": "dataflow"})
    assert status == 200
    assert app.counters.snapshot()["exchange_rows"]["gathered"] > 0
