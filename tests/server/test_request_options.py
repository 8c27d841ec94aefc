"""A request runs under its registry session's options, with the body's
``engine`` and the deadline header applied on top -- nothing else is lost;
and an option the server cannot honour is refused with a typed 400.

Driven through ``ServerApp.handle_request`` (no sockets).
"""

import json

import pytest

from repro.server.app import ServerApp
from repro.service import Session

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


def test_deadline_header_keeps_the_sessions_engine_and_batch_size(
        app, monkeypatch):
    executed = []
    run = Session.run
    monkeypatch.setattr(
        Session, "run",
        lambda session, *args, **kwargs: (executed.append(session.options),
                                          run(session, *args, **kwargs))[1])
    session_id = open_session(app, engine="dataflow", batch_size=7)
    status, body = post(app, "/v1/queries",
                        {"session_id": session_id, "query": QUERY},
                        headers={"X-Deadline-Seconds": "30"})
    assert status == 200 and body["row_count"] > 0
    assert [(options.engine, options.batch_size, options.timeout_seconds)
            for options in executed] == [("dataflow", 7, 30.0)]
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


@pytest.mark.parametrize("path,payload,headers", [
    # a NaN deadline compared false against "<= 0" and ran with no deadline
    ("/v1/queries", {"query": QUERY}, {"X-Deadline-Seconds": "nan"}),
    ("/v1/queries", {"query": QUERY}, {"X-Deadline-Seconds": "inf"}),
    # float("abc") escaped as a 500 ValueError
    ("/v1/sessions", {"ttl_seconds": "abc"}, {}),
    ("/v1/sessions", {"ttl_seconds": True}, {}),
    # True is an int: it truncated the result at one row
    ("/v1/queries", {"query": QUERY, "max_rows": True}, {}),
    # a 500 TypeError, a bool taken as 1, and a session that failed every
    # later query with a 500
    ("/v1/sessions", {"batch_size": "x"}, {}),
    ("/v1/sessions", {"batch_size": True}, {}),
    ("/v1/sessions", {"timeout_seconds": "x"}, {}),
], ids=["deadline-nan", "deadline-inf", "ttl-text", "ttl-bool",
        "max_rows-bool", "batch_size-text", "batch_size-bool",
        "timeout-text"])
def test_values_the_server_cannot_honour_get_a_typed_400(app, path, payload,
                                                         headers):
    status, body = post(app, path, payload, headers)
    assert status == 400, body
    assert body["error"]["type"] in ("GOptError", "InvalidOptionError")
