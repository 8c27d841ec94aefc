"""The error <-> status contract, pinned as a table in both directions."""

import pytest

from repro.errors import (
    CancelledError,
    ExecutionTimeout,
    GirBuildError,
    GOptError,
    GraphError,
    NotFoundError,
    ParseError,
    PlanningError,
    ServerError,
    ServiceOverloadedError,
    TypeInferenceError,
)
from repro.server.protocol import (
    error_to_wire,
    exception_from_wire,
    retry_after_header,
    status_for_exception,
)

STATUS_TABLE = [
    (ParseError("bad text"), 400),
    (GirBuildError("bad plan"), 400),
    (TypeInferenceError("invalid pattern"), 400),
    (PlanningError("cannot plan"), 400),
    (GraphError("bad graph access"), 400),      # generic GOptError subclass
    (GOptError("anything query-side"), 400),
    (NotFoundError("no such cursor"), 404),
    (ServiceOverloadedError("queue full", retry_after_seconds=0.4), 429),
    (CancelledError("client went away"), 499),
    (ExecutionTimeout("deadline exceeded"), 504),
    (ServerError("server failed"), 500),
    (RuntimeError("a server bug"), 500),
    (KeyError("another server bug"), 500),
]


@pytest.mark.parametrize("exc,status", STATUS_TABLE,
                         ids=[type(e).__name__ for e, _ in STATUS_TABLE])
def test_status_for_exception(exc, status):
    assert status_for_exception(exc) == status
    wire = error_to_wire(exc)
    assert wire.status == status
    assert wire.type == type(exc).__name__
    assert wire.message


REBUILD_TABLE = [
    # (server-side exception, type the client must raise)
    (ParseError("bad text"), ParseError),
    (GirBuildError("bad plan"), GirBuildError),
    (TypeInferenceError("invalid pattern"), TypeInferenceError),
    (PlanningError("cannot plan"), PlanningError),
    (NotFoundError("no such cursor"), NotFoundError),
    (ServiceOverloadedError("queue full"), ServiceOverloadedError),
    (CancelledError("client went away"), CancelledError),
    (ExecutionTimeout("deadline exceeded"), ExecutionTimeout),
    # every 500 -- a server bug or infrastructure fault -- is a ServerError
    (ServerError("server failed"), ServerError),
    (RuntimeError("a server bug"), ServerError),
    (KeyError("another server bug"), ServerError),
    # query-side types outside the protocol table collapse to the base
    (GraphError("bad graph access"), GOptError),
    (GOptError("anything query-side"), GOptError),
]


@pytest.mark.parametrize("exc,expected", REBUILD_TABLE,
                         ids=[type(e).__name__ for e, _ in REBUILD_TABLE])
def test_client_rebuilds_the_same_exception_type(exc, expected):
    """Server-side exception -> wire -> client-side exception is type-stable
    for every type the protocol names; a 500 becomes ServerError and other
    query-side types collapse to GOptError."""
    rebuilt = exception_from_wire(error_to_wire(exc))
    assert type(rebuilt) is expected
    assert isinstance(rebuilt, GOptError)


def test_overload_keeps_its_retry_after_hint():
    exc = ServiceOverloadedError("queue full", retry_after_seconds=0.4)
    wire = error_to_wire(exc)
    assert wire.retry_after_seconds == pytest.approx(0.4)
    rebuilt = exception_from_wire(wire)
    assert isinstance(rebuilt, ServiceOverloadedError)
    assert rebuilt.retry_after_seconds == pytest.approx(0.4)


def test_retry_after_header_rounds_up_and_only_on_429():
    assert retry_after_header(error_to_wire(
        ServiceOverloadedError("x", retry_after_seconds=0.4))) == "1"
    assert retry_after_header(error_to_wire(
        ServiceOverloadedError("x", retry_after_seconds=2.3))) == "3"
    assert retry_after_header(error_to_wire(ParseError("x"))) is None


def test_unknown_type_falls_back_to_status_mapping():
    from repro.server.wire import ErrorWire
    rebuilt = exception_from_wire(ErrorWire(type="Mystery", message="m", status=504))
    assert isinstance(rebuilt, ExecutionTimeout)
    rebuilt = exception_from_wire(ErrorWire(type="Mystery", message="m", status=404))
    assert isinstance(rebuilt, NotFoundError)
    rebuilt = exception_from_wire(ErrorWire(type="Mystery", message="m", status=500))
    assert type(rebuilt) is ServerError
    rebuilt = exception_from_wire(ErrorWire(type="Mystery", message="m", status=400))
    assert type(rebuilt) is GOptError
