"""The error <-> HTTP status contract of the serving protocol.

One table, used from both sides of the wire: the server maps a raised
exception onto a status code plus an :class:`~repro.server.wire.ErrorWire`
body, and :class:`repro.client.GraphClient` maps the response back onto the
same typed exception the in-process API would have raised.  Keeping both
directions in this module means the mapping cannot drift.

The contract:

====================================  ======  =====================================
exception                             status  notes
====================================  ======  =====================================
``ParseError``                        400     invalid query text
``GirBuildError``                     400     invalid plan construction
``TypeInferenceError``                400     pattern admits no type assignment
``PlanningError``                     400     optimizer cannot plan the query
``NotFoundError``                     404     unknown session / cursor / statement
``ServiceOverloadedError``            429     + ``Retry-After`` header (EWMA hint)
``CancelledError``                    499     client went away / server cancelled
``ExecutionTimeout``                  504     deadline exceeded
``ServerError``                       500     rebuilt by the client for any 500
``GOptError`` (any other subclass)    400     query-side error by definition
anything else                         500     a server bug, never a query error
====================================  ======  =====================================
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Type

from repro.errors import (
    CancelledError,
    ExecutionTimeout,
    GirBuildError,
    GOptError,
    NotFoundError,
    ParseError,
    PlanningError,
    ServerError,
    ServiceOverloadedError,
    TypeInferenceError,
)
from repro.server.wire import ErrorWire

#: nginx's "client closed request"; the closest standard-ish code for a
#: cooperatively cancelled execution (the client is no longer waiting)
STATUS_CLIENT_CLOSED = 499

#: ordered most-specific-first; the first ``isinstance`` match wins
_STATUS_TABLE: Tuple[Tuple[Type[BaseException], int], ...] = (
    (ServiceOverloadedError, 429),
    (NotFoundError, 404),
    (CancelledError, STATUS_CLIENT_CLOSED),
    (ExecutionTimeout, 504),
    (ParseError, 400),
    (GirBuildError, 400),
    (TypeInferenceError, 400),
    (PlanningError, 400),
    (ServerError, 500),
    (GOptError, 400),
)


def status_for_exception(exc: BaseException) -> int:
    """The HTTP status the serving layer answers ``exc`` with."""
    for exc_type, status in _STATUS_TABLE:
        if isinstance(exc, exc_type):
            return status
    return 500


def error_to_wire(exc: BaseException) -> ErrorWire:
    """Serialize an exception into the protocol's error body."""
    status = status_for_exception(exc)
    retry_after = getattr(exc, "retry_after_seconds", None)
    return ErrorWire(
        type=type(exc).__name__,
        message=str(exc) or type(exc).__name__,
        status=status,
        retry_after_seconds=retry_after,
    )


def retry_after_header(error: ErrorWire) -> Optional[str]:
    """The ``Retry-After`` header value for a 429, else ``None``.

    HTTP wants integral seconds; the hint is rounded *up* so a client
    honoring the header never retries before the server's own estimate.
    """
    if error.status != 429:
        return None
    hint = error.retry_after_seconds if error.retry_after_seconds else 0.05
    return str(max(1, int(math.ceil(hint))))


def exception_from_wire(error: ErrorWire,
                        retry_after_hint: Optional[float] = None) -> GOptError:
    """Rebuild the typed exception a response body describes (client side).

    ``retry_after_hint`` (from the body's float field, falling back to the
    coarser ``Retry-After`` header) rides along on overload errors so a
    remote caller can back off exactly like an in-process one.
    """
    message = "%s (HTTP %d)" % (error.message, error.status)
    if error.status == 429 or error.type == "ServiceOverloadedError":
        hint = error.retry_after_seconds or retry_after_hint or 0.1
        return ServiceOverloadedError(message, retry_after_seconds=hint)
    by_name = {
        "ParseError": ParseError,
        "GirBuildError": GirBuildError,
        "TypeInferenceError": TypeInferenceError,
        "PlanningError": PlanningError,
        "NotFoundError": NotFoundError,
        "CancelledError": CancelledError,
        "ExecutionTimeout": ExecutionTimeout,
    }
    exc_type = by_name.get(error.type)
    if exc_type is not None:
        return exc_type(message)
    if error.status == 404:
        return NotFoundError(message)
    if error.status == 504:
        return ExecutionTimeout(message)
    if error.status == STATUS_CLIENT_CLOSED:
        return CancelledError(message)
    if error.status == 500:
        return ServerError(message)
    return GOptError(message)
