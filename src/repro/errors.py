"""Exception hierarchy shared across the GOpt reproduction."""


class GOptError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(GOptError):
    """Raised when a graph schema is malformed or a schema lookup fails."""


class GraphError(GOptError):
    """Raised when graph construction or access is invalid."""


class GirBuildError(GOptError):
    """Raised when a logical plan cannot be constructed from builder calls."""


class ParseError(GOptError):
    """Raised by the Cypher/Gremlin front-ends on invalid query text."""

    def __init__(self, message, position=None, text=None):
        super().__init__(message)
        self.position = position
        self.text = text


class TypeInferenceError(GOptError):
    """Raised when a pattern admits no valid type assignment (INVALID)."""


class PlanningError(GOptError):
    """Raised when the optimizer cannot produce a physical plan."""


class ExecutionError(GOptError):
    """Raised by a backend when a physical plan cannot be executed."""


class ExecutionTimeout(ExecutionError):
    """Raised when a plan exceeds the backend's time or intermediate-result budget.

    The benchmark harness records such queries as "OT" (over time), matching
    the paper's treatment of queries exceeding one hour.
    """

    def __init__(self, message, metrics=None):
        super().__init__(message)
        self.metrics = metrics


class CancelledError(ExecutionError):
    """Raised when an execution is cooperatively cancelled.

    Cancellation is requested through a
    :class:`~repro.backend.runtime.context.CancellationToken` (early
    ``ResultCursor.close()``, executor shutdown, an explicit
    ``token.cancel()``) and lands at the next kernel-batch checkpoint of
    whichever engine runs the plan, so cancelled work stops instead of
    racing to completion.
    """

    def __init__(self, message="execution cancelled", reason=None):
        super().__init__(message)
        #: what requested the cancellation (free-form, for diagnostics)
        self.reason = reason


class InvalidOptionError(GOptError, ValueError):
    """An execution option is out of range or names an unknown engine.

    Also a ``ValueError``: backend constructors have always raised one for a
    bad ``batch_size``, sessions a ``GOptError``, and both now share the
    single validation in ``ExecutionOptions``.
    """


class NotFoundError(GOptError):
    """A named serving resource (session, cursor, prepared statement) does
    not exist -- it expired, was closed, or never existed.

    The HTTP front end maps this to 404; in-process callers see it when a
    TTL-evicted session or cursor id is reused.
    """


class ServerError(GOptError):
    """The server failed for a reason that is not the query's (HTTP 500).

    Raised by :class:`repro.client.GraphClient` when the server answers a
    request with 500: a server bug or an infrastructure fault, which the
    server side sees as any exception that is not a ``GOptError``.  The
    same query may succeed on a retry; a query error would not.
    """


class ServiceOverloadedError(GOptError):
    """Fast rejection: the serving layer is saturated; retry later.

    Raised by admission control when the bounded queue is full, a client
    exceeded its concurrency quota, or a request aged out of the queue
    before a worker picked it up.  ``retry_after_seconds`` is the server's
    backoff hint; clients should wait at least that long before retrying.
    """

    def __init__(self, message, retry_after_seconds=0.1):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds

