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


class WorkerFailure(ExecutionError):
    """An infrastructure fault inside a dataflow partition step or driver.

    Distinct from *query* errors (which are ``GOptError`` subclasses raised
    by the plan itself, e.g. a missing parameter): a ``WorkerFailure`` wraps
    an unexpected non-GOpt exception raised while executing a plan fragment.
    The dataflow executor discards partial results and raises this; the
    backend then always degrades by re-executing the plan on the row engine
    (``ExecutionMetrics.degraded``).  Nothing retries it in-process; it
    stays the typed class a server maps to 503.

    Attributes:
        worker_id: the partition whose step failed (-1 for the driver).
        exchange_stats: partial observed exchange traffic up to the failure.
        cause: the original exception.
    """

    def __init__(self, message, worker_id=-1, exchange_stats=None, cause=None):
        super().__init__(message)
        self.worker_id = worker_id
        self.exchange_stats = exchange_stats
        self.cause = cause
