"""Session-based query serving layer.

The one public entry point of the reproduction, modeled on the
driver/session architecture of real graph stores:

* :class:`GraphService` owns one data graph, one optimizer and one
  thread-safe shared plan cache, and hands out lightweight sessions;
* :class:`Session` runs every query under one resolved
  :class:`~repro.backend.ExecutionOptions` value (engine, timeout,
  intermediate-result budget, batch size, dataflow workers) and is the unit
  of serving one logical client;
* :class:`PreparedQuery` (from :meth:`Session.prepare`) keeps ``$param``
  placeholders symbolic so one optimized plan -- cached under the parameter
  *types*, never the values -- serves every execution of a template;
* :class:`ResultCursor` (from :meth:`Session.run`; the same handle
  ``Backend.execute_streaming`` returns) streams rows lazily with
  ``fetch_many`` / ``consume`` / early ``close`` semantics, so
  bounded-memory consumption of large results is the default;
* :class:`ConcurrentExecutor` fans query workloads over a thread pool of
  sessions with per-query deadlines, cooperative cancellation
  (``shutdown(cancel=True)``) and per-query fault isolation;
* :class:`AdmissionController` bounds the executor's intake -- queue depth,
  per-client quotas and queue-time deadlines -- fast-rejecting excess load
  with :class:`~repro.errors.ServiceOverloadedError` and a retry-after hint.
"""

from repro.backend.base import ResultCursor
from repro.service.admission import (
    AdmissionController,
    AdmissionStats,
    AdmissionTicket,
)
from repro.service.executor import ConcurrentExecutor, QueryOutcome, QueryRequest
from repro.service.service import GraphService
from repro.service.session import PreparedQuery, Session

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AdmissionTicket",
    "GraphService",
    "Session",
    "PreparedQuery",
    "ResultCursor",
    "ConcurrentExecutor",
    "QueryRequest",
    "QueryOutcome",
]
