"""ConcurrentExecutor: fan query workloads over a pool of sessions."""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.backend.base import ExecutionMetrics
from repro.backend.runtime.context import InFlightTokens
from repro.errors import GOptError, ServiceOverloadedError
from repro.service.admission import AdmissionController, AdmissionStats, AdmissionTicket
from repro.service.session import Session
from repro.testing.faults import fault_point

#: how many times run_all() re-attempts a fast-rejected submission before
#: giving up and reporting the overload as the query's outcome
_RUN_ALL_ADMISSION_ATTEMPTS = 50


@dataclass(frozen=True)
class QueryRequest:
    """One query of a concurrent workload.

    ``client`` identifies the submitting principal for per-client admission
    quotas; requests without one are only subject to the global queue bound.
    """

    query: str
    language: str = "cypher"
    parameters: Optional[Dict[str, object]] = None
    client: Optional[str] = None


@dataclass
class QueryOutcome:
    """What one concurrently served query produced."""

    request: QueryRequest
    rows: List[dict] = field(default_factory=list)
    metrics: Optional[ExecutionMetrics] = None
    error: Optional[str] = None
    retry_after_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def timed_out(self) -> bool:
        return bool(self.metrics is not None and self.metrics.timed_out)

    @property
    def rejected(self) -> bool:
        """Whether the request was refused or expired by admission control."""
        return self.retry_after_seconds is not None


class ConcurrentExecutor:
    """Serve many queries concurrently through one shared :class:`GraphService`.

    Each submitted query runs in its own short-lived session on a worker
    thread, with an optional per-query ``deadline_seconds`` that overrides
    the backend's timeout for that query only (``None``, like a request
    without ``X-Deadline-Seconds``, keeps the backend's).  Failures are
    captured per query (``QueryOutcome.error``) instead of tearing the pool
    down, and a query that exceeds its deadline reports ``timed_out`` like
    any other over-budget execution.

    Overload protection is opt-in: passing ``max_queue_depth``,
    ``queue_timeout_seconds`` or ``per_client_limit`` (or a shared
    :class:`~repro.service.admission.AdmissionController`) bounds the
    admission queue -- :meth:`submit` then fast-rejects with
    :class:`~repro.errors.ServiceOverloadedError` (carrying a retry-after
    hint) instead of queueing without limit, and requests that age out
    before a worker picks them up are dropped unexecuted.  With none of
    these set, submission is unbounded (the legacy behavior).

    Nothing is retried, under any engine: an exception inside one query --
    a query error (bad syntax, cancellation) or an infrastructure fault --
    becomes that query's ``error`` (``"<type name>: <message>"``), and the
    pool goes on serving the next one.

    Every in-flight query carries a cancellation token;
    ``shutdown(cancel=True)`` cancels them all, so draining the pool waits
    one kernel batch, not one query.

    Usable as a context manager::

        with ConcurrentExecutor(service, max_workers=8) as executor:
            outcomes = executor.run_all(requests)
    """

    def __init__(
        self,
        service,
        max_workers: int = 8,
        deadline_seconds: Optional[float] = None,
        engine: Optional[str] = None,
        max_queue_depth: Optional[int] = None,
        queue_timeout_seconds: Optional[float] = None,
        per_client_limit: Optional[int] = None,
        admission: Optional[AdmissionController] = None,
    ):
        if max_workers < 1:
            raise GOptError("max_workers must be >= 1")
        self._service = service
        # resolved once; every query's session runs under this one value
        self._options = service.backend.options.override(engine=engine)
        if deadline_seconds is not None:
            self._options = self._options.override(timeout_seconds=deadline_seconds)
        self._admission = AdmissionController.for_front_end(
            admission, max_workers, max_queue_depth, queue_timeout_seconds,
            per_client_limit)
        self._active = InFlightTokens()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve")

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The executor's admission controller (``None`` when unbounded)."""
        return self._admission

    def admission_stats(self) -> Optional[AdmissionStats]:
        """Admission decisions so far (``None`` when admission is disabled)."""
        if self._admission is None:
            return None
        return self._admission.stats()

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        query: Union[str, QueryRequest],
        language: str = "cypher",
        parameters: Optional[Dict[str, object]] = None,
        client: Optional[str] = None,
    ) -> "Future[QueryOutcome]":
        """Schedule one query; returns a future resolving to its outcome.

        When admission control is configured and the bounded queue is full
        (or the client over quota), raises
        :class:`~repro.errors.ServiceOverloadedError` *here*, on the
        submitting thread -- the rejected request costs the service nothing.
        """
        request = (query if isinstance(query, QueryRequest)
                   else QueryRequest(query, language, parameters, client))
        ticket: Optional[AdmissionTicket] = None
        if self._admission is not None:
            ticket = self._admission.admit(request.client)
        try:
            return self._pool.submit(self._serve_one, request, ticket)
        except BaseException:
            if ticket is not None:
                self._admission.finish(ticket)
            raise

    def run_all(self, requests: Sequence[Union[str, QueryRequest]]) -> List[QueryOutcome]:
        """Run a workload to completion, preserving request order.

        Submissions fast-rejected by admission control are retried after the
        rejection's ``retry_after_seconds`` hint (bounded attempts); a
        request still refused after that reports the overload as its
        outcome instead of raising.
        """
        futures = [self._submit_patiently(request) for request in requests]
        return [future.result() for future in futures]

    def _submit_patiently(
        self, query: Union[str, QueryRequest],
    ) -> "Future[QueryOutcome]":
        last: Optional[ServiceOverloadedError] = None
        for _ in range(_RUN_ALL_ADMISSION_ATTEMPTS):
            try:
                return self.submit(query)
            except ServiceOverloadedError as exc:
                last = exc
                time.sleep(exc.retry_after_seconds)
        request = (query if isinstance(query, QueryRequest)
                   else QueryRequest(query))
        future: "Future[QueryOutcome]" = Future()
        future.set_result(QueryOutcome(
            request=request,
            error="ServiceOverloadedError: %s" % (last,),
            retry_after_seconds=last.retry_after_seconds))
        return future

    # -- worker ------------------------------------------------------------------
    def _serve_one(
        self,
        request: QueryRequest,
        ticket: Optional[AdmissionTicket] = None,
    ) -> QueryOutcome:
        try:
            if ticket is not None:
                try:
                    self._admission.begin(ticket)
                except ServiceOverloadedError as exc:
                    return QueryOutcome(
                        request=request,
                        error="ServiceOverloadedError: %s" % (exc,),
                        retry_after_seconds=exc.retry_after_seconds)
            return self._execute(request)
        finally:
            if ticket is not None:
                self._admission.finish(ticket)

    def _execute(self, request: QueryRequest) -> QueryOutcome:
        with self._active.track() as token:
            try:
                fault_point("service.execute", client=request.client)
                with Session(self._service, self._options) as session:
                    cursor = session.run(request.query, request.language,
                                         request.parameters, cancel_token=token)
                    rows = cursor.fetch_all()
                    return QueryOutcome(request=request, rows=rows,
                                        metrics=cursor.consume())
            except Exception as exc:  # noqa: BLE001 - per-query fault isolation
                return QueryOutcome(request=request,
                                    error="%s: %s" % (type(exc).__name__, exc))

    # -- lifecycle ---------------------------------------------------------------
    def cancel_all(self, reason: str = "executor shutdown") -> int:
        """Cancel every in-flight query; returns how many tokens were signalled.

        Each running execution unwinds cooperatively at its next
        kernel-batch checkpoint and reports ``CancelledError`` as its
        outcome's error.
        """
        return self._active.cancel_all(reason)

    def shutdown(self, wait: bool = True, cancel: bool = False) -> None:
        """Stop accepting work and (optionally) cancel in-flight queries.

        With ``cancel=True``, queued-but-unstarted requests are dropped and
        running executions are cancelled cooperatively, so ``wait=True``
        returns within about one kernel batch instead of one query.
        """
        if cancel:
            self.cancel_all("service shutdown")
            self._pool.shutdown(wait=wait, cancel_futures=True)
            return
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ConcurrentExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
