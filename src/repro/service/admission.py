"""Admission control: bounded queueing, client quotas, fast rejection.

A saturated worker pool must not queue unboundedly -- that trades an honest
"try again later" now for timeouts and memory pressure everywhere later.
:class:`AdmissionController` implements the standard production discipline
in front of :class:`~repro.service.ConcurrentExecutor`:

* a **bounded admission queue**: at most ``max_concurrent`` queries run while
  ``max_queue_depth`` more wait; anything beyond is rejected immediately
  with :class:`~repro.errors.ServiceOverloadedError` carrying a
  ``retry_after_seconds`` hint derived from the observed service rate;
* **per-client quotas**: one client (session, tenant) can hold at most
  ``per_client_limit`` admitted queries, so a single aggressive client
  cannot starve the pool;
* **queue-time deadlines**: a request that waited longer than
  ``queue_timeout_seconds`` before a worker picked it up is dropped without
  executing -- its results would likely be too late to matter, and the
  worker is better spent on fresher work.

The controller is thread-safe and shareable: several executors serving one
``GraphService`` can enforce one global admission policy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import GOptError, ServiceOverloadedError

#: smoothing factor of the service-latency EWMA behind the retry-after hint
_EWMA_ALPHA = 0.2

#: floor for retry-after hints; sub-50ms advice is noise
_MIN_RETRY_AFTER = 0.05


@dataclass
class AdmissionTicket:
    """One admitted request's handle through the queue and its execution."""

    client: Optional[str]
    admitted_at: float
    started_at: Optional[float] = None
    finished: bool = False


@dataclass(frozen=True)
class AdmissionStats:
    """Counters describing the controller's decisions so far."""

    admitted: int
    rejected: int
    expired: int
    completed: int
    in_flight: int
    running: int

    @property
    def queued(self) -> int:
        return self.in_flight - self.running

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready form for the ``/metrics`` endpoint and dashboards.

        Includes the derived ``queued`` gauge so consumers never recompute
        it from ``in_flight``/``running``.
        """
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "expired": self.expired,
            "completed": self.completed,
            "in_flight": self.in_flight,
            "running": self.running,
            "queued": self.queued,
        }


class AdmissionController:
    """Thread-safe admission state shared by the serving layer.

    Args:
        max_concurrent: how many admitted queries may be *running* at once
            (normally the executor's worker count).
        max_queue_depth: how many more may *wait*; ``None`` means unbounded
            (no fast rejection -- the legacy behavior).
        queue_timeout_seconds: longest a request may wait in the queue
            before it is dropped unexecuted (``None`` disables).
        per_client_limit: max admitted (queued + running) queries per
            client id (``None`` disables quotas).
    """

    def __init__(
        self,
        max_concurrent: int,
        max_queue_depth: Optional[int] = None,
        queue_timeout_seconds: Optional[float] = None,
        per_client_limit: Optional[int] = None,
    ):
        if max_concurrent < 1:
            raise GOptError("max_concurrent must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise GOptError("max_queue_depth must be >= 0")
        if per_client_limit is not None and per_client_limit < 1:
            raise GOptError("per_client_limit must be >= 1")
        self.max_concurrent = max_concurrent
        self.max_queue_depth = max_queue_depth
        self.queue_timeout_seconds = queue_timeout_seconds
        self.per_client_limit = per_client_limit
        self._lock = threading.Lock()
        self._in_flight = 0
        self._running = 0
        self._per_client: Dict[str, int] = {}
        self._admitted = 0
        self._rejected = 0
        self._expired = 0
        self._completed = 0
        # EWMA of observed execution latency, seeding the retry-after hint
        self._latency_ewma = 0.1

    @classmethod
    def for_front_end(
        cls,
        admission: Optional["AdmissionController"],
        max_concurrent: int,
        max_queue_depth: Optional[int],
        queue_timeout_seconds: Optional[float],
        per_client_limit: Optional[int],
    ) -> Optional["AdmissionController"]:
        """The controller a serving front end (executor, HTTP app) runs under.

        A given (possibly shared) ``admission`` wins; otherwise one is built
        when any of the three limits is set; with none set the front end is
        unbounded and this returns ``None``.
        """
        if admission is not None:
            return admission
        if (max_queue_depth is None and queue_timeout_seconds is None
                and per_client_limit is None):
            return None
        return cls(max_concurrent, max_queue_depth, queue_timeout_seconds,
                   per_client_limit)

    # -- the admission decision -------------------------------------------------
    def admit(self, client: Optional[str] = None) -> AdmissionTicket:
        """Admit one request or fast-reject with a retry-after hint.

        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        bounded queue is full or the client is over quota.  Admission is
        decided on the *submitting* thread, so a rejected client pays
        nothing but this call.
        """
        now = time.perf_counter()
        with self._lock:
            capacity = (None if self.max_queue_depth is None
                        else self.max_concurrent + self.max_queue_depth)
            if capacity is not None and self._in_flight >= capacity:
                self._rejected += 1
                raise ServiceOverloadedError(
                    "admission queue full (%d in flight, capacity %d)"
                    % (self._in_flight, capacity),
                    retry_after_seconds=self._retry_after_locked())
            if (self.per_client_limit is not None and client is not None
                    and self._per_client.get(client, 0) >= self.per_client_limit):
                self._rejected += 1
                raise ServiceOverloadedError(
                    "client %r exceeded its quota of %d concurrent queries"
                    % (client, self.per_client_limit),
                    retry_after_seconds=self._retry_after_locked())
            self._in_flight += 1
            self._admitted += 1
            if client is not None:
                self._per_client[client] = self._per_client.get(client, 0) + 1
            return AdmissionTicket(client=client, admitted_at=now)

    def begin(self, ticket: AdmissionTicket) -> None:
        """A worker picked the request up; enforce its queue-time deadline.

        Raises :class:`~repro.errors.ServiceOverloadedError` (after
        releasing the ticket) when the request aged out in the queue --
        executing it anyway would serve an answer nobody is waiting for
        while fresher requests starve.
        """
        now = time.perf_counter()
        waited = now - ticket.admitted_at
        if (self.queue_timeout_seconds is not None
                and waited > self.queue_timeout_seconds):
            with self._lock:
                self._expired += 1
            self.finish(ticket)
            raise ServiceOverloadedError(
                "request expired after %.3fs in the admission queue "
                "(deadline %.3fs)" % (waited, self.queue_timeout_seconds),
                retry_after_seconds=self.retry_after())
        ticket.started_at = now
        with self._lock:
            self._running += 1

    def finish(self, ticket: AdmissionTicket) -> None:
        """Release the ticket's slot (idempotent) and record its latency."""
        with self._lock:
            if ticket.finished:
                return
            ticket.finished = True
            self._in_flight -= 1
            self._completed += 1
            if ticket.started_at is not None:
                self._running -= 1
                latency = time.perf_counter() - ticket.started_at
                self._latency_ewma += _EWMA_ALPHA * (latency - self._latency_ewma)
            if ticket.client is not None:
                remaining = self._per_client.get(ticket.client, 1) - 1
                if remaining <= 0:
                    self._per_client.pop(ticket.client, None)
                else:
                    self._per_client[ticket.client] = remaining

    # -- observability ----------------------------------------------------------
    def _retry_after_locked(self) -> float:
        queued = max(0, self._in_flight - self.max_concurrent)
        estimate = (queued + 1) * self._latency_ewma / self.max_concurrent
        return max(_MIN_RETRY_AFTER, estimate)

    def retry_after(self) -> float:
        """The current backoff hint: expected time until a slot frees up."""
        with self._lock:
            return self._retry_after_locked()

    def stats(self) -> AdmissionStats:
        with self._lock:
            return AdmissionStats(
                admitted=self._admitted,
                rejected=self._rejected,
                expired=self._expired,
                completed=self._completed,
                in_flight=self._in_flight,
                running=self._running,
            )
