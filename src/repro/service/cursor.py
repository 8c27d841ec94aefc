"""ResultCursor: lazy, bounded-memory consumption of query results."""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.backend.base import ExecutionMetrics, StreamingResult
from repro.errors import GOptError
from repro.optimizer.planner import OptimizationReport


class ResultCursor:
    """An iterator over the rows of one query execution.

    Rows are produced on demand from the backend's streaming execution, so a
    consumer that stops early (``break``, :meth:`close`, :meth:`consume`)
    never pays -- in time, memory or work counters -- for rows it does not
    pull.  Pipeline breakers (joins, aggregations, top-k sorts) execute
    incrementally rather than materializing their subtrees, so even
    breaker-heavy queries stream in bounded memory
    (:attr:`peak_held_rows`).

    Typical use::

        with session.run("MATCH (p:Person) RETURN p.name AS n") as cursor:
            for row in cursor:           # or cursor.fetch_many(100)
                handle(row)
        metrics = cursor.consume()        # work/time actually performed
    """

    def __init__(
        self,
        stream: StreamingResult,
        report: Optional[OptimizationReport] = None,
    ):
        self._report = report
        self._closed = False
        self._close_lock = threading.Lock()
        self._stream = stream

    # -- iteration --------------------------------------------------------------
    def __iter__(self) -> "ResultCursor":
        return self

    def __next__(self) -> Dict[str, object]:
        if self._closed:
            raise StopIteration
        return next(self._stream)

    def fetch_one(self) -> Optional[Dict[str, object]]:
        """The next row, or ``None`` when the result is exhausted."""
        try:
            return next(self)
        except StopIteration:
            return None

    def fetch_many(self, count: int) -> List[Dict[str, object]]:
        """Up to ``count`` further rows (fewer only at the end of the result)."""
        if count < 0:
            raise GOptError("fetch_many expects a non-negative count")
        rows: List[Dict[str, object]] = []
        while len(rows) < count:
            row = self.fetch_one()
            if row is None:
                break
            rows.append(row)
        return rows

    def fetch_all(self) -> List[Dict[str, object]]:
        """All remaining rows (materializes the rest of the stream)."""
        return list(self)

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Stop the execution early; unpulled rows are never produced.

        Idempotent, and safe to call from another thread while a fetch is in
        flight: the closed flag flips exactly once under a lock, and the
        underlying stream's cancellation token unwinds an in-flight pull at
        its next kernel-batch checkpoint (the concurrent fetch observes
        ``StopIteration``, never a torn row).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._stream.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (the serving layer's
        lifecycle tests key on this)."""
        return self._closed

    def consume(self) -> ExecutionMetrics:
        """Discard any remaining rows and return the execution's metrics.

        The metrics reflect only the work actually performed up to this
        point -- an early ``consume()`` after a few
        ``fetch_many`` calls reports the cost of those rows, not of the full
        result set.
        """
        self.close()
        return self.metrics()

    def metrics(self) -> ExecutionMetrics:
        """Work/time measurements of the execution so far (without closing)."""
        return self._stream.metrics()

    @property
    def exchange_stats(self) -> Optional[Dict[str, int]]:
        """Observed exchange traffic (dataflow engine; ``None`` otherwise).

        Rows that physically moved between partitions, by exchange kind
        (``shuffled`` / ``local`` / ``relocated`` / ``broadcast`` /
        ``gathered``) -- the measured counterpart of the simulated
        ``tuples_shuffled`` work counter.
        """
        return self._stream.exchange_stats

    @property
    def worker_busy(self) -> Optional[List[float]]:
        """Per-worker busy CPU seconds (dataflow engine; ``None`` otherwise)."""
        return self._stream.worker_busy

    @property
    def peak_held_rows(self) -> int:
        """Most rows any pipeline breaker buffered at once.

        Top-k sorts hold at most ``k`` rows, hash joins their left (build)
        input while the right side streams, aggregations one entry per
        group -- this is the observable bound on the cursor's memory
        footprint beyond plain row delivery.
        """
        return self._stream.peak_held_rows

    # -- metadata ---------------------------------------------------------------
    @property
    def report(self) -> Optional[OptimizationReport]:
        """The optimizer's report for this query (``None`` for raw plans)."""
        return self._report

    @property
    def timed_out(self) -> bool:
        """Whether the execution hit its time/intermediate budget."""
        return self._stream.timed_out

    @property
    def backend(self) -> str:
        return self._stream.backend

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
