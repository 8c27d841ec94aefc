"""Backend base class, execution results and the result cursor."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.backend.runtime.binding import ERef, PRef, VRef
from repro.backend.runtime.context import (
    ENGINES,
    CancellationToken,
    ExecutionContext,
    ExecutionOptions,
)
from repro.backend.runtime.dataflow import stream_dataflow_rows
from repro.backend.runtime.streaming import stream_result_rows
from repro.errors import CancelledError, ExecutionTimeout, GOptError
from repro.graph.partition import GraphPartitioner
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.physical_plan import PhysicalPlan
from repro.optimizer.physical_spec import BackendProfile

@dataclass
class ExecutionMetrics:
    """Work and time measurements of one plan execution."""

    elapsed_seconds: float
    intermediate_results: int
    edges_traversed: int
    vertices_scanned: int
    tuples_shuffled: int
    operators_executed: int
    cells_produced: int = 0
    timed_out: bool = False

    @property
    def total_work(self) -> int:
        """Scalar proxy for execution effort used when comparing plans."""
        return (self.intermediate_results + self.edges_traversed
                + self.tuples_shuffled + self.cells_produced)

    def as_dict(self) -> Dict[str, float]:
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "intermediate_results": self.intermediate_results,
            "edges_traversed": self.edges_traversed,
            "vertices_scanned": self.vertices_scanned,
            "tuples_shuffled": self.tuples_shuffled,
            "operators_executed": self.operators_executed,
            "cells_produced": self.cells_produced,
            "timed_out": self.timed_out,
        }


@dataclass
class ExecutionResult:
    """Rows plus metrics for one executed plan."""

    rows: List[dict]
    metrics: ExecutionMetrics
    backend: str = ""
    #: observed exchange traffic (dataflow engine only): rows shuffled /
    #: kept local / relocated / gathered between partitions
    exchange_stats: Optional[Dict[str, int]] = None

    @property
    def timed_out(self) -> bool:
        return self.metrics.timed_out

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def tuples(self, columns: Sequence[str]) -> List[tuple]:
        return [tuple(row.get(col) for col in columns) for row in self.rows]


class ResultCursor:
    """The one handle on a plan execution: an iterator of rows plus metrics.

    Returned by :meth:`Backend.execute_streaming` (and so by
    ``Session.run``, which only attaches the optimizer's :attr:`report`).
    Rows are produced on demand from the engine's row iterator, so a
    consumer that stops early (``break``, :meth:`close`, :meth:`consume`)
    never pays -- in time, memory or work counters -- for rows it does not
    pull.  Pipeline breakers (joins, aggregations, top-k sorts) execute
    incrementally rather than materializing their subtrees, so even
    breaker-heavy queries stream in bounded memory
    (:attr:`peak_held_rows`).  A budget overrun
    (:class:`~repro.errors.ExecutionTimeout`) ends the stream and flags
    ``timed_out`` instead of raising.

    Typical use::

        with session.run("MATCH (p:Person) RETURN p.name AS n") as cursor:
            for row in cursor:           # or cursor.fetch_many(100)
                handle(row)
        metrics = cursor.consume()        # work/time actually performed
    """

    def __init__(self, ctx: ExecutionContext, rows: Iterator[dict], backend: str = ""):
        self._ctx = ctx
        self._rows = rows
        self.backend = backend
        #: whether the execution hit its time/intermediate budget
        self.timed_out = False
        #: the optimizer's report for this query (``None`` for raw plans)
        self.report = None
        self._closed = False
        self._close_lock = threading.Lock()
        self._finished = False
        self._elapsed: Optional[float] = None

    # -- iteration --------------------------------------------------------------
    def __iter__(self) -> "ResultCursor":
        return self

    def __next__(self) -> Dict[str, object]:
        if self._closed or self._finished:
            raise StopIteration
        try:
            return next(self._rows)
        except StopIteration:
            self._finish()
            raise
        except ExecutionTimeout:
            self.timed_out = True
            self._finish()
            raise StopIteration from None
        except CancelledError:
            self._finish()
            if self._closed:
                # the consumer's own close() cancelled the token mid-pull:
                # the stream simply ends (they asked for it; nothing is lost)
                raise StopIteration from None
            # an *external* cancel (executor shutdown, timeout escalation):
            # a quiet end would present a truncated result as complete
            raise

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
        flight: the closed flag flips exactly once under a lock, the
        cancellation token unwinds whichever thread is inside the pipeline
        at its next kernel-batch checkpoint (the concurrent fetch observes
        ``StopIteration``, never a torn row), and a generator that is
        mid-``next`` on another thread (which refuses ``close()``) ends
        through that cooperative path instead.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._finished:
            return
        self._ctx.cancel_token.cancel("cursor closed")
        try:
            self._rows.close()
        except ValueError:
            # "generator already executing": another thread is mid-fetch;
            # the cancelled token stops it at the next checkpoint
            pass
        except RuntimeError:
            # generator.close() re-raising during interpreter edge cases --
            # the token has already made the outcome terminal
            pass
        self._finish()

    def _finish(self) -> None:
        self._finished = True
        if self._elapsed is None:
            self._elapsed = self._ctx.elapsed

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

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- measurements -----------------------------------------------------------
    @property
    def exchange_stats(self) -> Optional[Dict[str, int]]:
        """Observed exchange traffic (dataflow engine; ``None`` otherwise).

        Rows that physically moved between partitions, by exchange kind
        (``shuffled`` / ``local`` / ``relocated`` / ``gathered``) -- the
        measured counterpart of the simulated ``tuples_shuffled`` work
        counter.  A dataflow execution starts on the first pull, so this is
        ``None`` until then.
        """
        if self._ctx.exchange_stats is None:
            return None
        return self._ctx.exchange_stats.snapshot()

    @property
    def peak_held_rows(self) -> int:
        """High-water mark of rows buffered by streaming pipeline breakers.

        Top-k sorts hold at most ``k`` rows, hash joins their left (build)
        input while the right side streams, aggregations one entry per
        group -- the observable proof that e.g. ``ORDER BY .. LIMIT k``
        streams in bounded memory instead of materializing its input, and
        the bound on the cursor's memory footprint beyond plain row delivery.
        """
        return self._ctx.peak_held_rows

    def metrics(self) -> ExecutionMetrics:
        """Work and time measurements of the execution *so far* (without closing)."""
        counters = self._ctx.counters
        elapsed = self._elapsed if self._elapsed is not None else self._ctx.elapsed
        return ExecutionMetrics(
            elapsed_seconds=elapsed,
            intermediate_results=counters.intermediate_results,
            edges_traversed=counters.edges_traversed,
            vertices_scanned=counters.vertices_scanned,
            tuples_shuffled=counters.tuples_shuffled,
            operators_executed=counters.operators_executed,
            cells_produced=counters.cells_produced,
            timed_out=self.timed_out,
        )


def available_engines() -> tuple:
    """The execution engines every backend can interpret plans with."""
    return ENGINES


class Backend:
    """Common machinery for the simulated execution backends.

    Every backend can interpret physical plans with any of three engines:

    * ``"row"`` -- the pull pipeline of
      :mod:`repro.backend.runtime.streaming` at one dict row per batch;
    * ``"vectorized"`` -- the same pipeline, moving the same dict rows in
      lists of up to ``batch_size`` rows;
    * ``"dataflow"`` -- the partition-parallel runtime
      (:mod:`repro.backend.runtime.dataflow`): per-partition pipelines over
      the graph partitioner's shards (one partition without a
      partitioner), connected by exchange operators and run on the
      caller's thread.

    All three fail alike: a budget overrun flags ``timed_out``, a cancel
    raises ``CancelledError``, and any other exception -- a query error or
    an infrastructure fault -- reaches the caller unchanged.  Nothing is
    retried or re-executed on another engine.

    Every execution is a stream (:meth:`execute_streaming`);
    :meth:`execute` drains one.  All engines produce identical rows in
    identical order, and on a full drain ``row`` and ``vectorized`` charge
    the work counters identically (enforced by the differential test
    suite); a consumer or a bare ``LIMIT`` that stops early pays per batch,
    so ``vectorized`` may have charged up to a batch more per operator than
    ``row``.  ``dataflow`` matches them too, except under a bare ``LIMIT``:
    it gathers its partitions before the driver-side ``Limit``, so it may
    charge more.
    """

    name = "backend"

    def __init__(
        self,
        graph: PropertyGraph,
        max_intermediate_results: Optional[int] = 2_000_000,
        timeout_seconds: Optional[float] = 60.0,
        engine: str = "row",
        batch_size: int = 1024,
    ):
        self.graph = graph
        #: the defaults every execution runs under unless overridden per
        #: session / per call; immutable, so concurrent sessions never race
        self.options = ExecutionOptions(
            engine=engine, timeout_seconds=timeout_seconds,
            max_intermediate_results=max_intermediate_results,
            batch_size=batch_size)

    # subclasses override to provide a partitioner (distributed backends)
    def _partitioner(self) -> Optional[GraphPartitioner]:
        return None

    def profile(self) -> BackendProfile:
        """The PhysicalSpec profile this backend registers with the optimizer."""
        raise NotImplementedError

    def _make_context(
        self,
        options: ExecutionOptions,
        parameters: Optional[Dict[str, object]] = None,
        cancel_token: Optional[CancellationToken] = None,
    ) -> ExecutionContext:
        """A fresh execution context running under ``options``.

        ``cancel_token`` lets a caller hold the cancellation handle of this
        one execution (the admission layer cancels in-flight queries on
        shutdown through it).
        """
        return ExecutionContext(
            self.graph,
            partitioner=self._partitioner(),
            options=options,
            parameters=parameters,
            cancel_token=cancel_token,
        )

    def execute(
        self,
        plan: PhysicalPlan,
        parameters: Optional[Dict[str, object]] = None,
        cancel_token: Optional[CancellationToken] = None,
        **overrides,
    ) -> ExecutionResult:
        """Interpret a physical plan to completion: a drained
        :meth:`execute_streaming` (same arguments).

        Plans exceeding the budget return an empty result flagged
        ``timed_out`` (the harness reports them as OT, like the paper).  The
        work counters are those of the rows actually pulled, so a plan
        ending in a bare ``LIMIT`` charges only the prefix it needed.
        """
        stream = self.execute_streaming(plan, parameters, cancel_token, **overrides)
        rows = list(stream)
        return ExecutionResult(
            rows=[] if stream.timed_out else rows, metrics=stream.metrics(),
            backend=self.name, exchange_stats=stream.exchange_stats,
        )

    def execute_streaming(
        self,
        plan: PhysicalPlan,
        parameters: Optional[Dict[str, object]] = None,
        cancel_token: Optional[CancellationToken] = None,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> ResultCursor:
        """Begin a lazy plan execution, returning its :class:`ResultCursor`.

        The execution runs under ``options`` (the session layer passes the
        value it resolved at construction; default: this backend's own),
        with ``overrides`` -- the keywords of
        :meth:`ExecutionOptions.override`: ``engine``, ``timeout_seconds``,
        ``max_intermediate_results``, ``batch_size`` -- applied
        for this one execution (used by the differential tests and
        benchmarks).  Nothing shared is mutated either way.  ``parameters``
        binds values for deferred ``$param`` placeholders in prepared plans.

        Rows are produced on demand by the serial pipeline
        (:mod:`repro.backend.runtime.streaming`): a consumer that stops early
        (``LIMIT``, cursor close) pays for at most one batch per operator
        beyond the rows it pulled (one row under ``row``).
        Pipeline breakers execute incrementally -- hash joins stream their
        probe side, aggregations fold into group state, ``ORDER BY .. LIMIT``
        keeps a bounded top-k heap -- so no operator materializes more than
        it must (see :attr:`ResultCursor.peak_held_rows`).  Work counters
        and the time/intermediate budget are enforced incrementally as rows
        are pulled.  The dataflow engine also starts on the first pull, but
        that pull runs its partition pipelines to the final gather before
        the first row is known; a close from another thread cancels it at
        its next checkpoint.  Under every engine, an exception raised
        inside the execution reaches the consumer on the pull that hit it.
        """
        options = (options or self.options).override(**overrides)
        ctx = self._make_context(options, parameters, cancel_token)
        if options.engine == "dataflow":
            source = stream_dataflow_rows(plan.root, ctx)
        else:
            source = stream_result_rows(plan.root, ctx)
        return ResultCursor(ctx, source, backend=self.name)

    # -- convenience helpers for presenting results ----------------------------------
    def render_value(self, value):
        """Human-friendly rendering of a binding value (for examples/CLI output)."""
        if isinstance(value, VRef):
            vertex = self.graph.vertex(value.id)
            return "%s(%s)" % (vertex.type, vertex.properties.get("name", vertex.id))
        if isinstance(value, ERef):
            return "%s#%d" % (self.graph.edge_label(value.id), value.id)
        if isinstance(value, PRef):
            return "path(len=%d)" % value.length
        return value

    def render_rows(self, result: ExecutionResult, limit: int = 10) -> List[dict]:
        rendered = []
        for row in result.rows[:limit]:
            rendered.append({tag: self.render_value(value) for tag, value in row.items()})
        return rendered
