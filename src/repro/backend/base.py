"""Backend base class, execution results and the streaming execution handle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.backend.runtime.binding import ERef, PRef, VRef
from repro.backend.runtime.context import CancellationToken, ExecutionContext
from repro.backend.runtime.dataflow import open_dataflow_stream
from repro.backend.runtime.streaming import stream_result_rows
from repro.errors import CancelledError, ExecutionTimeout, GOptError
from repro.graph.partition import GraphPartitioner
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.physical_plan import PhysicalPlan
from repro.optimizer.physical_spec import BackendProfile

#: sentinel distinguishing "not overridden" from an explicit ``None`` override
#: (``None`` is a meaningful value for the time and intermediate budgets)
_UNSET = object()


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
    #: True when a dataflow worker failure was contained by re-executing the
    #: plan on the single-threaded row engine; the counters then describe
    #: the (serial) recovery execution, not the failed parallel attempt
    degraded: bool = False
    #: human-readable root cause of the degradation (None when not degraded)
    degraded_reason: Optional[str] = None

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
            "degraded": self.degraded,
        }


@dataclass
class ExecutionResult:
    """Rows plus metrics for one executed plan."""

    rows: List[dict]
    metrics: ExecutionMetrics
    backend: str = ""
    #: observed exchange traffic (dataflow engine only): rows shuffled /
    #: relocated / broadcast / gathered between partitions
    exchange_stats: Optional[Dict[str, int]] = None
    #: per-worker busy time in CPU seconds (dataflow engine only)
    worker_busy: Optional[List[float]] = None

    @property
    def timed_out(self) -> bool:
        return self.metrics.timed_out

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def tuples(self, columns: Sequence[str]) -> List[tuple]:
        return [tuple(row.get(col) for col in columns) for row in self.rows]


class StreamingResult:
    """A lazily produced plan execution: an iterator of rows plus metrics.

    Wraps an engine's row iterator together with its execution context.
    Iteration pulls rows on demand; :meth:`close` stops the execution early
    (upstream operators never produce the remainder); :meth:`metrics` reports
    the work actually performed so far.  A budget overrun
    (:class:`~repro.errors.ExecutionTimeout`) ends the stream and flags
    ``timed_out`` instead of raising.
    """

    def __init__(self, ctx: ExecutionContext, rows: Iterator[dict], backend: str = ""):
        self._ctx = ctx
        self._rows = rows
        self.backend = backend
        self.timed_out = False
        self._close_requested = False
        self._finished = False
        self._elapsed: Optional[float] = None

    def __iter__(self) -> "StreamingResult":
        return self

    def __next__(self) -> dict:
        if self._finished:
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
            if self._close_requested:
                # the consumer's own close() cancelled the token mid-pull:
                # the stream simply ends (they asked for it; nothing is lost)
                raise StopIteration from None
            # an *external* cancel (executor shutdown, timeout escalation):
            # a quiet end would present a truncated result as complete
            raise

    def close(self) -> None:
        """Stop the execution; rows not yet pulled are never produced.

        Idempotent and safe to call concurrently with an in-flight fetch:
        the cancellation token unwinds whichever thread is inside the
        pipeline at its next kernel-batch checkpoint, and a generator that
        is mid-``next`` on another thread (which refuses ``close()``) ends
        through that cooperative path instead.
        """
        if self._finished:
            return
        self._close_requested = True
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
    def exhausted(self) -> bool:
        return self._finished

    @property
    def exchange_stats(self) -> Optional[Dict[str, int]]:
        """Observed exchange traffic so far (dataflow engine only)."""
        if self._ctx.exchange_stats is None:
            return None
        return self._ctx.exchange_stats.snapshot()

    @property
    def worker_busy(self) -> Optional[List[float]]:
        """Per-worker busy CPU seconds (dataflow engine only)."""
        return self._ctx.worker_busy

    @property
    def peak_held_rows(self) -> int:
        """High-water mark of rows buffered by streaming pipeline breakers.

        Incremental breaker states (top-k heaps, hash-join build sides,
        aggregation groups) report how many rows they held at their peak --
        the observable proof that e.g. ``ORDER BY .. LIMIT k`` streams in
        bounded memory instead of materializing its input.
        """
        return self._ctx.peak_held_rows

    def metrics(self) -> ExecutionMetrics:
        """Work and time measurements of the execution *so far*."""
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
            degraded=self._ctx.degraded is not None,
            degraded_reason=self._ctx.degraded,
        )


#: execution engines understood by every backend
ENGINES = ("row", "vectorized", "dataflow")


def available_engines() -> tuple:
    """The execution engines every backend can interpret plans with."""
    return ENGINES


def validate_engine(engine: str) -> str:
    """Validate an engine name, raising a helpful error listing the options.

    The single validation point for every layer that accepts an ``engine=``
    string (backends, sessions, the ``GOpt`` facade), so a typo fails fast
    with the list of valid engines instead of deep inside dispatch.
    """
    if engine not in ENGINES:
        raise GOptError("unknown engine %r (expected one of %s)"
                        % (engine, list(ENGINES)))
    return engine


class Backend:
    """Common machinery for the simulated execution backends.

    Every backend can interpret physical plans with any of three engines:

    * ``"row"`` -- the tuple-at-a-time pull pipeline of
      :mod:`repro.backend.runtime.streaming`;
    * ``"vectorized"`` -- the same module's columnar pipeline, moving
      binding tables as column batches of ``batch_size`` rows;
    * ``"dataflow"`` -- the partition-parallel runtime
      (:mod:`repro.backend.runtime.dataflow`): per-partition pipelines over
      the graph partitioner's shards, connected by exchange operators and
      executed by ``workers`` threads.

    Every execution is a stream (:meth:`execute_streaming`);
    :meth:`execute` drains one.  All engines produce identical rows in
    identical order, and ``row`` and ``vectorized`` charge the work counters
    identically (enforced by the differential test suite).  ``dataflow``
    matches them too, except under a bare ``LIMIT``: it gathers its
    partitions before the driver-side ``Limit``, so it may charge more.
    """

    name = "backend"

    def __init__(
        self,
        graph: PropertyGraph,
        max_intermediate_results: Optional[int] = 2_000_000,
        timeout_seconds: Optional[float] = 60.0,
        engine: str = "row",
        batch_size: int = 1024,
        workers: int = 4,
        fallback_on_fault: bool = True,
    ):
        validate_engine(engine)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.graph = graph
        self.max_intermediate_results = max_intermediate_results
        self.timeout_seconds = timeout_seconds
        self.engine = engine
        self.batch_size = batch_size
        self.workers = workers
        # infrastructure faults inside the dataflow engine degrade to a
        # serial row-engine re-execution (``ExecutionMetrics.degraded``)
        # instead of failing the query; set False to surface the typed
        # ``WorkerFailure`` to the caller
        self.fallback_on_fault = fallback_on_fault

    # subclasses override to provide a partitioner (distributed backends)
    def _partitioner(self) -> Optional[GraphPartitioner]:
        return None

    def profile(self) -> BackendProfile:
        """The PhysicalSpec profile this backend registers with the optimizer."""
        raise NotImplementedError

    def _resolve_engine(self, engine: Optional[str]) -> str:
        return validate_engine(engine or self.engine)

    def _make_context(
        self,
        parameters: Optional[Dict[str, object]] = None,
        timeout_seconds=_UNSET,
        max_intermediate_results=_UNSET,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        cancel_token: Optional[CancellationToken] = None,
    ) -> ExecutionContext:
        """A fresh execution context, applying per-call budget overrides.

        The overrides exist for the session layer: sessions of one shared
        backend run with their own engine/timeout/budget/batch size/worker
        count without mutating the backend (which would race under
        concurrent serving).  ``cancel_token`` lets a caller hold the
        cancellation handle of this one execution (the admission layer
        cancels in-flight queries on shutdown through it).
        """
        return ExecutionContext(
            self.graph,
            partitioner=self._partitioner(),
            max_intermediate_results=(self.max_intermediate_results
                                      if max_intermediate_results is _UNSET
                                      else max_intermediate_results),
            timeout_seconds=(self.timeout_seconds if timeout_seconds is _UNSET
                             else timeout_seconds),
            batch_size=batch_size if batch_size is not None else self.batch_size,
            parameters=parameters,
            workers=workers if workers is not None else self.workers,
            cancel_token=cancel_token,
        )

    def execute(
        self,
        plan: PhysicalPlan,
        engine: Optional[str] = None,
        parameters: Optional[Dict[str, object]] = None,
        timeout_seconds=_UNSET,
        max_intermediate_results=_UNSET,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        cancel_token: Optional[CancellationToken] = None,
    ) -> ExecutionResult:
        """Interpret a physical plan to completion: a drained
        :meth:`execute_streaming`.

        ``engine`` overrides the backend's configured engine for this one
        execution (used by the differential tests and benchmarks); the other
        keyword arguments override the corresponding backend budgets for this
        one execution without mutating shared backend state (used by the
        session layer).  ``parameters`` binds values for deferred ``$param``
        placeholders in prepared plans.  Plans exceeding the budget return an
        empty result flagged ``timed_out`` (the harness reports them as OT,
        like the paper).  The work counters are those of the rows actually
        pulled, so a plan ending in a bare ``LIMIT`` charges only the prefix
        it needed.
        """
        stream = self.execute_streaming(
            plan, engine, parameters, timeout_seconds, max_intermediate_results,
            batch_size, workers, cancel_token)
        rows = list(stream)
        return ExecutionResult(
            rows=[] if stream.timed_out else rows, metrics=stream.metrics(),
            backend=self.name, exchange_stats=stream.exchange_stats,
            worker_busy=stream.worker_busy,
        )

    def execute_streaming(
        self,
        plan: PhysicalPlan,
        engine: Optional[str] = None,
        parameters: Optional[Dict[str, object]] = None,
        timeout_seconds=_UNSET,
        max_intermediate_results=_UNSET,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        cancel_token: Optional[CancellationToken] = None,
    ) -> "StreamingResult":
        """Begin a lazy plan execution, returning a :class:`StreamingResult`.

        Rows are produced on demand by the serial pipelines
        (:mod:`repro.backend.runtime.streaming`): a consumer that stops early
        (``LIMIT``, cursor close) never pays for the rows it does not pull.
        Pipeline breakers execute incrementally -- hash joins stream their
        probe side, aggregations fold into group state, ``ORDER BY .. LIMIT``
        keeps a bounded top-k heap -- so no operator materializes more than
        it must (see :attr:`StreamingResult.peak_held_rows`).  Work counters
        and the time/intermediate budget are enforced incrementally as rows
        are pulled.  The dataflow engine instead starts
        its worker pipelines in the background immediately -- rows become
        available after the final gather, and an early close cancels the
        in-flight workers and drains their channels.  An infrastructure
        fault inside it (a worker crash -- not a query error) degrades to a
        serial row-engine re-execution when ``fallback_on_fault`` is set,
        flagged in ``metrics.degraded``.
        """
        engine = self._resolve_engine(engine)
        ctx = self._make_context(parameters, timeout_seconds,
                                 max_intermediate_results, batch_size, workers,
                                 cancel_token)
        if engine == "dataflow":
            source = open_dataflow_stream(plan.root, ctx,
                                          fallback=self.fallback_on_fault)
        else:
            source = stream_result_rows(plan.root, ctx, engine)
        return StreamingResult(ctx, source, backend=self.name)

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
