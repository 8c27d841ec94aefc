"""Partition-parallel dataflow execution of physical plans.

:class:`DataflowExecutor` interprets a physical plan the way a distributed
dataflow engine (GraphScope/Gaia) would, inside one process:

* the driver walks the operator tree, carving out the parallel segments
  compiled by :mod:`repro.backend.runtime.dataflow.plan`;
* each segment runs as per-partition pipelines over the
  :class:`~repro.graph.partition.GraphPartitioner` shards, connected by
  hash-shuffle / relocate exchanges over bounded morsel channels, executed
  by a pool of ``ctx.options.workers`` threads with a downstream-first scheduler
  (consumers drain before stalled producers retry, which makes the bounded
  channels deadlock-free with fewer threads than pipeline actors);
* pipeline breakers (Sort, Aggregate, HashJoin, Limit, Dedup, Union) run at
  the driver through the row pipeline's handlers over gathered rows, so
  their results -- and their simulated communication charges -- are
  identical to the row engine's.

Rows carry lineage tuples; the final gather merges all partitions' outputs
in lineage order, which reproduces the serial row engine's row order exactly
-- the differential suite holds the dataflow engine to the same rows and
work counters as the row and vectorized engines.  Communication observed at
priced exchanges is charged to the ``tuples_shuffled`` counter and must
reconcile with the simulated counts of the ``graphscope_like`` cost model
(see :mod:`repro.backend.runtime.dataflow.exchange`).

:func:`stream_dataflow_rows` is the engine's row stream: it runs the
executor on the consumer's first pull and contains an infrastructure fault
by the one recovery path, :func:`recover_on_row_engine`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.backend.runtime.binding import VRef
from repro.backend.runtime.context import ExecutionContext
from repro.backend.runtime.dataflow.channel import Channel, Pair
from repro.backend.runtime.dataflow.exchange import ExchangeStats
from repro.backend.runtime.dataflow.plan import (
    Pipeline,
    SegmentPlan,
    build_pipelines,
    extract_segment,
    plan_refcounts,
)
from repro.backend.runtime.dataflow.steps import charge_outputs
from repro.backend.runtime.kernels import registry
from repro.backend.runtime.kernels.common import Row, scan_candidates
from repro.backend.runtime.streaming import execute_operator
from repro.errors import ExecutionTimeout, GOptError, WorkerFailure
from repro.graph.partition import GraphPartitioner
from repro.optimizer.physical_plan import PhysicalOperator
from repro.testing.faults import fault_point

#: how long an idle worker sleeps before rescanning for runnable actors
_IDLE_SLEEP = 0.0005


class _CancelledError(Exception):
    """Internal: a peer worker failed, so this one unwinds too."""


class _SharedBudget:
    """Cumulative intermediate-result budget shared by all worker forks.

    Worker contexts charge here instead of enforcing their own budget, so the
    *global* total (driver charges so far + all workers) is what trips the
    limit -- the same cumulative semantics the serial engines enforce.
    """

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.base = 0
        self.worker_total = 0
        self._lock = threading.Lock()

    def rebase(self, driver_total: int) -> None:
        self.base = driver_total
        self.worker_total = 0

    def charge(self, count: int) -> None:
        with self._lock:
            self.worker_total += count
            total = self.base + self.worker_total
        if self.limit is not None and total > self.limit:
            raise ExecutionTimeout(
                "intermediate result budget exceeded (%d rows)" % total)


class _Actor:
    """One (pipeline stage, partition) of a running segment."""

    __slots__ = ("stage", "partition", "pipeline", "fork", "source_items",
                 "source_offset", "in_channel", "pending", "done", "claimed",
                 "runner")

    def __init__(self, runner: "_SegmentRunner", stage: int, partition: int,
                 pipeline: Pipeline, source_items: Optional[List] = None,
                 in_channel: Optional[Channel] = None):
        self.runner = runner
        self.stage = stage
        self.partition = partition
        self.pipeline = pipeline
        self.fork = runner.executor.ctx.fork(budget_hook=runner.executor.budget.charge)
        # kernels probe this wherever they would check the deadline, so a
        # cancellation lands mid-kernel instead of at the next morsel
        self.fork.cancel_check = runner.executor._check_cancelled
        # the shared kernels charge simulated shuffles inline; in a worker
        # the exchange charges the observed communication instead
        self.fork.simulate_shuffles = False
        self.source_items = source_items
        self.source_offset = 0
        self.in_channel = in_channel
        #: routed but not yet delivered output: deque of (dest_partition, morsel)
        self.pending: "deque[Tuple[int, List[Pair]]]" = deque()
        self.done = False
        self.claimed = False

    # -- scheduling ------------------------------------------------------------
    def runnable(self) -> bool:
        if self.done:
            return False
        if self.pending:
            return True
        if self.in_channel is not None:
            return len(self.in_channel) > 0 or self.in_channel.exhausted()
        return True  # list-sourced: always has input or can finish

    def _source_exhausted(self) -> bool:
        if self.in_channel is not None:
            return self.in_channel.exhausted()
        return self.source_offset >= len(self.source_items or [])

    def _next_chunk(self) -> Optional[List]:
        if self.in_channel is not None:
            return self.in_channel.try_get()
        items = self.source_items or []
        if self.source_offset >= len(items):
            return None
        chunk = items[self.source_offset:self.source_offset + self.runner.morsel_rows]
        self.source_offset += len(chunk)
        return chunk

    # -- execution -------------------------------------------------------------
    def quantum(self) -> None:
        """Process a bounded amount of input, honoring backpressure."""
        runner = self.runner
        self._flush()
        if self.pending:
            return  # downstream is full; let the scheduler drain it first
        for _ in range(4):
            if runner.executor.cancelled():
                return
            chunk = self._next_chunk()
            if chunk is None:
                break
            pairs = self._process(chunk)
            self._route(pairs)
            self._flush()
            if self.pending:
                return
        if self._source_exhausted() and not self.pending:
            self.done = True
            runner.stage_finished(self.stage)

    def _process(self, chunk: List) -> List[Pair]:
        data = chunk
        for spec in self.pipeline.steps:
            fault_point("worker.kernel", op=type(spec.op).__name__,
                        stage=self.stage, partition=self.partition)
            kernel = registry.kernel_for(registry.MODE_DATAFLOW, type(spec.op))
            data = kernel(spec.op, self.fork, data)
            charge_outputs(self.fork, data)
            if not data:
                break
        return data

    def _route(self, pairs: List[Pair]) -> None:
        if not pairs:
            return
        runner = self.runner
        exchange = self.pipeline.out_exchange
        fault_point("exchange.route", stage=self.stage, partition=self.partition,
                    priced=bool(exchange is not None and exchange.priced))
        if exchange is None:
            runner.deliver_output(self.partition, pairs)
            return
        partition_of = runner.partition_of
        groups: Dict[int, List[Pair]] = {}
        crossed = stayed = 0
        last_bundle = None
        for seq, row in pairs:
            value = row.get(exchange.tag)
            if isinstance(value, VRef):
                dest = partition_of(value.id)
                if exchange.coalesce_bundles:
                    bundle = (seq[:-1], value.id)
                    counted = bundle != last_bundle
                    last_bundle = bundle
                else:
                    counted = True
                if counted:
                    if dest != self.partition:
                        crossed += 1
                    else:
                        stayed += 1
            else:
                dest = self.partition
            groups.setdefault(dest, []).append((seq, row))
        stats = runner.executor.stats
        if exchange.priced:
            stats.record_shuffle(crossed, stayed)
            if runner.executor.ctx.partitioner is not None:
                self.fork.counters.tuples_shuffled += crossed
        else:
            stats.record_relocate(crossed)
        size = runner.morsel_rows
        for dest, dest_pairs in groups.items():
            for start in range(0, len(dest_pairs), size):
                self.pending.append((dest, dest_pairs[start:start + size]))

    def _flush(self) -> None:
        while self.pending:
            dest, morsel = self.pending[0]
            if not self.runner.channels[self.stage + 1][dest].try_put(morsel):
                return
            self.pending.popleft()


class _SegmentRunner:
    """Executes one compiled segment over the worker pool."""

    def __init__(self, executor: "DataflowExecutor", segment: SegmentPlan):
        self.executor = executor
        self.segment = segment
        self.morsel_rows = max(1, executor.ctx.batch_size)
        self.partition_of = executor.partition_of
        self.pipelines = build_pipelines(segment)
        num_partitions = executor.num_partitions
        # channels[s][p] feeds stage s of partition p (stage 0 is list-fed)
        self.channels: List[Optional[List[Channel]]] = [None]
        for _ in range(len(self.pipelines) - 1):
            self.channels.append([Channel() for _ in range(num_partitions)])
        self.channels.append(None)  # no channel past the final stage
        self._stage_remaining = [num_partitions] * len(self.pipelines)
        self._lock = threading.Lock()
        # final output: one buffer per partition (concatenated when gathering)
        self.output: List[List[Pair]] = [[] for _ in range(num_partitions)]
        self.actors: List[_Actor] = []

    # -- output / lifecycle ----------------------------------------------------
    def deliver_output(self, partition: int, pairs: List[Pair]) -> None:
        self.output[partition].extend(pairs)

    def stage_finished(self, stage: int) -> None:
        with self._lock:
            self._stage_remaining[stage] -= 1
            finished = self._stage_remaining[stage] == 0
        if finished and stage + 1 < len(self.pipelines):
            for channel in self.channels[stage + 1]:
                channel.close()

    def poison_all(self) -> None:
        """Kill every channel: when a worker failed, so peers unwind promptly,
        and after the run, so a cancelled segment frees its buffered morsels.

        Poisoned channels read as exhausted and swallow further puts, so no
        actor can block on -- or keep filling -- a queue whose segment is
        already doomed; partial morsels are discarded on the spot.
        """
        for stage_channels in self.channels:
            if stage_channels is None:
                continue
            for channel in stage_channels:
                channel.poison()

    # -- setup -----------------------------------------------------------------
    def build_actors(self, sources: List[List]) -> None:
        for stage, pipeline in enumerate(self.pipelines):
            for partition in range(self.executor.num_partitions):
                if stage == 0:
                    actor = _Actor(self, stage, partition, pipeline,
                                   source_items=sources[partition])
                else:
                    actor = _Actor(self, stage, partition, pipeline,
                                   in_channel=self.channels[stage][partition])
                self.actors.append(actor)
        # downstream-first claim order: draining consumers beats stalled
        # producers, the invariant that makes bounded channels deadlock-free
        self.actors.sort(key=lambda a: -a.stage)

    def merge_counters(self) -> None:
        ctx = self.executor.ctx
        for actor in self.actors:
            ctx.counters.merge(actor.fork.counters)


class DataflowExecutor:
    """Drives one physical-plan execution on the dataflow runtime."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx
        workers = ctx.options.workers
        if ctx.partitioner is not None:
            self._exec_partitioner = ctx.partitioner
        else:
            # single-machine backends still parallelize over worker shards,
            # but no simulated communication is charged (partitioner is None)
            self._exec_partitioner = GraphPartitioner(workers)
        self.num_partitions = self._exec_partitioner.num_partitions
        # the actor graph has (pipeline stages x partitions) runnable units,
        # so threads beyond the partition count still find work; honor the
        # requested worker count as-is (idle workers nap between scans)
        self.num_threads = workers
        self.stats = ExchangeStats()
        self.budget = _SharedBudget(ctx.max_intermediate_results)
        self.worker_busy = [0.0] * self.num_threads
        self._cancel = threading.Event()
        self._error: Optional[BaseException] = None
        self._error_worker = -1
        self._error_lock = threading.Lock()
        self.refcounts: Dict[int, int] = {}

    # -- public API ------------------------------------------------------------
    def run(self, root: PhysicalOperator) -> List[Row]:
        self.refcounts = plan_refcounts(root)
        # driver-side serial operators (Sort/Aggregate/HashJoin handlers)
        # probe cancellation on their deadline checks, so an early cursor
        # close interrupts them like a timeout would
        self.ctx.cancel_check = self._check_cancelled
        try:
            return self._node(root)
        except (GOptError, _CancelledError):
            raise
        except Exception as error:  # noqa: BLE001 - driver-side infra fault
            self._error_worker = -1
            raise self._wrap_failure(error) from error
        finally:
            self.ctx.cancel_check = None
            self.ctx.exchange_stats = self.stats
            self.ctx.worker_busy = list(self.worker_busy)

    def cancelled(self) -> bool:
        return self._cancel.is_set() or self.ctx.cancel_token.cancelled

    def partition_of(self, vertex_id: int) -> int:
        return self._exec_partitioner.partition_of(vertex_id)

    # -- driver recursion ------------------------------------------------------
    def _node(self, op: PhysicalOperator) -> List[Row]:
        cached = self.ctx.cached_result(id(op))
        if cached is not None:
            return cached
        self._check_cancelled()
        segment = extract_segment(op, self.refcounts)
        if segment is not None:
            rows = self._run_segment(segment)
            self.ctx.cache_result(id(op), rows, op)
            return rows
        for child in op.inputs:
            self._node(child)
        # children are now operator-cached: the serial handler interprets
        # just this operator, charging counters exactly like the row engine
        return execute_operator(op, self.ctx)

    def _check_cancelled(self) -> None:
        self.ctx.cancel_token.raise_if_cancelled()
        if self._cancel.is_set():
            raise _CancelledError()

    # -- segment execution -----------------------------------------------------
    def _segment_sources(self, segment: SegmentPlan) -> List[List]:
        sources: List[List] = [[] for _ in range(self.num_partitions)]
        scan = segment.scan
        if segment.source is None and scan is not None:
            for index, vid in enumerate(scan_candidates(scan, self.ctx)):
                sources[self.partition_of(vid)].append((index, vid))
            return sources
        rows = self._node(segment.source)
        anchor = segment.steps[0].relocate_tag
        for index, row in enumerate(rows):
            value = row.get(anchor) if anchor is not None else None
            if isinstance(value, VRef):
                partition = self.partition_of(value.id)
            else:
                partition = index % self.num_partitions
            sources[partition].append(((index,), row))
        return sources

    def _run_segment(self, segment: SegmentPlan) -> List[Row]:
        ctx = self.ctx
        sources = self._segment_sources(segment)
        # one operators_executed tick per chain operator, like the row engine
        ctx.counters.operators_executed += len(segment.steps)
        runner = _SegmentRunner(self, segment)
        runner.build_actors(sources)
        self.budget.rebase(ctx.counters.intermediate_results)
        try:
            self._run_pool(runner)
        finally:
            runner.merge_counters()
            runner.poison_all()
        if self._error is not None:
            error, self._error = self._error, None
            raise self._wrap_failure(error)
        self._check_cancelled()
        pairs: List[Pair] = []
        for partition_pairs in runner.output:
            pairs.extend(partition_pairs)
        self._check_cancelled()
        fault_point("driver.gather")
        self.stats.record_gather(len(pairs))
        pairs.sort(key=lambda pair: pair[0])
        return [row for _, row in pairs]

    # -- worker pool -----------------------------------------------------------
    def _run_pool(self, runner: _SegmentRunner) -> None:
        if self.num_threads == 1:
            self._worker_loop(0, runner)
            return
        threads = [
            threading.Thread(target=self._worker_loop, args=(slot, runner),
                             name="dataflow-worker-%d" % slot, daemon=True)
            for slot in range(self.num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _worker_loop(self, slot: int, runner: _SegmentRunner) -> None:
        actors = runner.actors
        lock = runner._lock
        while not self.cancelled():
            claimed = None
            with lock:
                for actor in actors:
                    if not actor.claimed and actor.runnable():
                        actor.claimed = True
                        claimed = actor
                        break
            if claimed is None:
                if all(actor.done for actor in actors):
                    return
                time.sleep(_IDLE_SLEEP)
                continue
            started = time.thread_time()
            try:
                claimed.quantum()
            except BaseException as error:  # noqa: BLE001 - forwarded to driver
                self._fail(error, worker_id=slot)
                runner.poison_all()
            finally:
                self.worker_busy[slot] += time.thread_time() - started
                with lock:
                    claimed.claimed = False

    def _fail(self, error: BaseException, worker_id: int = -1) -> None:
        with self._error_lock:
            if self._error is None:
                self._error = error
                self._error_worker = worker_id
        self._cancel.set()

    def _wrap_failure(self, error: BaseException) -> BaseException:
        """Type a surfaced execution error.

        Query errors (``GOptError``: timeouts, budget overruns, bad
        parameters) and cancellations pass through untouched -- they mean
        what they say.  Anything else is an *infrastructure* fault: it is
        wrapped in :class:`~repro.errors.WorkerFailure` carrying the failing
        worker's id and the partial exchange traffic observed so far, which
        is what the backend's degraded-re-execution path dispatches on.
        """
        if isinstance(error, (GOptError, _CancelledError)):
            return error
        return WorkerFailure(
            "dataflow %s failed: %s: %s" % (
                "driver" if self._error_worker < 0
                else "worker %d" % self._error_worker,
                type(error).__name__, error),
            worker_id=self._error_worker,
            exchange_stats=self.stats.snapshot(),
            cause=error,
        )


def recover_on_row_engine(root: PhysicalOperator, ctx: ExecutionContext,
                          failure: WorkerFailure) -> List[Row]:
    """Contain a dataflow infrastructure fault by serial re-execution.

    Partial results and the partial run's counters are discarded; the plan
    re-executes on the single-threaded row engine in a fresh context that
    shares the original deadline clock, budget and cancellation token -- a
    degraded result still lands *within the query's deadline* or times out
    like any other execution.  On success the original context adopts the
    recovery counters and records why it degraded
    (``ExecutionMetrics.degraded``); the partial exchange stats of the
    failed attempt remain observable on the failure and the context.
    """
    recovery = ExecutionContext(
        ctx.graph,
        partitioner=ctx.partitioner,
        options=ctx.options.override(engine="row", workers=1),
        parameters=ctx.parameters,
        cancel_token=ctx.cancel_token,
    )
    recovery._start_time = ctx._start_time
    rows = execute_operator(root, recovery)
    ctx.counters = recovery.counters
    ctx.peak_held_rows = recovery.peak_held_rows
    ctx.degraded = str(failure)
    return rows


def stream_dataflow_rows(root: PhysicalOperator,
                         ctx: ExecutionContext) -> Iterator[Row]:
    """The rows of a dataflow execution that starts on the first pull.

    As with the serial pipelines, nothing runs -- and no thread starts --
    until the consumer asks for a row.  That pull runs the whole execution
    on the consumer's thread (the worker pool included), since the row
    order is known only after the lineage-ordered gather.  A cancel (a
    cursor closed from another thread, an executor shutdown) stops the
    workers at their next checkpoint and surfaces as ``CancelledError``;
    :class:`~repro.backend.base.ResultCursor` decides whether that ends the
    stream quietly or reaches the consumer.  An infrastructure fault is
    contained by :func:`recover_on_row_engine`.
    """
    try:
        rows = DataflowExecutor(ctx).run(root)
    except WorkerFailure as failure:
        rows = recover_on_row_engine(root, ctx, failure)
    yield from rows
