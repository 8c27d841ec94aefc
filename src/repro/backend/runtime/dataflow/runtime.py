"""Partition-parallel dataflow execution of physical plans.

:class:`DataflowExecutor` interprets a physical plan the way a distributed
dataflow engine (GraphScope/Gaia) would, inside one process and on the
caller's thread:

* the driver walks the operator tree, carving out the parallel segments
  compiled by :mod:`repro.backend.runtime.dataflow.plan`;
* each segment runs as per-partition pipelines over the
  :class:`~repro.graph.partition.GraphPartitioner` shards, connected by
  hash-shuffle / relocate exchanges.  Each partition's source is cut into
  ``batch_size`` morsels; a morsel runs through its stage's steps, the
  stage's exchange routes the output to destination partitions, and each
  destination's morsels are pushed depth-first into the next stage;
* pipeline breakers (Sort, Aggregate, HashJoin, Limit, Dedup, Union) run at
  the driver through the row pipeline's handlers over gathered rows, so
  their results -- and their simulated communication charges -- are
  identical to the row engine's.

Rows carry lineage tuples; the final gather merges all partitions' outputs
in lineage order, which reproduces the serial row engine's row order exactly
-- the differential suite holds the dataflow engine to the same rows and
work counters as the row and vectorized engines.  The shared kernels charge
``tuples_shuffled`` exactly as they do under the serial engines; the
exchanges only record in :class:`ExchangeStats` what they physically route,
an independent count that must reconcile with it (see
:mod:`repro.backend.runtime.dataflow.exchange`).

:func:`stream_dataflow_rows` is the engine's row stream: it runs the
executor on the consumer's first pull.  A failure inside it reaches the
caller unchanged, as it does under the serial engines.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.backend.runtime.binding import VRef
from repro.backend.runtime.context import ExecutionContext
from repro.backend.runtime.dataflow.exchange import ExchangeStats
from repro.backend.runtime.dataflow.plan import (
    Pipeline,
    SegmentPlan,
    build_pipelines,
    extract_segment,
    plan_refcounts,
)
from repro.backend.runtime.dataflow.steps import Pair, charge_outputs
from repro.backend.runtime.kernels import registry
from repro.backend.runtime.kernels.common import Row, scan_candidates
from repro.backend.runtime.streaming import execute_operator
from repro.graph.partition import GraphPartitioner
from repro.optimizer.physical_plan import PhysicalOperator
from repro.testing.faults import fault_point


class DataflowExecutor:
    """Drives one physical-plan execution on the dataflow runtime."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx
        # a backend without a partitioner runs the engine on one partition
        # (and charges no communication: ``ctx.partitioner`` stays None)
        self._exec_partitioner = (ctx.partitioner if ctx.partitioner is not None
                                  else GraphPartitioner(1))
        self.num_partitions = self._exec_partitioner.num_partitions
        self.stats = ExchangeStats()
        self.refcounts: Dict[int, int] = {}

    # -- public API ------------------------------------------------------------
    def run(self, root: PhysicalOperator) -> List[Row]:
        self.refcounts = plan_refcounts(root)
        try:
            return self._node(root)
        finally:
            self.ctx.exchange_stats = self.stats

    def partition_of(self, vertex_id: int) -> int:
        return self._exec_partitioner.partition_of(vertex_id)

    # -- driver recursion ------------------------------------------------------
    def _node(self, op: PhysicalOperator) -> List[Row]:
        cached = self.ctx.cached_result(id(op))
        if cached is not None:
            return cached
        self.ctx.cancel_token.raise_if_cancelled()
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
        pipelines = build_pipelines(segment)
        gathered: List[Pair] = []
        for partition, items in enumerate(sources):
            for morsel in self._morsels(items):
                self._push(pipelines, 0, partition, morsel, gathered)
        self.stats.record_gather(len(gathered))
        gathered.sort(key=lambda pair: pair[0])
        return [row for _, row in gathered]

    def _morsels(self, items: List) -> Iterator[List]:
        size = self.ctx.batch_size
        for start in range(0, len(items), size):
            yield items[start:start + size]

    def _push(self, pipelines: List[Pipeline], stage: int, partition: int,
              morsel: List, gathered: List[Pair]) -> None:
        """Run one morsel through ``stage`` on ``partition`` and route its output."""
        ctx = self.ctx
        pipeline = pipelines[stage]
        data = morsel
        for spec in pipeline.steps:
            fault_point("stream.kernel", op=type(spec.op).__name__)
            kernel = registry.kernel_for(registry.MODE_DATAFLOW, type(spec.op))
            data = kernel(spec.op, ctx, data)
            charge_outputs(ctx, data)
            if not data:
                return
        exchange = pipeline.out_exchange
        if exchange is None:
            gathered.extend(data)
            return
        partition_of = self.partition_of
        groups: Dict[int, List[Pair]] = {}
        crossed = stayed = 0
        last_bundle = None
        for seq, row in data:
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
                    if dest != partition:
                        crossed += 1
                    else:
                        stayed += 1
            else:
                dest = partition
            groups.setdefault(dest, []).append((seq, row))
        if exchange.priced:
            self.stats.record_shuffle(crossed, stayed)
        else:
            self.stats.record_relocate(crossed)
        for dest, dest_pairs in groups.items():
            for dest_morsel in self._morsels(dest_pairs):
                self._push(pipelines, stage + 1, dest, dest_morsel, gathered)


def stream_dataflow_rows(root: PhysicalOperator,
                         ctx: ExecutionContext) -> Iterator[Row]:
    """The rows of a dataflow execution that starts on the first pull.

    As with the serial pipelines, nothing runs until the consumer asks for a
    row.  That pull runs the whole execution on the consumer's thread, since
    the row order is known only after the lineage-ordered gather.  A cancel
    (a cursor closed from another thread, an executor shutdown) stops the
    execution at its next checkpoint and surfaces as ``CancelledError``;
    :class:`~repro.backend.base.ResultCursor` decides whether that ends the
    stream quietly or reaches the consumer.
    """
    yield from DataflowExecutor(ctx).run(root)
