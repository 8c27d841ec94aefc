"""The serial interpreter: one generator pipeline over the operator kernels.

Results are pulled through a physical plan *on demand*.
:func:`stream_batches` is the pipeline of both serial engines: each
operator yields lists of dict rows, and :func:`_run_batches` cuts every
operator's output at ``ctx.batch_size`` rows before it charges them, so a
consumer that stops early pays for at most one batch per operator beyond
what it pulled.  ``vectorized`` runs it at the configured ``batch_size``;
``row`` is the same pipeline at a batch of one row (tuple-at-a-time is
vectorized execution with a vector of one).

The pipeline drives the operator kernels of
:mod:`repro.backend.runtime.kernels`, and the pipeline breakers execute
*incrementally*:

* **HashJoin** consumes the left side, then streams the right side through
  the build table row by row (buffering right rows only until the smaller
  build side is known -- see
  :class:`~repro.backend.runtime.kernels.state.HashJoinState`);
* **Aggregate** folds rows into per-group accumulators and emits one row per
  group when its input is exhausted;
* **Sort with a limit** (``ORDER BY .. LIMIT k``) keeps a bounded top-k heap
  of at most ``k`` rows instead of the full result (a plain Sort still has
  to hold its input -- that is what sorting means);
* **ExpandIntersect** and **PathExpand** stream like every other expansion.

A whole table is built only where one is needed: a subtree shared between
two plan branches (the ComSubPattern rewrite) is drained once into the
per-context operator cache and replayed to its second parent in
``batch_size`` cuts, and the dataflow driver drains its pipeline breakers
the same way (:func:`execute_operator`).  ``Backend.execute`` is a full
drain of the same pipeline, so every consumer sees the two properties the
differential suite enforces:

* **bounded memory / early exit** -- a ``LIMIT k`` stops pulling after ``k``
  rows and breaker states hold only what they must (observable via
  ``ctx.peak_held_rows``), so the work counters record only the work
  actually performed;
* **batch-size independence** -- every batch size yields the same rows in
  the same order, and a full drain of a plan without a bare ``LIMIT``
  charges the same counters.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List

from repro.backend.runtime.context import ExecutionContext
from repro.backend.runtime.kernels import registry, rowwise
from repro.backend.runtime.kernels.common import (
    Row, scan_candidates, shared_subtree_ids)
from repro.backend.runtime.kernels.sinks import RowListSink
from repro.backend.runtime.kernels.state import (
    AggregateState,
    DistinctState,
    HashJoinState,
    TopKState,
    sort_permutation,
)
from repro.errors import ExecutionError
from repro.testing.faults import fault_point
from repro.optimizer.physical_plan import (
    Aggregate,
    AllDifferent,
    Dedup,
    ExpandEdge,
    ExpandInto,
    ExpandIntersect,
    Filter,
    HashJoin,
    Limit,
    PathExpand,
    PhysicalOperator,
    Project,
    ScanVertex,
    Sort,
    Union,
)


def stream_batches(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[List[Row]]:
    """Lazily produce the binding table of ``op`` as lists of dict rows.

    Operators transform input batches into output batches, cut at
    ``ctx.batch_size`` and charged as they are pulled.  A subtree with two
    parents is drained once into the operator cache; the rows replayed from
    the cache are already paid for.
    """
    cached = ctx.cached_result(id(op))
    if cached is None and id(op) in ctx.shared_op_ids:
        cached = execute_operator(op, ctx)
    if cached is None:
        return _run_batches(op, ctx)
    return _replay(cached, ctx)


def _run_batches(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[List[Row]]:
    """Run ``op``'s kernel, charging its output in ``batch_size`` cuts.

    The only place that charges an operator's output: a per-row kernel's
    fan-out or a breaker's result leaves its handler as one list, and
    charging only the cuts actually pulled keeps early exit exact.
    """
    handler = registry.kernel_for(registry.MODE_STREAM_BATCHES, type(op))
    if handler is None:
        raise ExecutionError("no kernel for physical operator %r" % (op.name,))
    fault_point("stream.kernel", op=type(op).__name__)
    counters = ctx.counters
    counters.operators_executed += 1
    size = ctx.batch_size
    # the "width" of intermediate results matters for FieldTrim: carrying
    # fewer tags through shuffles and aggregation is cheaper
    for batch in handler(op, ctx):
        if size == 1:  # ``row``: cut per row without slicing
            for row in batch:
                ctx.charge_intermediate(1)
                counters.cells_produced += len(row)
                yield [row]
            continue
        count = len(batch)
        for start in range(0, count, size):
            chunk = batch if count <= size else batch[start:start + size]
            ctx.charge_intermediate(len(chunk))
            counters.cells_produced += sum(map(len, chunk))
            yield chunk


def _replay(rows: List[Row], ctx: ExecutionContext) -> Iterator[List[Row]]:
    size = ctx.batch_size
    for start in range(0, len(rows), size):
        chunk = rows[start:start + size]
        ctx.tick(len(chunk))  # long replays stay interruptible
        yield chunk


def execute_operator(op: PhysicalOperator, ctx: ExecutionContext) -> List[Row]:
    """The whole binding table of ``op``: its batches drained into the
    per-context operator cache, so a second request replays it.

    For the callers that need a table rather than a stream -- the second
    parent of a shared subtree and a dataflow driver-side pipeline breaker
    (whose children are already cached).
    """
    rows = ctx.cached_result(id(op))
    if rows is None:
        # callers may enter at any subtree: sharing below ``op`` must be
        # known before it streams, or a shared child would execute twice
        ctx.shared_op_ids = ctx.shared_op_ids | shared_subtree_ids(op)
        rows = list(chain.from_iterable(_run_batches(op, ctx)))
        ctx.cache_result(id(op), rows, op)
    return rows


def _child_rows(op: PhysicalOperator, ctx: ExecutionContext, index: int = 0) -> Iterable[Row]:
    return chain.from_iterable(stream_batches(op.inputs[index], ctx))


def _batch_scan(op: ScanVertex, ctx: ExecutionContext) -> Iterator[List[Row]]:
    process = rowwise.scan_vertex(op, ctx)
    sink = RowListSink()
    for vid in scan_candidates(op, ctx):
        process(vid, sink)
        if len(sink.rows) >= ctx.batch_size:
            yield sink.drain()
    if sink.rows:
        yield sink.drain()


def _batch_rowwise(factory):
    """Drive a per-row kernel batch-wise: one output batch per input batch."""

    def handler(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[List[Row]]:
        process = factory(op, ctx)
        sink = RowListSink()
        for batch in stream_batches(op.inputs[0], ctx):
            for row in batch:
                sink.base = row
                process(row, sink)
            if sink.rows:
                yield sink.drain()

    return handler


def _batch_limit(op: Limit, ctx: ExecutionContext) -> Iterator[List[Row]]:
    remaining = op.count
    if remaining <= 0:
        return
    for batch in stream_batches(op.inputs[0], ctx):
        batch = batch[:remaining]
        remaining -= len(batch)
        yield batch
        if remaining <= 0:
            return  # stop pulling: upstream never produces the rest


def _batch_dedup(op: Dedup, ctx: ExecutionContext) -> Iterator[List[Row]]:
    admit = DistinctState(op.tags).admit
    for batch in stream_batches(op.inputs[0], ctx):
        yield [row for row in batch if admit(row)]


def _batch_union(op: Union, ctx: ExecutionContext) -> Iterator[List[Row]]:
    if not op.distinct:
        for child in op.inputs:
            yield from stream_batches(child, ctx)
        return
    admit = DistinctState().admit
    for child in op.inputs:
        for batch in stream_batches(child, ctx):
            yield [row for row in batch if admit(row)]


def _batch_sort(op: Sort, ctx: ExecutionContext) -> Iterator[List[Row]]:
    if op.limit is not None:
        # bounded-memory top-k: hold at most ``limit`` rows at any moment
        state = TopKState(op, ctx)
        for row in _child_rows(op, ctx):
            state.add(row)
        yield state.finish()
        return
    # a full sort inherently needs its whole input
    rows = list(_child_rows(op, ctx))
    ctx.note_held_rows(len(rows))
    yield [rows[index] for index in sort_permutation(op, ctx, rows)]


def _batch_aggregate(op: Aggregate, ctx: ExecutionContext) -> Iterator[List[Row]]:
    state = AggregateState(op, ctx)
    for row in _child_rows(op, ctx):
        state.add(row)
    yield state.finish()


def _batch_hash_join(op: HashJoin, ctx: ExecutionContext) -> Iterator[List[Row]]:
    state = HashJoinState(op, ctx)
    state.start(list(_child_rows(op, ctx, 0)))
    for batch in stream_batches(op.inputs[1], ctx):
        out: List[Row] = []
        for row in batch:
            out.extend(state.feed(row))
        yield out
    yield state.finish()


for _op_type, _handler in (
    (ScanVertex, _batch_scan),
    (ExpandEdge, _batch_rowwise(rowwise.expand_edge)),
    (ExpandInto, _batch_rowwise(rowwise.expand_into)),
    (ExpandIntersect, _batch_rowwise(rowwise.expand_intersect)),
    (PathExpand, _batch_rowwise(rowwise.path_expand)),
    (Filter, _batch_rowwise(rowwise.filter_rows)),
    (Project, _batch_rowwise(rowwise.project_rows)),
    (AllDifferent, _batch_rowwise(rowwise.all_different)),
    (Limit, _batch_limit),
    (Dedup, _batch_dedup),
    (Union, _batch_union),
    (Sort, _batch_sort),
    (Aggregate, _batch_aggregate),
    (HashJoin, _batch_hash_join),
):
    registry.register_kernel(registry.MODE_STREAM_BATCHES, _op_type, _handler)


def stream_result_rows(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[Row]:
    """Rows of the plan rooted at ``op``, drained from its batches."""
    # subtrees with more than one parent must execute exactly once (the
    # pipeline routes them through the operator cache)
    ctx.shared_op_ids = shared_subtree_ids(op)
    yield from chain.from_iterable(stream_batches(op, ctx))
