"""The serial interpreter: generator pipelines over the operator kernels.

Results are pulled through a physical plan *on demand*; there is one
pipeline per serial engine:

* :func:`stream_rows` is the ``row`` engine -- each operator is a generator
  yielding dict rows one at a time;
* :func:`stream_batches` is the ``vectorized`` engine -- each operator
  yields lists of the same dict rows, up to ``ctx.batch_size`` of them from
  a scan or a breaker and one output list per input list from a per-row
  kernel, so counters are charged and generator frames entered once per
  batch instead of once per row.

Both drive the operator kernels of :mod:`repro.backend.runtime.kernels`, and
the pipeline breakers execute *incrementally*:

* **HashJoin** consumes the left side, then streams the right side through
  the build table row by row (buffering right rows only until the smaller
  build side is known -- see
  :class:`~repro.backend.runtime.kernels.state.HashJoinState`);
* **Aggregate** folds rows into per-group accumulators and emits one row per
  group when its input is exhausted;
* **Sort with a limit** (``ORDER BY .. LIMIT k``) keeps a bounded top-k heap
  of at most ``k`` rows instead of the full result (a plain Sort still has
  to hold its input -- that is what sorting means);
* **ExpandIntersect** and **PathExpand** stream per input row like every
  other expansion.

A whole table is built only where one is needed: a subtree shared between
two plan branches (the ComSubPattern rewrite) is drained once into the
per-context operator cache and replayed to its second parent, and the
dataflow driver drains its pipeline breakers the same way
(:func:`execute_operator`).  ``Backend.execute`` is a full drain of the same
pipelines, so every consumer sees the two properties the differential suite
enforces:

* **bounded memory / early exit** -- a ``LIMIT k`` stops pulling after ``k``
  rows and breaker states hold only what they must (observable via
  ``ctx.peak_held_rows``), so the work counters record only the work
  actually performed;
* **engine parity** -- ``row`` and ``vectorized`` yield the same rows in the
  same order and charge identical counters.
"""

from __future__ import annotations

from typing import Iterator, List

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


def _kernel(mode: str, op: PhysicalOperator):
    handler = registry.kernel_for(mode, type(op))
    if handler is None:
        raise ExecutionError("no %s kernel for physical operator %r" % (mode, op.name))
    return handler


# -- row-engine streaming ----------------------------------------------------------


def stream_rows(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[Row]:
    """Lazily produce the binding table of ``op`` row by row.

    Operators charge the work counters incrementally (one intermediate
    result and ``len(row)`` cells per yielded row).  A subtree with two
    parents is drained once into the operator cache; rows replayed from
    the cache are already paid for.
    """
    cached = ctx.cached_result(id(op))
    if cached is None and id(op) in ctx.shared_op_ids:
        cached = execute_operator(op, ctx)
    if cached is None:
        return _run_rows(op, ctx)
    return _replay_rows(cached, ctx)


def _run_rows(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[Row]:
    handler = _kernel(registry.MODE_STREAM_ROWS, op)
    fault_point("stream.kernel", op=type(op).__name__)
    ctx.counters.operators_executed += 1
    for row in handler(op, ctx):
        ctx.charge_intermediate(1)
        # the "width" of intermediate results matters for FieldTrim: carrying
        # fewer tags/columns through shuffles and aggregation is cheaper
        ctx.counters.cells_produced += len(row)
        yield row


def _replay_rows(rows: List[Row], ctx: ExecutionContext) -> Iterator[Row]:
    for row in rows:
        ctx.tick()  # long replays stay interruptible
        yield row


def execute_operator(op: PhysicalOperator, ctx: ExecutionContext) -> List[Row]:
    """The whole binding table of ``op``: its row stream drained into the
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
        rows = list(_run_rows(op, ctx))
        ctx.cache_result(id(op), rows, op)
    return rows


def _stream_child(op: PhysicalOperator, ctx: ExecutionContext, index: int = 0) -> Iterator[Row]:
    return stream_rows(op.inputs[index], ctx)


def _stream_scan(op: ScanVertex, ctx: ExecutionContext) -> Iterator[Row]:
    process = rowwise.scan_vertex(op, ctx)
    sink = RowListSink()
    for vid in scan_candidates(op, ctx):
        process(vid, sink)
        if sink.rows:
            yield from sink.drain()


def _stream_rowwise(factory):
    """Drive a per-row kernel lazily: one input row in, its outputs out."""

    def handler(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[Row]:
        process = factory(op, ctx)
        sink = RowListSink()
        for row in _stream_child(op, ctx):
            sink.base = row
            process(row, sink)
            if sink.rows:
                yield from sink.drain()

    return handler


def _stream_limit(op: Limit, ctx: ExecutionContext) -> Iterator[Row]:
    if op.count <= 0:
        return
    produced = 0
    for row in _stream_child(op, ctx):
        yield row
        produced += 1
        if produced >= op.count:
            return  # stop pulling: upstream never produces the rest


def _stream_dedup(op: Dedup, ctx: ExecutionContext) -> Iterator[Row]:
    state = DistinctState(op.tags)
    for row in _stream_child(op, ctx):
        if state.admit(row):
            yield row


def _stream_union(op: Union, ctx: ExecutionContext) -> Iterator[Row]:
    if not op.distinct:
        for child in op.inputs:
            yield from stream_rows(child, ctx)
        return
    state = DistinctState()
    for child in op.inputs:
        for row in stream_rows(child, ctx):
            if state.admit(row):
                yield row


def _stream_sort(op: Sort, ctx: ExecutionContext) -> Iterator[Row]:
    if op.limit is not None:
        # bounded-memory top-k: hold at most ``limit`` rows at any moment
        state = TopKState(op, ctx)
        for row in _stream_child(op, ctx):
            state.add(row)
        yield from state.finish()
        return
    # a full sort inherently needs its whole input; hold it once, emit lazily
    rows = list(_stream_child(op, ctx))
    ctx.note_held_rows(len(rows))
    for index in sort_permutation(op, ctx, len(rows), rows.__getitem__):
        yield rows[index]


def _stream_aggregate(op: Aggregate, ctx: ExecutionContext) -> Iterator[Row]:
    state = AggregateState(op, ctx)
    for row in _stream_child(op, ctx):
        state.add(row)
    yield from state.finish()


def _stream_hash_join(op: HashJoin, ctx: ExecutionContext) -> Iterator[Row]:
    state = HashJoinState(op, ctx)
    state.start(list(_stream_child(op, ctx, 0)))
    for row in _stream_child(op, ctx, 1):
        yield from state.feed(row)
    yield from state.finish()


for _op_type, _factory in (
    (ExpandEdge, rowwise.expand_edge),
    (ExpandInto, rowwise.expand_into),
    (ExpandIntersect, rowwise.expand_intersect),
    (PathExpand, rowwise.path_expand),
    (Filter, rowwise.filter_rows),
    (Project, rowwise.project_rows),
    (AllDifferent, rowwise.all_different),
):
    registry.register_kernel(registry.MODE_STREAM_ROWS, _op_type,
                             _stream_rowwise(_factory))

registry.register_kernel(registry.MODE_STREAM_ROWS, ScanVertex, _stream_scan)
registry.register_kernel(registry.MODE_STREAM_ROWS, Limit, _stream_limit)
registry.register_kernel(registry.MODE_STREAM_ROWS, Dedup, _stream_dedup)
registry.register_kernel(registry.MODE_STREAM_ROWS, Union, _stream_union)
registry.register_kernel(registry.MODE_STREAM_ROWS, Sort, _stream_sort)
registry.register_kernel(registry.MODE_STREAM_ROWS, Aggregate, _stream_aggregate)
registry.register_kernel(registry.MODE_STREAM_ROWS, HashJoin, _stream_hash_join)


# -- vectorized-engine streaming ----------------------------------------------------


def stream_batches(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[List[Row]]:
    """Lazily produce the binding table of ``op`` as lists of dict rows.

    Operators transform input batches into output batches and charge
    counters per emitted batch; a subtree with two parents is drained once
    into the operator cache as a row list and replays as a single batch.
    """
    cached = ctx.cached_result(id(op))
    if cached is None:
        if id(op) not in ctx.shared_op_ids:
            return _run_batches(op, ctx)
        cached = [row for batch in _run_batches(op, ctx) for row in batch]
        ctx.cache_result(id(op), cached, op)
    return iter((cached,) if cached else ())


def _run_batches(op: PhysicalOperator, ctx: ExecutionContext) -> Iterator[List[Row]]:
    handler = _kernel(registry.MODE_STREAM_BATCHES, op)
    fault_point("stream.kernel", op=type(op).__name__)
    ctx.counters.operators_executed += 1
    for batch in handler(op, ctx):
        if not batch:
            continue
        ctx.charge_intermediate(len(batch))
        ctx.counters.cells_produced += sum(map(len, batch))
        yield batch


def _batch_child(op: PhysicalOperator, ctx: ExecutionContext, index: int = 0) -> Iterator[List[Row]]:
    return stream_batches(op.inputs[index], ctx)


def _rebatch(rows: List[Row], ctx: ExecutionContext) -> Iterator[List[Row]]:
    """Cut breaker-state output rows into ``batch_size`` chunks."""
    for start in range(0, len(rows), ctx.batch_size):
        yield rows[start:start + ctx.batch_size]


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
        for batch in _batch_child(op, ctx):
            for row in batch:
                sink.base = row
                process(row, sink)
            yield sink.drain()

    return handler


def _batch_limit(op: Limit, ctx: ExecutionContext) -> Iterator[List[Row]]:
    remaining = op.count
    if remaining <= 0:
        return
    for batch in _batch_child(op, ctx):
        batch = batch[:remaining]
        remaining -= len(batch)
        yield batch
        if remaining <= 0:
            return  # stop pulling: upstream never produces the rest


def _batch_dedup(op: Dedup, ctx: ExecutionContext) -> Iterator[List[Row]]:
    admit = DistinctState(op.tags).admit
    for batch in _batch_child(op, ctx):
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
        state = TopKState(op, ctx)
        for batch in _batch_child(op, ctx):
            for row in batch:
                state.add(row)
        yield from _rebatch(state.finish(), ctx)
        return
    rows: List[Row] = []
    for batch in _batch_child(op, ctx):
        rows.extend(batch)
    ctx.note_held_rows(len(rows))
    order = sort_permutation(op, ctx, len(rows), rows.__getitem__)
    yield from _rebatch([rows[index] for index in order], ctx)


def _batch_aggregate(op: Aggregate, ctx: ExecutionContext) -> Iterator[List[Row]]:
    state = AggregateState(op, ctx)
    for batch in _batch_child(op, ctx):
        for row in batch:
            state.add(row)
    yield from _rebatch(state.finish(), ctx)


def _batch_hash_join(op: HashJoin, ctx: ExecutionContext) -> Iterator[List[Row]]:
    state = HashJoinState(op, ctx)
    left: List[Row] = []
    for batch in _batch_child(op, ctx, 0):
        left.extend(batch)
    state.start(left)
    for batch in _batch_child(op, ctx, 1):
        out: List[Row] = []
        for row in batch:
            out.extend(state.feed(row))
        yield out
    yield from _rebatch(state.finish(), ctx)


for _op_type, _factory in (
    (ExpandEdge, rowwise.expand_edge),
    (ExpandInto, rowwise.expand_into),
    (ExpandIntersect, rowwise.expand_intersect),
    (PathExpand, rowwise.path_expand),
    (Filter, rowwise.filter_rows),
    (Project, rowwise.project_rows),
    (AllDifferent, rowwise.all_different),
):
    registry.register_kernel(registry.MODE_STREAM_BATCHES, _op_type,
                             _batch_rowwise(_factory))

registry.register_kernel(registry.MODE_STREAM_BATCHES, ScanVertex, _batch_scan)
registry.register_kernel(registry.MODE_STREAM_BATCHES, Limit, _batch_limit)
registry.register_kernel(registry.MODE_STREAM_BATCHES, Dedup, _batch_dedup)
registry.register_kernel(registry.MODE_STREAM_BATCHES, Union, _batch_union)
registry.register_kernel(registry.MODE_STREAM_BATCHES, Sort, _batch_sort)
registry.register_kernel(registry.MODE_STREAM_BATCHES, Aggregate, _batch_aggregate)
registry.register_kernel(registry.MODE_STREAM_BATCHES, HashJoin, _batch_hash_join)


def stream_result_rows(op: PhysicalOperator, ctx: ExecutionContext,
                       engine: str) -> Iterator[Row]:
    """Rows of the plan rooted at ``op`` from the pipeline of serial ``engine``."""
    # subtrees with more than one parent must execute exactly once (the
    # dispatchers route them through the operator cache)
    ctx.shared_op_ids = shared_subtree_ids(op)
    if engine == "vectorized":
        for batch in stream_batches(op, ctx):
            yield from batch
        return
    yield from stream_rows(op, ctx)
