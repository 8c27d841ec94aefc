"""Per-operator step kernels for the partition-parallel dataflow engine.

Each step transforms a morsel -- a plain list of (lineage, row) pairs -- by
driving the shared per-row operator kernels
(:mod:`repro.backend.runtime.kernels.rowwise`), the same semantic bodies the
serial pipeline interprets, through a lineage-tracking sink.  Lineage
tuples encode where a row came from: the global scan index of its source
vertex followed by one expansion index per row-generating operator.  Output
lineage appends one index per produced row to the input row's lineage, so
sorting the union of all partitions' outputs by lineage reproduces the
serial engine's row order bit-for-bit.

The kernels charge ``tuples_shuffled`` through ``charge_shuffle_between``
exactly as under the serial drivers; the *exchange* that physically routes
the produced rows only records what it moved in
:class:`~repro.backend.runtime.dataflow.exchange.ExchangeStats` (the two
counts agree because a row is always co-located with the expansion's anchor
when the kernel runs).  One deliberate difference from the serial pipeline:
steps charge intermediates and cells once per processed morsel's output
instead of per ``batch_size`` cut, so the budget is checked once per
morsel.  The totals are identical.

Pipeline breakers (Sort, Aggregate, HashJoin, Limit, Dedup, Union) are
declared registry fallbacks: the driver interprets them through the serial
pipeline over gathered rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.backend.runtime.context import ExecutionContext
from repro.backend.runtime.kernels import registry, rowwise
from repro.backend.runtime.kernels.common import Row
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
    Project,
    ScanVertex,
    Sort,
    Union,
)

#: lineage tuple: global source index followed by per-operator output indices
Seq = Tuple[int, ...]

#: (lineage, row) pairs are what the steps consume and produce
Pair = Tuple[Seq, Dict[str, object]]


def charge_outputs(ctx: ExecutionContext, pairs: List[Pair]) -> None:
    """Charge one chunk of produced rows (intermediates + cells) to ``ctx``."""
    if not pairs:
        return
    ctx.counters.cells_produced += sum(len(row) for _, row in pairs)
    ctx.charge_intermediate(len(pairs))


class _PairSink:
    """Lineage-tracking sink: emission i of an input row extends its lineage."""

    __slots__ = ("out", "seq", "base", "emitted")

    def __init__(self):
        self.out: List[Pair] = []
        self.seq: Seq = ()
        self.base: Row = {}
        self.emitted = 0

    def emit(self, delta) -> None:
        if delta:
            row = dict(self.base)
            row.update(delta)
        else:
            row = self.base
        self.out.append((self.seq + (self.emitted,), row))
        self.emitted += 1

    def emit_row(self, row: Row) -> None:
        self.out.append((self.seq + (self.emitted,), row))
        self.emitted += 1


class _SingleRowCatcher:
    """Scan sink: captures the at-most-one row a vertex probe emits."""

    __slots__ = ("row",)

    def __init__(self):
        self.row: Optional[Row] = None

    def emit_row(self, row: Row) -> None:
        self.row = row


def scan_kernel(op: ScanVertex, ctx: ExecutionContext,
                split: List[Tuple[int, int]]) -> List[Pair]:
    """Scan one partition's share of the vertices.

    ``split`` holds ``(global_index, vertex_id)`` assignments -- the global
    index is the vertex's position in the scan's ``scan_candidates``
    sequence, which seeds the lineage so the gather can restore scan order.
    """
    out: List[Pair] = []
    process = rowwise.scan_vertex(op, ctx)
    catcher = _SingleRowCatcher()
    for index, vid in split:
        catcher.row = None
        process(vid, catcher)
        if catcher.row is not None:
            out.append(((index,), catcher.row))
    return out


def _chunk_kernel(factory):
    """Drive a per-row kernel over a chunk of lineage-tagged rows."""

    def kernel(op, ctx: ExecutionContext, pairs: List[Pair]) -> List[Pair]:
        process = factory(op, ctx)
        sink = _PairSink()
        for seq, row in pairs:
            # cooperative checkpoint per consumed row: a cancel/deadline
            # lands mid-morsel, even through filter-heavy kernels
            ctx.tick()
            sink.seq = seq
            sink.base = row
            sink.emitted = 0
            process(row, sink)
        return sink.out

    return kernel


# the operators the dataflow engine executes partition-parallel; everything
# else is a declared fallback below (the registry completeness test keeps
# this split exhaustive as operators are added)
registry.register_kernel(registry.MODE_DATAFLOW, ScanVertex, scan_kernel)
for _op_type, _factory in (
    (ExpandEdge, rowwise.expand_edge),
    (ExpandInto, rowwise.expand_into),
    (ExpandIntersect, rowwise.expand_intersect),
    (PathExpand, rowwise.path_expand),
    (Filter, rowwise.filter_rows),
    (Project, rowwise.project_rows),
    (AllDifferent, rowwise.all_different),
):
    registry.register_kernel(registry.MODE_DATAFLOW, _op_type,
                             _chunk_kernel(_factory))

for _op_type in (Sort, Aggregate, HashJoin, Limit, Dedup, Union):
    registry.register_fallback(
        registry.MODE_DATAFLOW, _op_type,
        "pipeline breaker: interpreted at the driver by the serial row "
        "engine over gathered rows")
