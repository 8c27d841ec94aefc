"""Stateful operator kernels: dedup, sort, top-k, aggregation, hash join.

These are the single semantic implementations of the pipeline-breaking (and
otherwise stateful) operators, fed incrementally by the serial pipeline and
run at the dataflow driver:

* :class:`DistinctState` -- admit-or-drop filtering for Dedup and
  ``Union distinct`` (whole-row or per-tag keys);
* :func:`sort_permutation` -- the stable multi-key order of Sort as an index
  permutation;
* :class:`TopKState` -- bounded-memory ``ORDER BY .. LIMIT k``: a max-heap of
  the k best rows whose tie-break on arrival order reproduces the stable
  full sort's first k rows exactly;
* :class:`AggregateState` -- incremental per-group accumulators (running
  count/sum/min/max, distinct sets, collect lists) that emit on upstream
  exhaustion;
* :class:`HashJoinState` -- hash join with the left side consumed up front
  and the right side fed one row at a time.  The build side is the smaller
  side: right rows are buffered only until they outnumber the left side
  (then left becomes the build table and the buffered rows are probed
  through), or until the right side is exhausted first (then the smaller
  right side becomes the build table).

Every state charges the semantic counters (simulated shuffles, local/global
aggregation traffic) and reports its buffered-row high-water mark to
``ctx.note_held_rows`` so bounded-memory behavior is observable in tests.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.backend.runtime.kernels.common import (
    Row,
    hashable,
    merge_rows,
    row_key,
    sort_key,
    unknown_aggregate,
)
from repro.gir.operators import AggregateFunction


# -- dedup -------------------------------------------------------------------------

class DistinctState:
    """Admit each distinct row once (Dedup and ``Union distinct``)."""

    __slots__ = ("tags", "seen")

    def __init__(self, tags=()):
        self.tags = tuple(tags)
        self.seen = set()

    def admit(self, binding) -> bool:
        if self.tags:
            key = tuple(binding.get(tag) for tag in self.tags)
        else:
            key = row_key(binding)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


# -- sort / top-k ------------------------------------------------------------------

def sort_permutation(op, ctx, rows: List[Row]) -> List[int]:
    """Indices into ``rows`` in Sort's output order (limit applied).

    Stable sorts are applied from the least-significant key to the most
    significant.
    """
    evaluate = ctx.evaluator.evaluate
    order = list(range(len(rows)))
    for key in reversed(op.keys):
        values = [sort_key(evaluate(key.expr, row)) for row in rows]
        order.sort(key=values.__getitem__, reverse=not key.ascending)
    if op.limit is not None:
        order = order[: op.limit]
    return order


class _TopKEntry:
    """One candidate row ordered by (sort keys, arrival order).

    ``__lt__`` means "comes earlier in the sorted output".  The arrival
    sequence as the final tie-break makes the order total, which is exactly
    what a stable sort's tie handling produces -- so the k smallest entries
    are precisely the first k rows of the full stable sort.
    """

    __slots__ = ("values", "seq", "row", "ascending")

    def __init__(self, values, seq, row, ascending):
        self.values = values
        self.seq = seq
        self.row = row
        self.ascending = ascending

    def __lt__(self, other: "_TopKEntry") -> bool:
        for mine, theirs, ascending in zip(self.values, other.values, self.ascending):
            if mine != theirs:
                return mine < theirs if ascending else theirs < mine
        return self.seq < other.seq


class _WorstFirst:
    """Heap wrapper inverting the order so ``heap[0]`` is the output-last entry."""

    __slots__ = ("entry",)

    def __init__(self, entry: _TopKEntry):
        self.entry = entry

    def __lt__(self, other: "_WorstFirst") -> bool:
        return other.entry < self.entry


class TopKState:
    """Bounded-memory ``ORDER BY .. LIMIT k``: keep only the k best rows."""

    __slots__ = ("op", "ctx", "limit", "ascending", "heap", "seq")

    def __init__(self, op, ctx):
        self.op = op
        self.ctx = ctx
        self.limit = op.limit
        self.ascending = tuple(key.ascending for key in op.keys)
        self.heap: List[_WorstFirst] = []
        self.seq = 0

    def add(self, row: Row) -> None:
        if self.limit <= 0:
            return
        evaluate = self.ctx.evaluator.evaluate
        values = tuple(sort_key(evaluate(key.expr, row)) for key in self.op.keys)
        entry = _TopKEntry(values, self.seq, row, self.ascending)
        self.seq += 1
        if len(self.heap) < self.limit:
            heapq.heappush(self.heap, _WorstFirst(entry))
        elif entry < self.heap[0].entry:
            heapq.heapreplace(self.heap, _WorstFirst(entry))
        self.ctx.note_held_rows(len(self.heap))

    def finish(self) -> List[Row]:
        return [item.entry.row for item in sorted(self.heap,
                                                  key=lambda w: w.entry)]


# -- aggregation -------------------------------------------------------------------

class _Accumulator:
    """Incremental state of one aggregation call over one group."""

    __slots__ = ("function", "operand", "members", "kept", "total", "extreme",
                 "values", "distinct")

    def __init__(self, agg):
        self.function = agg.function
        self.operand = agg.operand
        self.members = 0
        self.kept = 0
        self.total = 0
        self.extreme = None
        self.values: Optional[List[object]] = (
            [] if agg.function is AggregateFunction.COLLECT else None)
        self.distinct = (set() if agg.function is AggregateFunction.COUNT_DISTINCT
                         else None)

    def add(self, ctx, binding) -> None:
        self.members += 1
        function = self.function
        if function is AggregateFunction.COUNT and self.operand is None:
            return
        if self.operand is None:
            value = 1
        else:
            value = ctx.evaluator.evaluate(self.operand, binding)
            if value is None:
                return
        if function is AggregateFunction.COUNT_DISTINCT:
            self.distinct.add(value)
            return
        if function is AggregateFunction.COLLECT:
            self.values.append(value)
            return
        if function is AggregateFunction.COUNT:
            self.kept += 1
            return
        if function is AggregateFunction.SUM or function is AggregateFunction.AVG:
            self.total = self.total + value
        elif function is AggregateFunction.MIN:
            if self.kept == 0 or value < self.extreme:
                self.extreme = value
        elif function is AggregateFunction.MAX:
            if self.kept == 0 or self.extreme < value:
                self.extreme = value
        else:
            raise unknown_aggregate(function)
        self.kept += 1

    def result(self):
        function = self.function
        if function is AggregateFunction.COUNT:
            return self.members if self.operand is None else self.kept
        if function is AggregateFunction.COUNT_DISTINCT:
            return len(self.distinct)
        if function is AggregateFunction.COLLECT:
            return tuple(self.values)
        if self.kept == 0:
            return None
        if function is AggregateFunction.SUM:
            return self.total
        if function in (AggregateFunction.MIN, AggregateFunction.MAX):
            return self.extreme
        if function is AggregateFunction.AVG:
            return self.total / self.kept
        raise unknown_aggregate(function)


class AggregateState:
    """Incremental grouped aggregation: add rows, emit groups on exhaustion."""

    __slots__ = ("op", "ctx", "groups")

    def __init__(self, op, ctx):
        self.op = op
        self.ctx = ctx
        # key tuple -> (evaluated key values, accumulators); insertion order
        # is first-seen order, which is the output order
        self.groups: Dict[Tuple, Tuple[Tuple, List[_Accumulator]]] = {}

    def add(self, binding) -> None:
        ctx = self.ctx
        evaluate = ctx.evaluator.evaluate
        key = tuple(evaluate(item.expr, binding) for item in self.op.keys)
        group = self.groups.get(key)
        if group is None:
            group = (key, [_Accumulator(agg) for agg in self.op.aggregations])
            self.groups[key] = group
            ctx.note_held_rows(len(self.groups))
        for accumulator in group[1]:
            accumulator.add(ctx, binding)

    def finish(self) -> List[Row]:
        op = self.op
        if not op.keys and not self.groups:
            self.groups[()] = ((), [_Accumulator(agg) for agg in op.aggregations])
        if op.mode == "local_global":
            # the local aggregation ships one partial result per (group, partition)
            self.ctx.charge_shuffle(len(self.groups))
        rows: List[Row] = []
        for key, accumulators in self.groups.values():
            out: Row = {item.alias: value for item, value in zip(op.keys, key)}
            for agg, accumulator in zip(op.aggregations, accumulators):
                out[agg.alias] = accumulator.result()
            rows.append(out)
        return rows


# -- hash join ---------------------------------------------------------------------

class HashJoinState:
    """Hash join fed the left side up front and the right side row by row.

    The hash table is built on the smaller input (ties go to the left).
    Fed incrementally, the decision is made as soon as it is forced: right rows are buffered until they reach the left side's size
    (left is then no larger than right, so left becomes the build table and
    the buffer is probed through in order) or until the right side runs out
    first (right is then strictly smaller and becomes the build table, with
    every emission happening in :meth:`finish`).

    Memory: the left side is always held in full (the build choice needs
    its size, and left-outer extras need its rows), plus at
    most that many buffered right rows -- peak held rows are bounded by
    twice the *left input's* size while the right side streams unbounded,
    and the join result itself is never materialized.
    """

    __slots__ = ("op", "ctx", "left", "buffer", "index", "build_is_left",
                 "right_keys")

    def __init__(self, op, ctx):
        self.op = op
        self.ctx = ctx
        self.left: List[Row] = []
        self.buffer: Optional[List[Row]] = []
        self.index: Dict[Tuple, List[Row]] = {}
        self.build_is_left: Optional[bool] = None
        # all right-side keys, needed to find unmatched left_outer rows
        self.right_keys = set() if op.join_type == "left_outer" else None

    # -- feeding ---------------------------------------------------------------
    def start(self, left_rows: List[Row]) -> None:
        """Provide the fully consumed left side."""
        self.left = left_rows
        self.ctx.charge_shuffle(len(left_rows))
        self._note_held()
        if not left_rows:
            self._build_on_left()

    def feed(self, row: Row) -> List[Row]:
        """Feed one right-side row; returns the rows this emits (often none)."""
        self.ctx.charge_shuffle(1)
        if self.right_keys is not None:
            self.right_keys.add(self._key(row))
        if self.build_is_left is None:
            self.buffer.append(row)
            self._note_held()
            if len(self.buffer) >= len(self.left):
                # right is now at least as large as left: build on left
                self._build_on_left()
                buffered, self.buffer = self.buffer, None
                out: List[Row] = []
                for probe in buffered:
                    out.extend(self._probe(probe))
                return out
            return []
        return self._probe(row)

    def finish(self) -> List[Row]:
        """Right side exhausted: emit whatever had to wait for full knowledge."""
        out: List[Row] = []
        if self.build_is_left is None:
            # right side ran out while strictly smaller: build on right,
            # probe the left side in its original order
            for row in self.buffer:
                self.index.setdefault(self._key(row), []).append(row)
            self.buffer = None
            self.build_is_left = False
            for probe in self.left:
                out.extend(self._probe(probe))
        if self.op.join_type == "left_outer":
            # unmatched left rows pass through untouched (right-side columns
            # stay absent), after all matched output -- row-engine order
            for row in self.left:
                if self._key(row) not in self.right_keys:
                    out.append(dict(row))
        return out

    # -- internals -------------------------------------------------------------
    def _key(self, row: Row) -> Tuple:
        return tuple(row.get(key) for key in self.op.keys)

    def _build_on_left(self) -> None:
        for row in self.left:
            self.index.setdefault(self._key(row), []).append(row)
        self.build_is_left = True

    def _probe(self, probe: Row) -> List[Row]:
        matches = self.index.get(self._key(probe), ())
        join_type = self.op.join_type
        if join_type == "anti":
            return [] if matches else [dict(probe)]
        if join_type == "semi":
            return [dict(probe)] if matches else []
        out: List[Row] = []
        for build in matches:
            merged = merge_rows(build, probe)
            if merged is not None:
                out.append(merged)
        return out

    def _note_held(self) -> None:
        held = len(self.left)
        if self.buffer is not None:
            held += len(self.buffer)
        self.ctx.note_held_rows(held)


__all__ = [
    "AggregateState",
    "DistinctState",
    "HashJoinState",
    "TopKState",
    "hashable",
    "sort_permutation",
]
