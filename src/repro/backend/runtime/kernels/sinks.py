"""The RowSink/BatchSink emission interface the per-row kernels write to.

A kernel emits either the input row extended with a delta (``emit``) or a
brand-new row (``emit_row``); these two sinks translate those emissions into
the engines' representations:

* :class:`RowListSink` -- dict rows appended to a list, which the row
  pipeline :meth:`drain`\\ s after each input row to yield lazily.
* :class:`BatchSink` -- columnar accumulation: ``emit`` records the current
  input index in a selection (carried columns are gathered once per batch)
  plus the delta values in per-tag output columns; ``emit_row`` accumulates
  fully computed rows column-wise (scans, non-append projections, which
  carry nothing).  A kernel uses one style or the other for all its
  emissions, so the columns always line up.

The dataflow engine's lineage-tagged sink lives with its steps
(:mod:`repro.backend.runtime.dataflow.steps`) -- lineage tuples are a
dataflow-only concern.
"""

from __future__ import annotations

from typing import Dict, List

from repro.backend.runtime.columnar import ColumnBatch
from repro.backend.runtime.kernels.common import Row


class RowListSink:
    """Row-mode emission sink: deltas become dict rows appended to a list."""

    __slots__ = ("rows", "base")

    def __init__(self):
        self.rows: List[Row] = []
        self.base: Row = {}

    def emit(self, delta) -> None:
        if delta:
            row = dict(self.base)
            row.update(delta)
            self.rows.append(row)
        else:
            self.rows.append(self.base)

    def emit_row(self, row: Row) -> None:
        self.rows.append(row)

    def drain(self) -> List[Row]:
        rows, self.rows = self.rows, []
        return rows


class BatchSink:
    """Batch-mode emission sink: selection indices plus new output columns."""

    __slots__ = ("index", "selection", "extra", "computed", "computed_rows")

    def __init__(self):
        self.index = 0
        self.selection: List[int] = []
        self.extra: Dict[str, List[object]] = {}
        self.computed: Dict[str, List[object]] = {}
        self.computed_rows = 0

    def emit(self, delta) -> None:
        self.selection.append(self.index)
        extra = self.extra
        for tag, value in delta:
            column = extra.get(tag)
            if column is None:
                column = extra[tag] = []
            column.append(value)

    def emit_row(self, mapping: Row) -> None:
        computed = self.computed
        for tag, value in mapping.items():
            column = computed.get(tag)
            if column is None:
                column = computed[tag] = []
            column.append(value)
        self.computed_rows += 1

    def drain_computed(self) -> ColumnBatch:
        """The accumulated ``emit_row`` output as a batch, resetting it."""
        batch = ColumnBatch(self.computed, self.computed_rows)
        self.computed = {}
        self.computed_rows = 0
        return batch

    def drain(self, child: ColumnBatch) -> ColumnBatch:
        """One output batch for ``child``, resetting the sink for the next one."""
        if self.computed_rows:
            return self.drain_computed()
        columns = child.gather_columns(self.selection)
        columns.update(self.extra)
        batch = ColumnBatch(columns, len(self.selection))
        self.selection = []
        self.extra = {}
        return batch
