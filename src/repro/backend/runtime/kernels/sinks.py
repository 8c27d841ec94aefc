"""The emission sink the serial pipelines hand to the per-row kernels.

A kernel emits either the input row extended with a delta (``emit``) or a
brand-new row (``emit_row``); :class:`RowListSink` turns both into dict rows
appended to a list.  The row pipeline :meth:`~RowListSink.drain`\\ s it after
each input row to yield lazily, the vectorized pipeline after each input
batch (or every ``batch_size`` rows of a scan) to yield one output batch.

The dataflow engine's lineage-tagged sink lives with its steps
(:mod:`repro.backend.runtime.dataflow.steps`) -- lineage tuples are a
dataflow-only concern.
"""

from __future__ import annotations

from typing import List

from repro.backend.runtime.kernels.common import Row


class RowListSink:
    """Emission sink of both serial pipelines: deltas become dict rows in a list."""

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
