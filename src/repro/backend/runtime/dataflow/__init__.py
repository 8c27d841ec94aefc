"""Partition-parallel dataflow runtime (``engine="dataflow"``).

Physical plans are compiled into per-partition pipelines connected by
explicit exchange operators -- hash shuffle on the newest bound vertex,
relocation for tree-shaped anchors, broadcast for small join build sides
and a lineage-ordered gather for the final merge -- executed by a pool of
worker threads over :class:`~repro.graph.partition.GraphPartitioner` shards
with bounded morsel channels.

The engine produces the same rows in the same order, and charges the same
work counters, as the serial row engine; the communication it *observes* at
its exchanges reconciles with the counts the ``graphscope_like`` backend
*simulates*, turning the optimizer's communication cost model into a
testable prediction.
"""

from repro.backend.runtime.dataflow.channel import Channel, Morsel, morselize
from repro.backend.runtime.dataflow.exchange import ExchangeSpec, ExchangeStats
from repro.backend.runtime.dataflow.plan import (
    Pipeline,
    SegmentPlan,
    StepSpec,
    build_pipelines,
    extract_segment,
    plan_refcounts,
)
from repro.backend.runtime.dataflow.runtime import (
    BROADCAST_THRESHOLD,
    DataflowExecutor,
    DataflowRowStream,
    open_dataflow_stream,
    recover_on_row_engine,
)

__all__ = [
    "BROADCAST_THRESHOLD",
    "Channel",
    "DataflowExecutor",
    "DataflowRowStream",
    "ExchangeSpec",
    "ExchangeStats",
    "Morsel",
    "Pipeline",
    "SegmentPlan",
    "StepSpec",
    "build_pipelines",
    "extract_segment",
    "morselize",
    "open_dataflow_stream",
    "plan_refcounts",
    "recover_on_row_engine",
]
