"""Partition-parallel dataflow runtime (``engine="dataflow"``).

Physical plans are compiled into per-partition pipelines connected by
explicit exchange operators -- hash shuffle on the newest bound vertex,
relocation for tree-shaped anchors and a lineage-ordered gather for the
final merge -- over :class:`~repro.graph.partition.GraphPartitioner`
shards.  Morsels (plain lists of lineage-tagged rows) are pushed
depth-first through the pipelines on the caller's thread.  Pipeline
breakers, joins included, run at the driver through the serial pipeline.

The engine produces the same rows in the same order, and charges the same
work counters, as the serial engines; its one job is to *observe* at its
exchanges the communication that the ``graphscope_like`` backend
*simulates*, which turns the optimizer's communication cost model into a
testable prediction.  An execution starts on the consumer's first pull
(:func:`stream_dataflow_rows`) and fails the way the serial engines do.
"""

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
    DataflowExecutor,
    stream_dataflow_rows,
)

__all__ = [
    "DataflowExecutor",
    "ExchangeSpec",
    "ExchangeStats",
    "Pipeline",
    "SegmentPlan",
    "StepSpec",
    "build_pipelines",
    "extract_segment",
    "plan_refcounts",
    "stream_dataflow_rows",
]
