"""Compiler from physical plans to partition-parallel dataflow segments.

The dataflow engine executes a physical plan as an alternation of

* **parallel segments** -- maximal single-input chains of operators with a
  dataflow kernel registered in
  :mod:`repro.backend.runtime.kernels.registry` (see
  :mod:`repro.backend.runtime.dataflow.steps`), compiled into per-partition
  pipelines connected by exchange operators; and
* **driver operators** -- pipeline breakers (Sort, Aggregate, HashJoin,
  Limit, Dedup, Union) interpreted at the driver by the serial row-engine
  handlers over the gathered segment outputs.

A segment is *scan-sourced* when its bottom operator is a ``ScanVertex``
(each partition scans the vertices it owns) and *scatter-sourced* when the
chain sits on top of a driver operator or a shared subtree, whose
materialized rows are dealt round-robin to the partitions.

Exchange placement implements the locality discipline of the GOpt cost
model: a row always lives on the partition owning the anchor of the next
adjacency-consuming operator.  A *relocate* exchange (unpriced) restores
that invariant when a tree-shaped pattern expands from an older anchor; a
*shuffle* exchange (priced) follows every operator that binds a new vertex,
routing each row to its new owner.  With that invariant, the rows observed
crossing partitions at priced exchanges are exactly the rows the simulated
cost model counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import repro.backend.runtime.dataflow.steps  # noqa: F401 - registers kernels
from repro.backend.runtime.dataflow.exchange import ExchangeSpec
from repro.backend.runtime.kernels import registry
from repro.backend.runtime.kernels.common import plan_refcounts
from repro.gir.expressions import TagRef
from repro.optimizer.physical_plan import (
    ExpandEdge,
    ExpandInto,
    ExpandIntersect,
    PathExpand,
    PhysicalOperator,
    Project,
    ScanVertex,
)

__all__ = [
    "Pipeline",
    "SegmentPlan",
    "StepSpec",
    "build_pipelines",
    "extract_segment",
    "plan_refcounts",
]


def _parallelizable(op: PhysicalOperator) -> bool:
    """Whether the dataflow engine has a partition-parallel kernel for ``op``."""
    return registry.has_kernel(registry.MODE_DATAFLOW, type(op))


@dataclass
class StepSpec:
    """One operator of a segment plus the exchanges around it."""

    op: PhysicalOperator
    #: hash-exchange rows on this tag *before* the op (unpriced relocation)
    relocate_tag: Optional[str] = None
    #: hash-exchange rows on this tag *after* the op (priced shuffle)
    shuffle: Optional[ExchangeSpec] = None


@dataclass
class SegmentPlan:
    """A compiled parallel segment: steps bottom-up plus its source."""

    root: PhysicalOperator
    steps: List[StepSpec]
    #: None for scan-sourced segments; otherwise the operator whose
    #: materialized rows are scattered to the partitions
    source: Optional[PhysicalOperator] = None

    @property
    def scan(self) -> Optional[ScanVertex]:
        op = self.steps[0].op
        return op if isinstance(op, ScanVertex) else None


@dataclass
class Pipeline:
    """A maximal run of fused steps executed without crossing an exchange."""

    steps: List[StepSpec]
    #: exchange routing this pipeline's output, or None for a local handoff
    #: to the next pipeline / the final gather
    out_exchange: Optional[ExchangeSpec] = None


def _anchor_tag(op: PhysicalOperator) -> Optional[str]:
    """The tag whose vertex the operator reads adjacency from, if any."""
    if isinstance(op, (ExpandEdge, ExpandInto, PathExpand)):
        return op.anchor_tag
    if isinstance(op, ExpandIntersect):
        return op.branches[0].anchor_tag
    return None


def extract_segment(op: PhysicalOperator,
                    refcounts: Dict[int, int]) -> Optional[SegmentPlan]:
    """The maximal parallel segment rooted at ``op``, or None.

    The chain extends downward through operators with a registered dataflow
    kernel as long as the link is private (interior nodes referenced by
    exactly one parent -- a shared subtree must materialize once, so it
    becomes the segment's scatter source instead).
    """
    if not _parallelizable(op):
        return None
    chain: List[PhysicalOperator] = []
    node: Optional[PhysicalOperator] = op
    source: Optional[PhysicalOperator] = None
    while node is not None and _parallelizable(node) and (
            node is op or refcounts.get(id(node), 1) == 1):
        chain.append(node)
        if isinstance(node, ScanVertex):
            source = None
            node = None
            break
        source = node.inputs[0]
        node = source
    else:
        source = node if node is not None else source
    chain.reverse()  # bottom-up

    steps: List[StepSpec] = []
    # the tag whose vertex each row is currently co-located with (None when
    # unknown, e.g. scatter sources or after a projection dropped it)
    route_tag: Optional[str] = None
    if isinstance(chain[0], ScanVertex) and source is None:
        route_tag = chain[0].tag
    for node in chain:
        spec = StepSpec(node)
        anchor = _anchor_tag(node)
        if anchor is not None and route_tag != anchor:
            spec.relocate_tag = anchor
            route_tag = anchor
        if isinstance(node, ExpandEdge):
            spec.shuffle = ExchangeSpec(node.target_tag, priced=True)
            route_tag = node.target_tag
        elif isinstance(node, ExpandIntersect):
            spec.shuffle = ExchangeSpec(node.target_tag, priced=True,
                                        coalesce_bundles=True)
            route_tag = node.target_tag
        elif isinstance(node, PathExpand) and not node.closes:
            spec.shuffle = ExchangeSpec(node.target_tag, priced=True)
            route_tag = node.target_tag
        elif isinstance(node, Project) and route_tag is not None:
            if node.append:
                # an appended alias may shadow the co-location binding
                if any(item.alias == route_tag for item in node.items):
                    route_tag = None
            else:
                preserved = any(
                    isinstance(item.expr, TagRef) and item.expr.tag == route_tag
                    and item.alias == route_tag
                    for item in node.items)
                if not preserved:
                    # the co-location tag was dropped or rebound; a later
                    # expansion will relocate explicitly
                    route_tag = None
        steps.append(spec)
    return SegmentPlan(root=op, steps=steps, source=source)


def build_pipelines(segment: SegmentPlan) -> List[Pipeline]:
    """Split a segment's steps into exchange-delimited fused pipelines."""
    pipelines: List[Pipeline] = []
    current: List[StepSpec] = []
    for spec in segment.steps:
        if spec.relocate_tag is not None and (current or pipelines):
            # close the running pipeline with a relocation; when the previous
            # step already ended on a shuffle this becomes a pass-through
            # stage that re-routes rows to the next expansion's anchor
            pipelines.append(Pipeline(current,
                                      ExchangeSpec(spec.relocate_tag, priced=False)))
            current = []
        current.append(spec)
        if spec.shuffle is not None:
            pipelines.append(Pipeline(current, spec.shuffle))
            current = []
    if current:
        pipelines.append(Pipeline(current, None))
    elif pipelines:
        # chain ended on a shuffle: add a pass-through stage so the segment
        # always terminates in a local pipeline the gather can read from
        pipelines.append(Pipeline([], None))
    return pipelines
