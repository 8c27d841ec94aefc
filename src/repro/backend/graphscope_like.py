"""GraphScope-like backend: partitioned dataflow runtime.

Stands in for GraphScope v0.29.0 with the Gaia engine: the graph is hash
partitioned into a configurable number of partitions, worst-case-optimal
``ExpandIntersect`` is available, aggregation runs in local/global mode, and
every cross-partition intermediate result is counted as shuffled communication
(which the GOpt cost model prices, Section 6.3.2).
"""

from __future__ import annotations

from typing import Optional

from repro.backend.base import Backend
from repro.graph.partition import GraphPartitioner
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.physical_spec import BackendProfile, graphscope_profile


class GraphScopeLikeBackend(Backend):
    """Distributed dataflow runtime in the style of GraphScope/Gaia."""

    name = "graphscope"

    def __init__(self, graph: PropertyGraph, num_partitions: int = 4, **options):
        """``options`` are :class:`~repro.backend.base.Backend`'s keywords."""
        super().__init__(graph, **options)
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions

    def _partitioner(self) -> Optional[GraphPartitioner]:
        if self.num_partitions <= 1:
            return None
        return GraphPartitioner(self.num_partitions)

    def profile(self) -> BackendProfile:
        return graphscope_profile(self.num_partitions)
