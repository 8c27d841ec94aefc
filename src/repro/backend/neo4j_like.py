"""Neo4j-like backend: single-machine interpreted runtime.

Stands in for Neo4j v4.4.9 in the experiments: a sequential executor with the
Expand / ExpandInto / HashJoin physical operators, no partitioning and no
communication cost.  Plans produced for this backend by GOpt use the
``neo4j_profile`` (ExpandInto costing); plans produced by the baseline
``CypherPlannerBaseline`` model Neo4j's own CypherPlanner.
"""

from __future__ import annotations

from repro.backend.base import Backend
from repro.optimizer.physical_spec import BackendProfile, neo4j_profile


class Neo4jLikeBackend(Backend):
    """Single-machine interpreted runtime in the style of Neo4j."""

    name = "neo4j"

    def profile(self) -> BackendProfile:
        return neo4j_profile()
