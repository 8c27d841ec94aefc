"""Simulated execution backends.

Two backends interpret GOpt physical plans against the in-memory property
graph:

* :class:`Neo4jLikeBackend` -- a single-machine interpreted runtime in the
  style of Neo4j: no communication cost, Expand/ExpandInto/HashJoin operators.
* :class:`GraphScopeLikeBackend` -- a hash-partitioned dataflow runtime in the
  style of GraphScope/Gaia: ExpandIntersect (worst-case-optimal) expansion,
  local/global aggregation, and shuffle accounting for cross-partition data
  movement.

Both report work counters (intermediate results, edges traversed, tuples
shuffled) in addition to wall-clock time, and both enforce an intermediate
result / time budget so pathological plans surface as "OT" exactly like the
paper's over-time markers.
"""

from repro.backend.base import (
    ENGINES,
    Backend,
    ExecutionMetrics,
    ExecutionOptions,
    ExecutionResult,
    ResultCursor,
    available_engines,
)
from repro.backend.graphscope_like import GraphScopeLikeBackend
from repro.backend.neo4j_like import Neo4jLikeBackend

__all__ = [
    "ENGINES",
    "Backend",
    "ExecutionResult",
    "ExecutionMetrics",
    "ExecutionOptions",
    "ResultCursor",
    "Neo4jLikeBackend",
    "GraphScopeLikeBackend",
    "available_engines",
]
