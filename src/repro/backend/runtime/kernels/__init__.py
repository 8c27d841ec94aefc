"""The operator-kernel layer: one semantic implementation per physical operator.

Layer stack::

    languages -> GIR -> optimizer -> physical plan
                                        |
                                  kernel layer (this package)
                                        |
              +-------------------------+----------------+
              | batch pipeline          | dataflow       |
              | (streaming.py; ``row``  | (partitions)   |
              | is it at 1 row/batch)   |                |

* :mod:`~repro.backend.runtime.kernels.common` -- shared value semantics
  (matching, property retrieval, sort/dedup/merge keys, plan sharing);
* :mod:`~repro.backend.runtime.kernels.rowwise` -- per-row kernels for the
  streamable operators, emitting through a sink;
* :mod:`~repro.backend.runtime.kernels.sinks` -- the dict-row sink of the
  serial pipeline;
* :mod:`~repro.backend.runtime.kernels.state` -- stateful kernels for the
  pipeline breakers (dedup, sort/top-k, aggregation, hash join), fed
  incrementally by the serial pipeline;
* :mod:`~repro.backend.runtime.kernels.registry` -- the (mode, operator) ->
  kernel registry every engine dispatches through, with declared fallbacks
  and a completeness check.
"""

from repro.backend.runtime.kernels import common, registry, rowwise, sinks, state
from repro.backend.runtime.kernels.common import (
    Row,
    edge_matches,
    hashable,
    merge_rows,
    plan_refcounts,
    retrieve_properties,
    row_key,
    shared_subtree_ids,
    sort_key,
    vertex_matches,
)
from repro.backend.runtime.kernels.state import (
    AggregateState,
    DistinctState,
    HashJoinState,
    TopKState,
    sort_permutation,
)

__all__ = [
    "AggregateState",
    "DistinctState",
    "HashJoinState",
    "Row",
    "TopKState",
    "common",
    "edge_matches",
    "hashable",
    "merge_rows",
    "plan_refcounts",
    "registry",
    "retrieve_properties",
    "row_key",
    "rowwise",
    "shared_subtree_ids",
    "sinks",
    "sort_key",
    "sort_permutation",
    "state",
    "vertex_matches",
]
