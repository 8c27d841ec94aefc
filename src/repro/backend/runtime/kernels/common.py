"""Shared semantic helpers of the operator-kernel layer.

These are the single authoritative implementations of the value-level
semantics every execution engine must agree on:

* :func:`scan_candidates` -- which vertices a scan probes, in which order;
* :func:`vertex_matches` / :func:`edge_matches` -- predicate probing for a
  candidate graph element on top of an existing binding;
* :func:`retrieve_properties` -- the property-retrieval cost accounting that
  FieldTrim optimizes (the retrieved values themselves are never needed by
  the interpreters: the evaluator reads the graph lazily);
* :func:`hashable` / :func:`row_key` -- dedup keys for arbitrary binding
  values and whole rows;
* :func:`sort_key` -- the mixed-type total order used by Sort;
* :func:`merge_rows` -- the consistency-checked row merge of HashJoin;
* :func:`plan_refcounts` / :func:`shared_subtree_ids` -- plan-sharing
  analysis (ComSubPattern subtrees that must materialize exactly once).

Every engine shares these helpers and the one row format, :data:`Row`;
how rows are grouped (one at a time, lists, morsels) is the concern of the
thin adapters in the interpreter modules.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Optional, Set

from repro.backend.runtime.binding import ERef, VRef
from repro.errors import ExecutionError

#: A binding table row, the one row format of every engine: ``row`` streams
#: them one at a time, ``vectorized`` in lists, ``dataflow`` in morsels.
Row = Dict[str, object]


class OverlayBinding:
    """A binding that answers from ``extra`` first, then a base binding.

    Used when probing predicates for a candidate element that is not part of
    the row yet: the copy-free equivalent of ``dict(row); probe[tag] = ref``.
    """

    __slots__ = ("base", "extra")

    def __init__(self, base, extra: Dict[str, object]):
        self.base = base
        self.extra = extra

    def get(self, tag: str, default=None):
        if tag in self.extra:
            return self.extra[tag]
        if self.base is None:
            return default
        return self.base.get(tag, default)


# -- element matching ---------------------------------------------------------------

def scan_candidates(op, ctx) -> Iterable[int]:
    """The vertex ids a ``ScanVertex`` probes, in ``vertices_of_type`` order:
    those the property index returns for its ``lookup`` when it can answer
    (a superset of the output -- predicates still run), else all of them."""
    if op.lookup is not None:
        key, value = op.lookup
        ids = ctx.graph.vertices_with(op.constraint, key, ctx.evaluator.evaluate(value, None))
        if ids is not None:
            # a seek may probe nothing, so no ``tick`` would see an expired deadline
            ctx.check_deadline()
            return ids
    return ctx.graph.vertices_of_type(op.constraint)


def vertex_matches(ctx, vid: int, constraint, predicates, tag: str,
                   binding=None) -> bool:
    """Whether vertex ``vid`` satisfies the type constraint and predicates.

    ``binding`` is the row the candidate would extend (``None`` for scans);
    predicates are evaluated against the binding overlaid with ``tag`` bound
    to the candidate, without copying the row.
    """
    if not constraint.contains(ctx.graph.vertex_type(vid)):
        return False
    if predicates:
        probe = OverlayBinding(binding, {tag: VRef(vid)})
        for predicate in predicates:
            if not ctx.evaluator.evaluate(predicate, probe):
                return False
    return True


def edge_matches(ctx, eid: int, predicates, tag: str, binding) -> bool:
    """Whether edge ``eid`` satisfies the edge predicates on top of ``binding``."""
    if not predicates:
        return True
    probe = OverlayBinding(binding, {tag: ERef(eid)})
    for predicate in predicates:
        if not ctx.evaluator.evaluate(predicate, probe):
            return False
    return True


def retrieve_properties(ctx, vid: int, columns) -> None:
    """Account the property retrieval for a newly bound vertex.

    Real backends materialise the requested properties of every matched
    vertex (all of them unless FieldTrim narrowed the COLUMNS).  The values
    are not needed here, but charging the retrieval reproduces the cost
    FieldTrim saves.
    """
    properties = ctx.graph.vertex_properties(vid)
    if columns is None:
        retrieved = len(properties)
    elif columns:
        retrieved = sum(1 for key in columns if key in properties)
    else:
        retrieved = 0
    ctx.counters.cells_produced += retrieved


# -- value-level semantics ----------------------------------------------------------

def hashable(value):
    """A hashable stand-in for a binding value (dedup/join keys)."""
    if isinstance(value, (list, set)):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


def row_key(row: Row):
    """Whole-row dedup key: the row's cells, sorted by tag."""
    return tuple(sorted((tag, hashable(value)) for tag, value in row.items()))


def sort_key(value):
    """Total order over mixed-type values: None first, then by type, then value."""
    if value is None:
        return (0, "", "")
    if isinstance(value, bool):
        return (1, "bool", value)
    if isinstance(value, (int, float)):
        return (1, "number", value)
    return (2, type(value).__name__, str(value))


def merge_rows(left: Row, right: Row) -> Optional[Row]:
    """Merge two rows; ``None`` when a shared tag binds conflicting values."""
    merged = dict(left)
    for tag, value in right.items():
        if tag in merged and merged[tag] != value:
            return None
        merged[tag] = value
    return merged


def unknown_aggregate(function) -> ExecutionError:
    return ExecutionError("unknown aggregate function %r" % (function,))


# -- plan-sharing analysis ----------------------------------------------------------

def plan_refcounts(root) -> Dict[int, int]:
    """How many parents reference each operator node (shared subtrees > 1)."""
    counts: Counter = Counter()
    stack = [root]
    seen = set()
    counts[id(root)] += 1
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for child in node.inputs:
            counts[id(child)] += 1
            stack.append(child)
    return dict(counts)


def shared_subtree_ids(root) -> Set[int]:
    """ids of operators referenced by more than one parent.

    A shared subtree (the ComSubPattern rewrite) must execute exactly once
    per plan run; the serial pipeline drains such nodes once into the
    operator cache instead of streaming them twice.
    """
    return {op_id for op_id, count in plan_refcounts(root).items() if count > 1}
