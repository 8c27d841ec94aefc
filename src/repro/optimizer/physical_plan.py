"""Physical operators and plans.

Physical operators use CamelCase names (paper convention) and form a tree
just like logical plans.  They are declarative: the execution backends
(:mod:`repro.backend`) interpret them against the data graph.  ``to_dict``
provides the backend-neutral serialisation that plays the role of the paper's
protobuf output format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.gir.expressions import Expr
from repro.gir.operators import AggregateCall, ProjectItem, SortKey
from repro.gir.pattern import PathConstraint
from repro.graph.types import Direction, TypeConstraint


class PhysicalOperator:
    """Base class for physical operators; subclasses are frozen dataclasses."""

    inputs: Tuple["PhysicalOperator", ...] = ()

    @property
    def name(self) -> str:
        return type(self).__name__

    def with_inputs(self, inputs: Sequence["PhysicalOperator"]) -> "PhysicalOperator":
        return replace(self, inputs=tuple(inputs))

    def describe(self) -> str:
        return self.name

    def to_dict(self) -> dict:
        """Backend-neutral serialisation (stand-in for the protobuf output)."""
        payload = {"op": self.name}
        for key, value in self.__dict__.items():
            if key == "inputs":
                continue
            payload[key] = _serialise(value)
        payload["inputs"] = [child.to_dict() for child in self.inputs]
        return payload


def _serialise(value):
    if isinstance(value, TypeConstraint):
        return value.label()
    if isinstance(value, Direction):
        return value.value
    if isinstance(value, PathConstraint):
        return value.value
    if isinstance(value, Expr):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_serialise(v) for v in value]
    if isinstance(value, (ProjectItem, SortKey, AggregateCall, IntersectBranch)):
        return repr(value)
    return value


# -- graph operators ------------------------------------------------------------

@dataclass(frozen=True)
class ScanVertex(PhysicalOperator):
    """Scan data vertices satisfying a type constraint (and optional filters).

    ``lookup = (key, value expression)`` from a ``tag.key = literal | $param``
    conjunct makes the engines probe only the vertices the graph's property
    index returns for that value (every predicate is still tested).
    """

    tag: str
    constraint: TypeConstraint
    predicates: Tuple[Expr, ...] = ()
    columns: Optional[Tuple[str, ...]] = None
    lookup: Optional[Tuple[str, Expr]] = None
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        preds = " where %d filter(s)" % len(self.predicates) if self.predicates else ""
        seek = " via index(%s)" % self.lookup[0] if self.lookup else ""
        return "Scan %s:%s%s%s" % (self.tag, self.constraint.label(), preds, seek)


@dataclass(frozen=True)
class ExpandEdge(PhysicalOperator):
    """Expand adjacent edges of a bound vertex, binding a new edge and vertex."""

    anchor_tag: str
    edge_tag: str
    target_tag: str
    direction: Direction
    edge_constraint: TypeConstraint
    target_constraint: TypeConstraint
    edge_predicates: Tuple[Expr, ...] = ()
    target_predicates: Tuple[Expr, ...] = ()
    target_columns: Optional[Tuple[str, ...]] = None
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        arrow = "->" if self.direction is Direction.OUT else ("<-" if self.direction is Direction.IN else "--")
        return "Expand %s%s%s(%s:%s)" % (
            self.anchor_tag, arrow, self.edge_tag, self.target_tag, self.target_constraint.label(),
        )


@dataclass(frozen=True)
class ExpandInto(PhysicalOperator):
    """Close an edge between two already-bound vertices (Neo4j's ExpandInto)."""

    anchor_tag: str
    edge_tag: str
    target_tag: str
    direction: Direction
    edge_constraint: TypeConstraint
    edge_predicates: Tuple[Expr, ...] = ()
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "ExpandInto (%s, %s) via %s:%s" % (
            self.anchor_tag, self.target_tag, self.edge_tag, self.edge_constraint.label(),
        )


@dataclass(frozen=True)
class IntersectBranch:
    """One branch of an ExpandIntersect: expansion from a bound anchor vertex."""

    anchor_tag: str
    edge_tag: str
    direction: Direction
    edge_constraint: TypeConstraint
    edge_predicates: Tuple[Expr, ...] = ()

    def __repr__(self) -> str:
        return "%s-[%s:%s]-" % (self.anchor_tag, self.edge_tag, self.edge_constraint.label())


@dataclass(frozen=True)
class ExpandIntersect(PhysicalOperator):
    """Worst-case-optimal expansion: intersect neighbour sets of several anchors.

    This is GraphScope's ExpandIntersect operator (paper Fig. 7(c)); it binds
    one new vertex connected to every anchor, intersecting adjacency sets and
    unfolding the matched set only at the end.
    """

    target_tag: str
    target_constraint: TypeConstraint
    branches: Tuple[IntersectBranch, ...]
    target_predicates: Tuple[Expr, ...] = ()
    target_columns: Optional[Tuple[str, ...]] = None
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        anchors = ", ".join(b.anchor_tag for b in self.branches)
        return "ExpandIntersect %s(%s:%s) from [%s]" % (
            "", self.target_tag, self.target_constraint.label(), anchors,
        )


@dataclass(frozen=True)
class PathExpand(PhysicalOperator):
    """Variable-length path expansion between ``min_hops`` and ``max_hops``."""

    anchor_tag: str
    path_tag: str
    target_tag: str
    direction: Direction
    edge_constraint: TypeConstraint
    min_hops: int
    max_hops: int
    path_constraint: PathConstraint = PathConstraint.ARBITRARY
    target_constraint: TypeConstraint = field(default_factory=TypeConstraint.all_types)
    target_predicates: Tuple[Expr, ...] = ()
    target_columns: Optional[Tuple[str, ...]] = None
    closes: bool = False
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        mode = " into bound %s" % self.target_tag if self.closes else ""
        return "PathExpand %s-[%s:%s*%d..%d]->%s%s" % (
            self.anchor_tag, self.path_tag, self.edge_constraint.label(),
            self.min_hops, self.max_hops, self.target_tag, mode,
        )


@dataclass(frozen=True)
class HashJoin(PhysicalOperator):
    """Hash join of two sub-plans on equality of the key tags."""

    keys: Tuple[str, ...]
    join_type: str = "inner"
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "HashJoin keys=%s (%s)" % (list(self.keys), self.join_type)


# -- relational operators ----------------------------------------------------------

@dataclass(frozen=True)
class Filter(PhysicalOperator):
    """Row filter (SELECT)."""

    predicate: Expr
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "Filter %r" % (self.predicate,)


@dataclass(frozen=True)
class Project(PhysicalOperator):
    """Column projection."""

    items: Tuple[ProjectItem, ...]
    append: bool = False
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "Project [%s]%s" % (
            ", ".join(i.alias for i in self.items), " append" if self.append else "",
        )


@dataclass(frozen=True)
class Aggregate(PhysicalOperator):
    """Grouped aggregation.

    ``mode`` is ``"global"`` on single-machine backends and ``"local_global"``
    on the distributed backend (GroupLocal followed by GroupGlobal, as in the
    paper's Fig. 3(d) physical plan).
    """

    keys: Tuple[ProjectItem, ...]
    aggregations: Tuple[AggregateCall, ...]
    mode: str = "global"
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "Aggregate keys=[%s] aggs=[%s] (%s)" % (
            ", ".join(k.alias for k in self.keys),
            ", ".join(a.alias for a in self.aggregations),
            self.mode,
        )


@dataclass(frozen=True)
class Sort(PhysicalOperator):
    """Sort with optional top-k limit."""

    keys: Tuple[SortKey, ...]
    limit: Optional[int] = None
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "Sort limit=%s" % (self.limit,)


@dataclass(frozen=True)
class Limit(PhysicalOperator):
    count: int
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "Limit %d" % (self.count,)


@dataclass(frozen=True)
class Dedup(PhysicalOperator):
    """All-distinct filter over the given tags."""

    tags: Tuple[str, ...] = ()
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "Dedup [%s]" % (", ".join(self.tags) or "*",)


@dataclass(frozen=True)
class Union(PhysicalOperator):
    distinct: bool = False
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "Union%s" % (" distinct" if self.distinct else "",)


@dataclass(frozen=True)
class AllDifferent(PhysicalOperator):
    """Keep rows whose listed tags bind pairwise-distinct graph elements.

    This is the all-distinct filter of Remark 3.1 that converts homomorphism
    matches to Cypher's no-repeated-edge semantics.
    """

    tags: Tuple[str, ...]
    inputs: Tuple[PhysicalOperator, ...] = ()

    def describe(self) -> str:
        return "AllDifferent [%s]" % (", ".join(self.tags),)


class PhysicalPlan:
    """A tree of physical operators rooted at the final operator."""

    def __init__(self, root: PhysicalOperator):
        self.root = root

    def operators(self) -> Iterator[PhysicalOperator]:
        """Post-order traversal."""
        def walk(node: PhysicalOperator) -> Iterator[PhysicalOperator]:
            for child in node.inputs:
                yield from walk(child)
            yield node

        return walk(self.root)

    def operators_of_type(self, op_type) -> List[PhysicalOperator]:
        return [op for op in self.operators() if isinstance(op, op_type)]

    def size(self) -> int:
        return sum(1 for _ in self.operators())

    def explain(self) -> str:
        lines: List[str] = []

        def render(node: PhysicalOperator, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.inputs:
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return self.root.to_dict()

    def __repr__(self) -> str:
        return "PhysicalPlan(size=%d)" % (self.size(),)
