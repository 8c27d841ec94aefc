"""Pattern graphs: the graph half of a CGP (paper Section 3).

A :class:`PatternGraph` is a small connected graph whose vertices and edges
carry type constraints (Basic/Union/All), optional filter predicates (pushed
in by the ``FilterIntoPattern`` rule), optional property columns to retain
(set by ``FieldTrim``), and optional variable-length hop ranges
(``EXPAND_PATH``).  The CBO plans pattern execution by enumerating
edge-subsets of the pattern, so the class offers subpattern extraction,
merging (for ``JoinToPattern``) and canonical keys for statistics lookups.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import GirBuildError
from repro.gir.expressions import Expr
from repro.graph.types import Direction, TypeConstraint


class PathConstraint(enum.Enum):
    """Semantics of variable-length path expansion (paper Section 5.1)."""

    ARBITRARY = "arbitrary"
    SIMPLE = "simple"
    TRAIL = "trail"


@dataclass(frozen=True)
class PatternVertex:
    """A pattern vertex with its type constraint and pushed-down filters."""

    name: str
    constraint: TypeConstraint = field(default_factory=TypeConstraint.all_types)
    predicates: Tuple[Expr, ...] = ()
    columns: Optional[FrozenSet[str]] = None

    def with_constraint(self, constraint: TypeConstraint) -> "PatternVertex":
        return replace(self, constraint=constraint)

    def with_predicate(self, predicate: Expr) -> "PatternVertex":
        return replace(self, predicates=self.predicates + (predicate,))

    def with_columns(self, columns: Iterable[str]) -> "PatternVertex":
        return replace(self, columns=frozenset(columns))


@dataclass(frozen=True)
class PatternEdge:
    """A directed pattern edge ``src -> dst`` (possibly variable-length)."""

    name: str
    src: str
    dst: str
    constraint: TypeConstraint = field(default_factory=TypeConstraint.all_types)
    predicates: Tuple[Expr, ...] = ()
    min_hops: int = 1
    max_hops: int = 1
    path_constraint: PathConstraint = PathConstraint.ARBITRARY

    @property
    def is_path(self) -> bool:
        """Whether this edge is a variable-length path expansion."""
        return self.min_hops != 1 or self.max_hops != 1

    def with_constraint(self, constraint: TypeConstraint) -> "PatternEdge":
        return replace(self, constraint=constraint)

    def with_predicate(self, predicate: Expr) -> "PatternEdge":
        return replace(self, predicates=self.predicates + (predicate,))

    def other_endpoint(self, vertex_name: str) -> str:
        if vertex_name == self.src:
            return self.dst
        if vertex_name == self.dst:
            return self.src
        raise GirBuildError("vertex %r is not an endpoint of edge %r" % (vertex_name, self.name))

    def direction_from(self, vertex_name: str) -> Direction:
        """Expansion direction when anchored at ``vertex_name``."""
        if vertex_name == self.src:
            return Direction.OUT
        if vertex_name == self.dst:
            return Direction.IN
        raise GirBuildError("vertex %r is not an endpoint of edge %r" % (vertex_name, self.name))


class PatternGraph:
    """A small connected graph with typed, optionally filtered vertices and edges."""

    def __init__(self):
        self._vertices: Dict[str, PatternVertex] = {}
        self._edges: Dict[str, PatternEdge] = {}
        self._incident: Dict[str, Set[str]] = {}

    # -- construction -----------------------------------------------------
    def add_vertex(
        self,
        name: str,
        constraint=None,
        predicates: Sequence[Expr] = (),
        columns: Optional[Iterable[str]] = None,
    ) -> "PatternGraph":
        """Add (or refine) a pattern vertex."""
        constraint = TypeConstraint.coerce(constraint)
        if name in self._vertices:
            existing = self._vertices[name]
            merged = existing.constraint.intersect(constraint) if not constraint.is_all else existing.constraint
            self._vertices[name] = replace(
                existing,
                constraint=merged,
                predicates=existing.predicates + tuple(predicates),
            )
            return self
        cols = frozenset(columns) if columns is not None else None
        self._vertices[name] = PatternVertex(name, constraint, tuple(predicates), cols)
        self._incident.setdefault(name, set())
        return self

    def add_edge(
        self,
        name: str,
        src: str,
        dst: str,
        constraint=None,
        predicates: Sequence[Expr] = (),
        min_hops: int = 1,
        max_hops: int = 1,
        path_constraint: PathConstraint = PathConstraint.ARBITRARY,
    ) -> "PatternGraph":
        """Add a directed pattern edge between existing pattern vertices."""
        if src not in self._vertices or dst not in self._vertices:
            raise GirBuildError(
                "edge %r references unknown pattern vertices (%r, %r)" % (name, src, dst)
            )
        if name in self._edges:
            raise GirBuildError("duplicate pattern edge name %r" % (name,))
        if min_hops < 0 or max_hops < min_hops:
            raise GirBuildError("invalid hop range [%d, %d] for edge %r" % (min_hops, max_hops, name))
        constraint = TypeConstraint.coerce(constraint)
        self._edges[name] = PatternEdge(
            name, src, dst, constraint, tuple(predicates), min_hops, max_hops, path_constraint
        )
        self._incident[src].add(name)
        self._incident[dst].add(name)
        return self

    # -- access -----------------------------------------------------------
    def vertex(self, name: str) -> PatternVertex:
        try:
            return self._vertices[name]
        except KeyError:
            raise GirBuildError("unknown pattern vertex %r" % (name,))

    def edge(self, name: str) -> PatternEdge:
        try:
            return self._edges[name]
        except KeyError:
            raise GirBuildError("unknown pattern edge %r" % (name,))

    def has_vertex(self, name: str) -> bool:
        return name in self._vertices

    def has_edge(self, name: str) -> bool:
        return name in self._edges

    @property
    def vertex_names(self) -> Tuple[str, ...]:
        return tuple(self._vertices)

    @property
    def edge_names(self) -> Tuple[str, ...]:
        return tuple(self._edges)

    @property
    def vertices(self) -> Tuple[PatternVertex, ...]:
        return tuple(self._vertices.values())

    @property
    def edges(self) -> Tuple[PatternEdge, ...]:
        return tuple(self._edges.values())

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def incident_edges(self, vertex_name: str) -> Tuple[PatternEdge, ...]:
        """Edges having ``vertex_name`` as an endpoint."""
        return tuple(self._edges[e] for e in sorted(self._incident.get(vertex_name, ())))

    def out_edges(self, vertex_name: str) -> Tuple[PatternEdge, ...]:
        return tuple(e for e in self.incident_edges(vertex_name) if e.src == vertex_name)

    def in_edges(self, vertex_name: str) -> Tuple[PatternEdge, ...]:
        return tuple(e for e in self.incident_edges(vertex_name) if e.dst == vertex_name)

    def neighbors(self, vertex_name: str) -> Tuple[str, ...]:
        """Adjacent pattern vertices (regardless of direction)."""
        result = []
        for edge in self.incident_edges(vertex_name):
            result.append(edge.other_endpoint(vertex_name))
        return tuple(dict.fromkeys(result))

    def degree(self, vertex_name: str) -> int:
        return len(self._incident.get(vertex_name, ()))

    def has_path_edges(self) -> bool:
        """Whether any edge is a variable-length path expansion."""
        return any(e.is_path for e in self._edges.values())

    # -- connectivity -------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the undirected version of the pattern is connected."""
        if not self._vertices:
            return True
        start = next(iter(self._vertices))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self._vertices)

    # -- functional updates ---------------------------------------------------
    def copy(self) -> "PatternGraph":
        clone = PatternGraph()
        clone._vertices = dict(self._vertices)
        clone._edges = dict(self._edges)
        clone._incident = {k: set(v) for k, v in self._incident.items()}
        return clone

    def with_vertex(self, vertex: PatternVertex) -> "PatternGraph":
        """Return a copy with one vertex replaced."""
        if vertex.name not in self._vertices:
            raise GirBuildError("unknown pattern vertex %r" % (vertex.name,))
        clone = self.copy()
        clone._vertices[vertex.name] = vertex
        return clone

    def with_edge(self, edge: PatternEdge) -> "PatternGraph":
        """Return a copy with one edge replaced (endpoints must be unchanged)."""
        existing = self.edge(edge.name)
        if (existing.src, existing.dst) != (edge.src, edge.dst):
            raise GirBuildError("cannot change endpoints of edge %r" % (edge.name,))
        clone = self.copy()
        clone._edges[edge.name] = edge
        return clone

    def with_vertex_constraint(self, name: str, constraint: TypeConstraint) -> "PatternGraph":
        return self.with_vertex(self.vertex(name).with_constraint(constraint))

    def with_edge_constraint(self, name: str, constraint: TypeConstraint) -> "PatternGraph":
        return self.with_edge(self.edge(name).with_constraint(constraint))

    # -- subpatterns (used by the CBO) -----------------------------------------
    def subpattern_by_edges(self, edge_names: Iterable[str]) -> "PatternGraph":
        """Induced subpattern containing the given edges and their endpoints."""
        sub = PatternGraph()
        names = list(dict.fromkeys(edge_names))
        for edge_name in names:
            edge = self.edge(edge_name)
            for endpoint in (edge.src, edge.dst):
                if not sub.has_vertex(endpoint):
                    vertex = self._vertices[endpoint]
                    sub._vertices[endpoint] = vertex
                    sub._incident.setdefault(endpoint, set())
            sub._edges[edge_name] = edge
            sub._incident[edge.src].add(edge_name)
            sub._incident[edge.dst].add(edge_name)
        return sub

    def single_vertex_pattern(self, vertex_name: str) -> "PatternGraph":
        """A pattern containing just one of this pattern's vertices."""
        sub = PatternGraph()
        vertex = self.vertex(vertex_name)
        sub._vertices[vertex_name] = vertex
        sub._incident[vertex_name] = set()
        return sub

    def common_vertices(self, other: "PatternGraph") -> FrozenSet[str]:
        return frozenset(self._vertices) & frozenset(other._vertices)

    def common_edges(self, other: "PatternGraph") -> FrozenSet[str]:
        return frozenset(self._edges) & frozenset(other._edges)

    def merge(self, other: "PatternGraph") -> "PatternGraph":
        """Union by name, intersecting constraints of shared vertices/edges.

        This realises the ``JoinToPattern`` rule: two patterns joined on their
        common vertices/edges become a single pattern.
        """
        merged = self.copy()
        for name, vertex in other._vertices.items():
            if name in merged._vertices:
                existing = merged._vertices[name]
                merged._vertices[name] = replace(
                    existing,
                    constraint=existing.constraint.intersect(vertex.constraint),
                    predicates=tuple(dict.fromkeys(existing.predicates + vertex.predicates)),
                )
            else:
                merged._vertices[name] = vertex
                merged._incident.setdefault(name, set())
        for name, edge in other._edges.items():
            if name in merged._edges:
                existing = merged._edges[name]
                if (existing.src, existing.dst) != (edge.src, edge.dst):
                    raise GirBuildError(
                        "cannot merge patterns: edge %r connects different vertices" % (name,)
                    )
                merged._edges[name] = replace(
                    existing,
                    constraint=existing.constraint.intersect(edge.constraint),
                    predicates=tuple(dict.fromkeys(existing.predicates + edge.predicates)),
                )
            else:
                merged._edges[name] = edge
                merged._incident[edge.src].add(name)
                merged._incident[edge.dst].add(name)
        return merged

    # -- canonical keys (statistics lookups) -------------------------------------
    def canonical_key(self) -> Tuple:
        """Isomorphism-invariant key used by the estimation cache.

        Up to 7 vertices the key is an exact canonical form (equal keys <=>
        isomorphic patterns), computed by colour refinement rather than over
        all vertex orderings.  Larger patterns fall back to a one-round
        signature key that is invariant but not guaranteed collision-free;
        collisions only merge cache entries.
        """
        names = sorted(self._vertices)
        if len(names) <= 7:
            return self._exact_canonical_key(names)
        return self._refined_key(names)

    def _exact_canonical_key(self, names: List[str]) -> Tuple:
        """Refine vertex colours, then minimise the edge code within colour classes.

        A colour starts as the rank of the vertex's constraint label and is
        refined to the rank of (colour, sorted incident (direction, edge label,
        hops, neighbour colour)) until no class splits.  Classes take
        consecutive positions in colour order; only orderings *inside* a class
        are tried.  Known worst case: k identical, symmetric vertices (a 7-cycle
        of ``Person-KNOWS``) stay one class and still cost k! edge codes.
        """
        count = len(names)
        index = {name: i for i, name in enumerate(names)}
        labels = [self._vertices[name].constraint.label() for name in names]
        edges = [(index[e.src], index[e.dst], e.constraint.label(), e.min_hops, e.max_hops)
                 for e in self._edges.values()]
        signatures: List = labels
        num_classes = 0
        while True:
            ranks = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
            colour = [ranks[sig] for sig in signatures]
            if len(ranks) == num_classes or len(ranks) == count:
                break
            num_classes = len(ranks)
            incident: List[List[Tuple]] = [[] for _ in names]
            for src, dst, label, min_hops, max_hops in edges:
                incident[src].append((0, label, min_hops, max_hops, colour[dst]))
                incident[dst].append((1, label, min_hops, max_hops, colour[src]))
            signatures = [(colour[v], tuple(sorted(incident[v]))) for v in range(count)]
        classes: List[List[int]] = [[] for _ in ranks]
        for v, rank in enumerate(colour):
            classes[rank].append(v)
        position = [0] * count
        best = None
        for ordering in itertools.product(*map(itertools.permutations, classes)):
            for slot, v in enumerate(itertools.chain.from_iterable(ordering)):
                position[v] = slot
            code = sorted((position[s], position[d], label, min_hops, max_hops)
                          for s, d, label, min_hops, max_hops in edges)
            if best is None or code < best:
                best = code
        return ("exact", tuple(sorted(labels)), tuple(best))

    def _refined_key(self, names: List[str]) -> Tuple:
        signature = {}
        for name in names:
            vertex = self._vertices[name]
            incident = sorted(
                (e.constraint.label(), "out" if e.src == name else "in")
                for e in self.incident_edges(name)
            )
            signature[name] = (vertex.constraint.label(), tuple(incident))
        vertex_code = tuple(sorted(signature.values()))
        edge_code = tuple(sorted(
            (signature[e.src], signature[e.dst], e.constraint.label(), e.min_hops, e.max_hops)
            for e in self._edges.values()
        ))
        return ("refined", vertex_code, edge_code)

    # -- misc ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable multi-line description used in plan explanations."""
        lines = ["Pattern(vertices=%d, edges=%d)" % (self.num_vertices, self.num_edges)]
        for vertex in sorted(self._vertices.values(), key=lambda v: v.name):
            suffix = " filters=%d" % len(vertex.predicates) if vertex.predicates else ""
            lines.append("  (%s:%s)%s" % (vertex.name, vertex.constraint.label(), suffix))
        for edge in sorted(self._edges.values(), key=lambda e: e.name):
            hops = "" if not edge.is_path else "*%d..%d" % (edge.min_hops, edge.max_hops)
            lines.append(
                "  (%s)-[%s:%s%s]->(%s)" % (edge.src, edge.name, edge.constraint.label(), hops, edge.dst)
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "PatternGraph(V=%r, E=%r)" % (list(self._vertices), list(self._edges))
