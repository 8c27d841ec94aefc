"""In-memory typed property graph with adjacency indexes.

This is the data graph ``G = (V_G, E_G)`` of the paper's preliminaries: every
vertex and edge has a type (``lambda_G``) and a property map.  The class keeps
per-type vertex indexes and per-vertex, per-label adjacency lists so that the
execution backends can do the three operations that dominate CGP evaluation:

* scanning vertices by (a set of) types, or by a property value (``vertices_with``),
* expanding adjacent edges filtered by label constraint and direction, and
* set-intersection of neighbourhoods (worst-case optimal ``ExpandIntersect``).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import GraphError
from repro.graph.schema import GraphSchema
from repro.graph.types import Direction, TypeConstraint


@dataclass(frozen=True)
class Vertex:
    """Snapshot view of a vertex."""

    id: int
    type: str
    properties: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    """Snapshot view of an edge ``src -[label]-> dst``."""

    id: int
    src: int
    dst: int
    label: str
    properties: Mapping[str, object] = field(default_factory=dict)


class PropertyGraph:
    """Directed multigraph with typed vertices/edges and property maps."""

    def __init__(self, schema: Optional[GraphSchema] = None, validate: bool = False):
        self._schema = schema
        self._validate = validate and schema is not None
        self._vertex_type: Dict[int, str] = {}
        self._vertex_props: Dict[int, dict] = {}
        self._edges: Dict[int, Tuple[int, int, str]] = {}
        self._edge_props: Dict[int, dict] = {}
        # adjacency: vertex -> label -> list of (edge id, other endpoint)
        self._out: Dict[int, Dict[str, List[Tuple[int, int]]]] = defaultdict(dict)
        self._in: Dict[int, Dict[str, List[Tuple[int, int]]]] = defaultdict(dict)
        self._vertices_by_type: Dict[str, List[int]] = defaultdict(list)
        self._edge_label_counts: Dict[str, int] = defaultdict(int)
        self._edge_triple_counts: Dict[Tuple[str, str, str], int] = defaultdict(int)
        # label -> key -> (value -> ids in insertion order), or None when the
        # label stores an unhashable value under key; built on first request
        self._property_indexes: Dict[str, Dict[str, Optional[Dict[object, List[int]]]]] = {}
        self._index_lock = threading.Lock()
        self._next_vertex_id = 0
        self._next_edge_id = 0

    # -- construction -------------------------------------------------------
    def add_vertex(
        self,
        vertex_type: str,
        properties: Optional[Mapping[str, object]] = None,
        vertex_id: Optional[int] = None,
    ) -> int:
        """Add a vertex and return its id (auto-assigned when not given)."""
        if self._validate and not self._schema.has_vertex_type(vertex_type):
            raise GraphError("vertex type %r not in schema" % (vertex_type,))
        if vertex_id is None:
            vertex_id = self._next_vertex_id
        if vertex_id in self._vertex_type:
            raise GraphError("duplicate vertex id %d" % (vertex_id,))
        self._next_vertex_id = max(self._next_vertex_id, vertex_id + 1)
        self._vertex_type[vertex_id] = vertex_type
        if properties:
            self._vertex_props[vertex_id] = dict(properties)
        # under the lock: an index being built concurrently must not miss it
        with self._index_lock:
            self._vertices_by_type[vertex_type].append(vertex_id)
            indexes = self._property_indexes.get(vertex_type, {})
            for key in indexes:
                self._index_vertex(indexes, key, vertex_id)
        return vertex_id

    def add_edge(
        self,
        src: int,
        dst: int,
        label: str,
        properties: Optional[Mapping[str, object]] = None,
    ) -> int:
        """Add a directed edge ``src -[label]-> dst`` and return its id."""
        if src not in self._vertex_type or dst not in self._vertex_type:
            raise GraphError("edge endpoints must exist: (%r, %r)" % (src, dst))
        src_type = self._vertex_type[src]
        dst_type = self._vertex_type[dst]
        if self._validate and not self._schema.has_triple(src_type, label, dst_type):
            raise GraphError(
                "edge triple (%s)-[%s]->(%s) not in schema" % (src_type, label, dst_type)
            )
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        self._edges[edge_id] = (src, dst, label)
        if properties:
            self._edge_props[edge_id] = dict(properties)
        self._out[src].setdefault(label, []).append((edge_id, dst))
        self._in[dst].setdefault(label, []).append((edge_id, src))
        self._edge_label_counts[label] += 1
        self._edge_triple_counts[(src_type, label, dst_type)] += 1
        return edge_id

    # -- vertex access -------------------------------------------------------
    def has_vertex(self, vertex_id: int) -> bool:
        return vertex_id in self._vertex_type

    def vertex(self, vertex_id: int) -> Vertex:
        try:
            vtype = self._vertex_type[vertex_id]
        except KeyError:
            raise GraphError("unknown vertex id %r" % (vertex_id,))
        return Vertex(vertex_id, vtype, self._vertex_props.get(vertex_id, {}))

    def vertex_type(self, vertex_id: int) -> str:
        try:
            return self._vertex_type[vertex_id]
        except KeyError:
            raise GraphError("unknown vertex id %r" % (vertex_id,))

    def vertex_properties(self, vertex_id: int) -> Mapping[str, object]:
        return self._vertex_props.get(vertex_id, {})

    def vertex_property(self, vertex_id: int, key: str, default=None):
        return self._vertex_props.get(vertex_id, {}).get(key, default)

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids."""
        return iter(self._vertex_type)

    def vertices_of_type(self, constraint) -> Iterator[int]:
        """Iterate over vertex ids whose type satisfies ``constraint``."""
        constraint = TypeConstraint.coerce(constraint)
        if constraint.is_all:
            yield from self._vertex_type
            return
        for vtype in constraint.resolve(self._vertices_by_type.keys()):
            yield from self._vertices_by_type.get(vtype, ())

    def vertices_with(self, constraint, key: str, value) -> Optional[List[int]]:
        """Ids of the ``constraint`` vertices whose ``key`` property (``None``
        when missing) equals ``value``, in ``vertices_of_type`` order; ``None``
        when the index cannot answer: an all-types constraint, an unhashable
        ``value``, or a label storing an unhashable value under ``key``.

        Hashing may also return an identical NaN object, which ``==``
        rejects: callers still test their predicate on every id.
        """
        constraint = TypeConstraint.coerce(constraint)
        if constraint.is_all:
            return None
        try:
            hash(value)
        except TypeError:
            return None
        ids: List[int] = []
        for vtype in constraint.resolve(self._vertices_by_type.keys()):
            index = self._property_index(vtype, key)
            if index is None:
                return None
            ids.extend(index.get(value, ()))
        return ids

    def _property_index(self, vtype: str, key: str) -> Optional[Dict[object, List[int]]]:
        indexes = self._property_indexes.get(vtype)
        if indexes is None or key not in indexes:
            with self._index_lock:
                indexes = self._property_indexes.setdefault(vtype, {})
                if key not in indexes:
                    built = {key: {}}
                    for vid in self._vertices_by_type.get(vtype, ()):
                        self._index_vertex(built, key, vid)
                    indexes[key] = built[key]  # published complete: readers skip the lock
        return indexes[key]

    def _index_vertex(self, indexes, key: str, vertex_id: int) -> None:
        if indexes[key] is not None:
            try:
                indexes[key].setdefault(self.vertex_property(vertex_id, key), []).append(vertex_id)
            except TypeError:  # an unhashable stored value: no index for this key
                indexes[key] = None

    # -- edge access ----------------------------------------------------------
    def edge(self, edge_id: int) -> Edge:
        try:
            src, dst, label = self._edges[edge_id]
        except KeyError:
            raise GraphError("unknown edge id %r" % (edge_id,))
        return Edge(edge_id, src, dst, label, self._edge_props.get(edge_id, {}))

    def edge_label(self, edge_id: int) -> str:
        try:
            return self._edges[edge_id][2]
        except KeyError:
            raise GraphError("unknown edge id %r" % (edge_id,))

    def edge_property(self, edge_id: int, key: str, default=None):
        return self._edge_props.get(edge_id, {}).get(key, default)

    def edges(self) -> Iterator[int]:
        """Iterate over all edge ids."""
        return iter(self._edges)

    def has_edge(self, src: int, dst: int, label_constraint=None) -> bool:
        """Whether a direct edge ``src -> dst`` exists satisfying the label constraint."""
        constraint = TypeConstraint.coerce(label_constraint)
        for label, entries in self._out.get(src, {}).items():
            if not constraint.contains(label):
                continue
            for _, other in entries:
                if other == dst:
                    return True
        return False

    # -- adjacency ------------------------------------------------------------
    def out_edges(self, vertex_id: int, label_constraint=None) -> List[Tuple[int, int]]:
        """Outgoing ``(edge_id, dst)`` pairs filtered by label constraint."""
        return self._adjacent(self._out, vertex_id, label_constraint)

    def in_edges(self, vertex_id: int, label_constraint=None) -> List[Tuple[int, int]]:
        """Incoming ``(edge_id, src)`` pairs filtered by label constraint."""
        return self._adjacent(self._in, vertex_id, label_constraint)

    def adjacent_edges(
        self, vertex_id: int, direction: Direction, label_constraint=None
    ) -> List[Tuple[int, int]]:
        """``(edge_id, other endpoint)`` pairs along the given direction."""
        if direction is Direction.OUT:
            return self.out_edges(vertex_id, label_constraint)
        if direction is Direction.IN:
            return self.in_edges(vertex_id, label_constraint)
        return self.out_edges(vertex_id, label_constraint) + self.in_edges(
            vertex_id, label_constraint
        )

    def neighbors(
        self, vertex_id: int, direction: Direction = Direction.OUT, label_constraint=None
    ) -> List[int]:
        """Neighbouring vertex ids along the given direction."""
        return [other for _, other in self.adjacent_edges(vertex_id, direction, label_constraint)]

    def out_degree(self, vertex_id: int, label_constraint=None) -> int:
        return len(self.out_edges(vertex_id, label_constraint))

    def in_degree(self, vertex_id: int, label_constraint=None) -> int:
        return len(self.in_edges(vertex_id, label_constraint))

    def degree(self, vertex_id: int, direction: Direction = Direction.BOTH) -> int:
        return len(self.adjacent_edges(vertex_id, direction))

    def _adjacent(self, index, vertex_id, label_constraint) -> List[Tuple[int, int]]:
        constraint = TypeConstraint.coerce(label_constraint)
        per_label = index.get(vertex_id)
        if not per_label:
            return []
        if constraint.is_all:
            result: List[Tuple[int, int]] = []
            for entries in per_label.values():
                result.extend(entries)
            return result
        result = []
        for label in constraint.resolve(per_label.keys()):
            result.extend(per_label.get(label, ()))
        return result

    # -- statistics -------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vertex_type)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertex_count(self, constraint=None) -> int:
        """Number of vertices satisfying the type constraint."""
        constraint = TypeConstraint.coerce(constraint)
        if constraint.is_all:
            return self.num_vertices
        return sum(
            len(self._vertices_by_type.get(t, ()))
            for t in constraint.resolve(self._vertices_by_type.keys())
        )

    def edge_count(self, constraint=None) -> int:
        """Number of edges whose label satisfies the constraint."""
        constraint = TypeConstraint.coerce(constraint)
        if constraint.is_all:
            return self.num_edges
        return sum(
            self._edge_label_counts.get(lbl, 0)
            for lbl in constraint.resolve(self._edge_label_counts.keys())
        )

    def counts_by_vertex_type(self) -> Dict[str, int]:
        return {t: len(ids) for t, ids in self._vertices_by_type.items()}

    def counts_by_edge_label(self) -> Dict[str, int]:
        return dict(self._edge_label_counts)

    def counts_by_edge_triple(self) -> Dict[Tuple[str, str, str], int]:
        return dict(self._edge_triple_counts)

    # -- schema -----------------------------------------------------------------
    @property
    def schema(self) -> GraphSchema:
        """The declared schema, or one extracted from the data (Remark 6.1)."""
        if self._schema is None:
            self._schema = GraphSchema.infer_from_graph(self)
        return self._schema

    def set_schema(self, schema: GraphSchema) -> None:
        self._schema = schema

    def __repr__(self) -> str:
        return "PropertyGraph(|V|=%d, |E|=%d)" % (self.num_vertices, self.num_edges)
