"""Fluent builder for constructing property graphs programmatically."""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

from repro.errors import GraphError
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import GraphSchema


class GraphBuilder:
    """Build a :class:`PropertyGraph` using user-chosen keys for vertices.

    Data generators and tests usually refer to vertices by natural keys
    (e.g. ``("Person", 42)``); the builder maps those keys to internal integer
    vertex ids and lets edges be declared against the natural keys.
    """

    def __init__(self, schema: Optional[GraphSchema] = None, validate: bool = False):
        self._graph = PropertyGraph(schema=schema, validate=validate)
        self._key_to_id: Dict[Hashable, int] = {}

    def add_vertex(
        self,
        key: Hashable,
        vertex_type: str,
        properties: Optional[Mapping[str, object]] = None,
    ) -> int:
        """Add a vertex under a natural key; duplicate keys are rejected."""
        if key in self._key_to_id:
            raise GraphError("duplicate vertex key %r" % (key,))
        vid = self._graph.add_vertex(vertex_type, properties)
        self._key_to_id[key] = vid
        return vid

    def add_edge(
        self,
        src_key: Hashable,
        dst_key: Hashable,
        label: str,
        properties: Optional[Mapping[str, object]] = None,
    ) -> int:
        """Add an edge between two previously declared vertex keys."""
        try:
            src = self._key_to_id[src_key]
            dst = self._key_to_id[dst_key]
        except KeyError as exc:
            raise GraphError("unknown vertex key %r" % (exc.args[0],))
        return self._graph.add_edge(src, dst, label, properties)

    def vertex_id(self, key: Hashable) -> int:
        """Internal id for a natural key."""
        try:
            return self._key_to_id[key]
        except KeyError:
            raise GraphError("unknown vertex key %r" % (key,))

    def has_vertex(self, key: Hashable) -> bool:
        return key in self._key_to_id

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def build(self) -> PropertyGraph:
        """Return the constructed graph (builder can keep extending it)."""
        return self._graph
