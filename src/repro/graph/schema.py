"""Graph schema: vertex/edge type definitions and connectivity lookups.

The schema plays two roles in the paper:

* it is the ``Graph Schema S`` consumed by Algorithm 1 (type inference), which
  derives the connectivity relations ``N_S(t)`` (vertex types reachable from a
  vertex type) and ``N^E_S(t)`` (edge types leaving a vertex type) from its
  edge triples; and
* it enumerates the concrete types that ``AllType`` constraints expand to.

A schema can be declared explicitly (schema-strict systems such as GraphScope)
or extracted from a data graph (schema-loose systems such as Neo4j,
Remark 6.1) via :meth:`GraphSchema.infer_from_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.errors import SchemaError
from repro.graph.types import TypeConstraint


@dataclass(frozen=True)
class VertexTypeDef:
    """Definition of a vertex type and its typed properties."""

    name: str
    properties: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class EdgeTypeDef:
    """Definition of an edge type as a (src, label, dst) triple with properties."""

    label: str
    src_type: str
    dst_type: str
    properties: Mapping[str, str] = field(default_factory=dict)

    @property
    def triple(self) -> Tuple[str, str, str]:
        return (self.src_type, self.label, self.dst_type)


class GraphSchema:
    """Registry of vertex types and edge triples with connectivity queries."""

    def __init__(self):
        self._vertex_types: Dict[str, VertexTypeDef] = {}
        self._edge_defs: List[EdgeTypeDef] = []
        self._triples: Dict[Tuple[str, str, str], EdgeTypeDef] = {}

    # -- declaration ------------------------------------------------------
    def add_vertex_type(self, name: str, properties: Optional[Mapping[str, str]] = None) -> "GraphSchema":
        """Register a vertex type; re-registration must be consistent."""
        if name in self._vertex_types and properties:
            existing = dict(self._vertex_types[name].properties)
            merged = dict(existing)
            merged.update(properties)
            self._vertex_types[name] = VertexTypeDef(name, merged)
            return self
        if name not in self._vertex_types:
            self._vertex_types[name] = VertexTypeDef(name, dict(properties or {}))
        return self

    def add_edge_type(
        self,
        label: str,
        src_type: str,
        dst_type: str,
        properties: Optional[Mapping[str, str]] = None,
    ) -> "GraphSchema":
        """Register an edge triple ``src -[label]-> dst``."""
        if src_type not in self._vertex_types:
            raise SchemaError("unknown source vertex type %r for edge %r" % (src_type, label))
        if dst_type not in self._vertex_types:
            raise SchemaError("unknown destination vertex type %r for edge %r" % (dst_type, label))
        triple = (src_type, label, dst_type)
        if triple not in self._triples:
            definition = EdgeTypeDef(label, src_type, dst_type, dict(properties or {}))
            self._edge_defs.append(definition)
            self._triples[triple] = definition
        return self

    # -- basic lookups ----------------------------------------------------
    @property
    def vertex_types(self) -> Tuple[str, ...]:
        return tuple(sorted(self._vertex_types))

    @property
    def edge_labels(self) -> Tuple[str, ...]:
        return tuple(sorted({d.label for d in self._edge_defs}))

    @property
    def edge_triples(self) -> Tuple[Tuple[str, str, str], ...]:
        return tuple(sorted(self._triples))

    def has_vertex_type(self, name: str) -> bool:
        return name in self._vertex_types

    def has_triple(self, src_type: str, label: str, dst_type: str) -> bool:
        return (src_type, label, dst_type) in self._triples

    def vertex_type_def(self, name: str) -> VertexTypeDef:
        try:
            return self._vertex_types[name]
        except KeyError:
            raise SchemaError("unknown vertex type %r" % (name,))

    # -- connectivity ------------------------------------------------------
    def src_types_of(self, label: str, dst_types: Optional[Iterable[str]] = None) -> FrozenSet[str]:
        dst_set = None if dst_types is None else set(dst_types)
        return frozenset(
            d.src_type
            for d in self._edge_defs
            if d.label == label and (dst_set is None or d.dst_type in dst_set)
        )

    # -- constraint helpers -------------------------------------------------
    def resolve_vertex_constraint(self, constraint: TypeConstraint) -> FrozenSet[str]:
        """Concrete vertex types admitted by a constraint under this schema."""
        resolved = constraint.resolve(self.vertex_types)
        return frozenset(t for t in resolved if t in self._vertex_types)

    def resolve_edge_constraint(self, constraint: TypeConstraint) -> FrozenSet[str]:
        """Concrete edge labels admitted by a constraint under this schema."""
        labels = set(self.edge_labels)
        resolved = constraint.resolve(labels)
        return frozenset(lbl for lbl in resolved if lbl in labels)

    # -- (de)serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "vertex_types": [
                {"name": v.name, "properties": dict(v.properties)}
                for v in self._vertex_types.values()
            ],
            "edge_types": [
                {
                    "label": d.label,
                    "src": d.src_type,
                    "dst": d.dst_type,
                    "properties": dict(d.properties),
                }
                for d in self._edge_defs
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GraphSchema":
        schema = cls()
        for vdef in data.get("vertex_types", []):
            schema.add_vertex_type(vdef["name"], vdef.get("properties"))
        for edef in data.get("edge_types", []):
            schema.add_edge_type(edef["label"], edef["src"], edef["dst"], edef.get("properties"))
        return schema

    @classmethod
    def infer_from_graph(cls, graph) -> "GraphSchema":
        """Extract a schema from a data graph (schema-loose setting, Remark 6.1)."""
        schema = cls()
        property_keys: Dict[str, Dict[str, str]] = {}
        for vid in graph.vertices():
            vtype = graph.vertex_type(vid)
            schema.add_vertex_type(vtype)
            props = property_keys.setdefault(vtype, {})
            for key, value in graph.vertex_properties(vid).items():
                props.setdefault(key, type(value).__name__)
        for vtype, props in property_keys.items():
            schema.add_vertex_type(vtype, props)
        for eid in graph.edges():
            edge = graph.edge(eid)
            schema.add_edge_type(
                edge.label,
                graph.vertex_type(edge.src),
                graph.vertex_type(edge.dst),
            )
        return schema

    def __repr__(self) -> str:
        return "GraphSchema(vertex_types=%d, edge_triples=%d)" % (
            len(self._vertex_types),
            len(self._triples),
        )
