"""GLogue: low- and high-order statistics over the data graph (paper Section 6.3.1).

GLogue precomputes the frequencies of small patterns ("motifs") with up to
``k`` vertices, beyond the usual per-type vertex/edge counts.  The optimizer's
cardinality estimator (:class:`repro.optimizer.cardinality.GlogueQuery`) first
tries an exact GLogue lookup and falls back to the expand-ratio estimation of
Eq. (2) for larger or union-typed patterns.

Stored statistics:

* ``vertex_freq[type]`` -- number of vertices of each type;
* ``triple_freq[(src_type, label, dst_type)]`` -- number of edges per schema triple;
* ``label_freq[label]`` -- number of edges per label;
* frequencies of all *typed* 2-edge paths (wedges, counted under homomorphism
  semantics) and typed triangles (counted as subgraph instances), keyed by an
  isomorphism-invariant descriptor (3-vertex motifs, i.e. ``k = 3``).

Counting is exact; the graph sparsification of GLogS is unnecessary at the
scales this reproduction targets.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, Optional, Tuple

from repro.gir.pattern import PatternGraph
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import GraphSchema
from repro.graph.types import Direction


def _wedge_key(center_type: str, left: Tuple[str, str, bool], right: Tuple[str, str, bool]) -> Tuple:
    """Isomorphism-invariant key of a typed wedge (2 edges around a centre).

    ``left``/``right`` are ``(edge_label, other_vertex_type, outgoing)``
    half-edge descriptors relative to the centre vertex.
    """
    return ("wedge", center_type, tuple(sorted((left, right))))


def _triangle_key(types: Tuple[str, str, str], edges: Tuple[Tuple[int, int, str], ...]) -> Tuple:
    """Isomorphism-invariant key of a typed triangle.

    ``types`` are the vertex types of positions 0..2; ``edges`` are
    ``(src_position, dst_position, label)`` triples.  The key is the minimum
    encoding over all vertex-position permutations.
    """
    best = None
    for perm in itertools.permutations(range(3)):
        mapping = {old: new for old, new in enumerate(perm)}
        vertex_code = tuple(t for _, t in sorted((mapping[i], types[i]) for i in range(3)))
        edge_code = tuple(sorted((mapping[s], mapping[d], label) for s, d, label in edges))
        code = (vertex_code, edge_code)
        if best is None or code < best:
            best = code
    return ("triangle",) + best


class Glogue:
    """Catalog of small-pattern frequencies computed from a data graph."""

    def __init__(self, schema: GraphSchema, max_pattern_vertices: int = 3):
        self.schema = schema
        self.max_pattern_vertices = max_pattern_vertices
        self.total_vertices = 0
        self.total_edges = 0
        self.vertex_freq: Dict[str, int] = {}
        self.label_freq: Dict[str, int] = {}
        self.triple_freq: Dict[Tuple[str, str, str], int] = {}
        self._motif_freq: Dict[Tuple, float] = {}

    # -- construction -----------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: PropertyGraph,
        max_pattern_vertices: int = 3,
    ) -> "Glogue":
        """Collect statistics from a data graph."""
        glogue = cls(graph.schema, max_pattern_vertices)
        glogue.total_vertices = graph.num_vertices
        glogue.total_edges = graph.num_edges
        glogue.vertex_freq = dict(graph.counts_by_vertex_type())
        glogue.label_freq = dict(graph.counts_by_edge_label())
        glogue.triple_freq = dict(graph.counts_by_edge_triple())
        if max_pattern_vertices >= 3:
            glogue._count_three_vertex_motifs(graph)
        return glogue

    def _count_three_vertex_motifs(self, graph: PropertyGraph) -> None:
        counts: Dict[Tuple, float] = defaultdict(float)

        # wedges: every ordered assignment of the two pattern edges to incident
        # data edges is one homomorphism; symmetric wedges therefore count twice
        # per unordered pair plus once for the degenerate "both pattern edges on
        # the same data edge" mapping.
        for center in graph.vertices():
            center_type = graph.vertex_type(center)
            incident = []
            for eid, dst in graph.out_edges(center):
                incident.append((graph.edge_label(eid), graph.vertex_type(dst), True))
            for eid, src in graph.in_edges(center):
                incident.append((graph.edge_label(eid), graph.vertex_type(src), False))
            for i, left in enumerate(incident):
                counts[_wedge_key(center_type, left, left)] += 1.0
                for j in range(i + 1, len(incident)):
                    right = incident[j]
                    weight = 2.0 if left == right else 1.0
                    counts[_wedge_key(center_type, left, right)] += weight

        # triangles: for every edge (u, v), find common neighbours w; each
        # triangle instance (set of three edge ids) is discovered once per
        # choice of base edge, hence the division by 3.
        for eid in graph.edges():
            edge = graph.edge(eid)
            u, v = edge.src, edge.dst
            u_adjacent: Dict[int, list] = {}
            for adj_eid, other in graph.adjacent_edges(u, Direction.BOTH):
                u_adjacent.setdefault(other, []).append(adj_eid)
            for adj_eid, w in graph.adjacent_edges(v, Direction.BOTH):
                if w == u or w not in u_adjacent:
                    continue
                for u_eid in u_adjacent[w]:
                    key = self._data_triangle_key(graph, eid, u_eid, adj_eid, u, v, w)
                    counts[key] += 1.0 / 3.0

        self._motif_freq = dict(counts)

    @staticmethod
    def _data_triangle_key(graph, uv_eid, uw_eid, vw_eid, u, v, w) -> Tuple:
        types = (graph.vertex_type(u), graph.vertex_type(v), graph.vertex_type(w))
        edges = []
        position = {u: 0, v: 1, w: 2}
        for eid in (uv_eid, uw_eid, vw_eid):
            edge = graph.edge(eid)
            edges.append((position[edge.src], position[edge.dst], edge.label))
        return _triangle_key(types, tuple(edges))

    # -- lookups ----------------------------------------------------------------
    def vertex_count(self, vertex_type: str) -> int:
        return self.vertex_freq.get(vertex_type, 0)

    def edge_count(self, label: str) -> int:
        return self.label_freq.get(label, 0)

    def triple_count(self, src_type: str, label: str, dst_type: str) -> int:
        return self.triple_freq.get((src_type, label, dst_type), 0)

    def pattern_freq(self, pattern: PatternGraph) -> Optional[float]:
        """Exact frequency of a small BasicType-only pattern, if catalogued.

        Returns ``None`` when the pattern is larger than the catalogued motif
        size, contains Union/All types, has predicates, or uses path edges --
        the caller then falls back to estimation.
        """
        if pattern.num_vertices > self.max_pattern_vertices:
            return None
        if pattern.has_path_edges():
            return None
        for vertex in pattern.vertices:
            if not vertex.constraint.is_basic or vertex.predicates:
                return None
        for edge in pattern.edges:
            if not edge.constraint.is_basic or edge.predicates:
                return None
        if pattern.num_vertices == 1:
            return float(self.vertex_count(pattern.vertices[0].constraint.single_type))
        if pattern.num_vertices == 2 and pattern.num_edges == 1:
            edge = pattern.edges[0]
            src_type = pattern.vertex(edge.src).constraint.single_type
            dst_type = pattern.vertex(edge.dst).constraint.single_type
            return float(self.triple_count(src_type, edge.constraint.single_type, dst_type))
        key = self._pattern_motif_key(pattern)
        if key is None:
            return None
        # motif enumeration is exhaustive, so a missing key means zero matches
        return float(self._motif_freq.get(key, 0.0))

    def _pattern_motif_key(self, pattern: PatternGraph) -> Optional[Tuple]:
        """Descriptor key of a 3-vertex BasicType pattern, or ``None`` if unsupported."""
        if pattern.num_vertices != 3:
            return None
        if pattern.num_edges == 2:
            centers = [v for v in pattern.vertex_names if pattern.degree(v) == 2]
            if len(centers) != 1:
                return None
            center = centers[0]
            center_type = pattern.vertex(center).constraint.single_type
            descriptors = []
            for edge in pattern.incident_edges(center):
                other = edge.other_endpoint(center)
                outgoing = edge.src == center
                descriptors.append((
                    edge.constraint.single_type,
                    pattern.vertex(other).constraint.single_type,
                    outgoing,
                ))
            return _wedge_key(center_type, descriptors[0], descriptors[1])
        if pattern.num_edges == 3:
            names = list(pattern.vertex_names)
            position = {name: index for index, name in enumerate(names)}
            types = tuple(pattern.vertex(name).constraint.single_type for name in names)
            edges = tuple(
                (position[e.src], position[e.dst], e.constraint.single_type)
                for e in pattern.edges
            )
            return _triangle_key(types, edges)
        return None

    @property
    def num_motifs(self) -> int:
        """Number of distinct catalogued 3-vertex motifs."""
        return len(self._motif_freq)

    def summary(self) -> Dict[str, int]:
        return {
            "total_vertices": self.total_vertices,
            "total_edges": self.total_edges,
            "vertex_types": len(self.vertex_freq),
            "edge_labels": len(self.label_freq),
            "edge_triples": len(self.triple_freq),
            "motifs": self.num_motifs,
        }

    def __repr__(self) -> str:
        return "Glogue(k=%d, motifs=%d)" % (self.max_pattern_vertices, self.num_motifs)
