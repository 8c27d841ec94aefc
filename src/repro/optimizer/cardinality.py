"""GlogueQuery: cardinality estimation for arbitrary patterns (paper Section 6.3.1).

The estimator provides the unified ``get_freq`` interface of the paper:

* patterns small enough to be catalogued in GLogue and typed with BasicTypes
  only are answered exactly from the catalog;
* larger patterns, or patterns with Union/All type constraints, are estimated
  by repeatedly peeling a vertex off the pattern and applying the expand-ratio
  formula of Eq. (2); the base cases (single vertex / single edge) sum the
  frequencies of the admitted basic types;
* Eq. (1) (independence of two overlapping subpatterns) is exposed as
  :meth:`GlogueQuery.estimate_join_freq` and used by the plan search when it
  evaluates binary joins.

Filter predicates pushed into the pattern (by ``FilterIntoPattern``) contribute
multiplicative selectivities following Remark 7.1: a configurable default
selectivity for equality filters, ``len(list) / |V_type|`` for IN-lists, and
0.5 for range filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.gir.expressions import BinaryOp, Expr, Literal, UnaryOp
from repro.gir.pattern import PatternEdge, PatternGraph
from repro.graph.schema import GraphSchema
from repro.graph.types import TypeConstraint
from repro.optimizer.glogue import Glogue


@dataclass(frozen=True)
class SelectivityConfig:
    """Predefined selectivities for filtered pattern elements (Remark 7.1)."""

    equality: float = 0.1
    range_comparison: float = 0.5
    default: float = 0.5
    minimum: float = 1e-4


class GlogueQuery:
    """Unified cardinality-estimation interface over a :class:`Glogue` catalog."""

    def __init__(
        self,
        glogue: Glogue,
        selectivity: Optional[SelectivityConfig] = None,
        use_high_order: bool = True,
    ):
        self._glogue = glogue
        self._schema: GraphSchema = glogue.schema
        self._selectivity = selectivity or SelectivityConfig()
        self._use_high_order = use_high_order
        self._cache: Dict[Tuple, float] = {}
        # GLogue is immutable once built: per-constraint totals are computed once
        self._vertex_freq: Dict[TypeConstraint, float] = {}
        self._edge_freq: Dict[Tuple, float] = {}

    @property
    def glogue(self) -> Glogue:
        return self._glogue

    @property
    def schema(self) -> GraphSchema:
        return self._schema

    @property
    def uses_high_order_statistics(self) -> bool:
        return self._use_high_order

    # -- public API --------------------------------------------------------
    def get_freq(self, pattern: PatternGraph) -> float:
        """Estimated number of homomorphic mappings of ``pattern`` (Section 6.3.1)."""
        structural = self._structural_freq(pattern)
        selectivity = self._pattern_selectivity(pattern)
        return max(structural * selectivity, 0.0)

    getFreq = get_freq  # paper-facing camelCase alias

    def estimate_join_freq(
        self, left: PatternGraph, right: PatternGraph, common: PatternGraph
    ) -> float:
        """Eq. (1): ``F(Pt) = F(Ps1) * F(Ps2) / F(Ps1 ∩ Ps2)``."""
        common_freq = self.get_freq(common) if common.num_vertices else 1.0
        if common_freq <= 0:
            common_freq = 1.0
        return self.get_freq(left) * self.get_freq(right) / common_freq

    def vertex_constraint_freq(self, constraint: TypeConstraint) -> float:
        """Total number of data vertices admitted by a type constraint."""
        freq = self._vertex_freq.get(constraint)
        if freq is None:
            types = self._schema.resolve_vertex_constraint(constraint)
            freq = float(sum(self._glogue.vertex_count(t) for t in types))
            self._vertex_freq[constraint] = freq
        return freq

    def edge_constraint_freq(
        self,
        edge_constraint: TypeConstraint,
        src_constraint: Optional[TypeConstraint] = None,
        dst_constraint: Optional[TypeConstraint] = None,
    ) -> float:
        """Total number of data edges compatible with the given constraints."""
        key = (edge_constraint, src_constraint, dst_constraint)
        total = self._edge_freq.get(key)
        if total is not None:
            return total
        labels = self._schema.resolve_edge_constraint(edge_constraint)
        src_types = (
            self._schema.resolve_vertex_constraint(src_constraint)
            if src_constraint is not None
            else None
        )
        dst_types = (
            self._schema.resolve_vertex_constraint(dst_constraint)
            if dst_constraint is not None
            else None
        )
        total = 0.0
        for (src, label, dst), count in self._glogue.triple_freq.items():
            if label not in labels:
                continue
            if src_types is not None and src not in src_types:
                continue
            if dst_types is not None and dst not in dst_types:
                continue
            total += count
        self._edge_freq[key] = total
        return total

    # -- structural frequency -----------------------------------------------
    def _structural_freq(self, pattern: PatternGraph) -> float:
        """Structural estimate, cached per isomorphism class (``canonical_key``
        is an exact canonical form computed by colour refinement).  The classes
        are load-bearing: peeling breaks ties by vertex *name*, so the first
        pattern of a class to be estimated sets what every isomorphic one reads.
        """
        key = pattern.canonical_key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self._compute_structural_freq(pattern)
        self._cache[key] = value
        return value

    def _compute_structural_freq(self, pattern: PatternGraph) -> float:
        if pattern.num_vertices == 0:
            return 1.0
        if pattern.num_vertices == 1 and pattern.num_edges == 0:
            return self.vertex_constraint_freq(pattern.vertices[0].constraint)
        if pattern.num_edges == 1 and not pattern.edges[0].is_path:
            edge = pattern.edges[0]
            return self.edge_constraint_freq(
                edge.constraint,
                pattern.vertex(edge.src).constraint,
                pattern.vertex(edge.dst).constraint,
            )
        if self._use_high_order:
            exact = self._glogue.pattern_freq(_strip_filters(pattern))
            if exact is not None:
                return float(exact)
        return self._estimate_by_expansion(pattern)

    def _estimate_by_expansion(self, pattern: PatternGraph) -> float:
        """Eq. (2): peel one vertex off and multiply by per-edge expand ratios."""
        victim = self._choose_peel_vertex(pattern)
        if victim is None:
            # the pattern is a single (possibly path) edge or cannot be peeled
            return self._independence_estimate(pattern)
        incident = list(pattern.incident_edges(victim))
        remaining_edges = [e.name for e in pattern.edges if e.name not in {i.name for i in incident}]
        if remaining_edges:
            base_pattern = pattern.subpattern_by_edges(remaining_edges)
        else:
            # removing the victim leaves a single vertex
            other = next(name for name in pattern.vertex_names if name != victim)
            base_pattern = pattern.single_vertex_pattern(other)
        base = self._structural_freq(base_pattern)
        freq = base
        introduced = False
        for edge in incident:
            anchor = edge.other_endpoint(victim)
            freq *= self._expand_ratio(pattern, edge, anchor, victim, closing=introduced)
            introduced = True
        return freq

    def _choose_peel_vertex(self, pattern: PatternGraph) -> Optional[str]:
        """Pick a vertex whose removal keeps the rest connected (lowest degree first)."""
        candidates = sorted(pattern.vertex_names, key=lambda v: (pattern.degree(v), v))
        for vertex in candidates:
            if pattern.num_vertices <= 1:
                return None
            remaining = [e.name for e in pattern.edges
                         if vertex not in (e.src, e.dst)]
            if not remaining:
                # only acceptable if exactly one other vertex remains
                if pattern.num_vertices == 2:
                    return vertex
                continue
            rest = pattern.subpattern_by_edges(remaining)
            covered = set(rest.vertex_names) | {vertex}
            if rest.is_connected() and covered == set(pattern.vertex_names):
                return vertex
        return None

    def _independence_estimate(self, pattern: PatternGraph) -> float:
        """Fallback: treat every edge as independent (used for exotic shapes)."""
        freq = self.vertex_constraint_freq(pattern.vertices[0].constraint)
        for edge in pattern.edges:
            freq *= self._expand_ratio(pattern, edge, edge.src, edge.dst, closing=False)
        return freq

    def _expand_ratio(
        self,
        pattern: PatternGraph,
        edge: PatternEdge,
        anchor: str,
        target: str,
        closing: bool,
    ) -> float:
        """The expand ratio sigma of Eq. (2) for appending ``edge`` from ``anchor``."""
        anchor_constraint = pattern.vertex(anchor).constraint
        target_constraint = pattern.vertex(target).constraint
        if edge.src == anchor:
            src_constraint, dst_constraint = anchor_constraint, target_constraint
        else:
            src_constraint, dst_constraint = target_constraint, anchor_constraint
        edge_freq = self.edge_constraint_freq(edge.constraint, src_constraint, dst_constraint)
        anchor_freq = self.vertex_constraint_freq(anchor_constraint)
        target_freq = self.vertex_constraint_freq(target_constraint)
        if anchor_freq <= 0:
            return 0.0
        ratio = edge_freq / anchor_freq
        if edge.is_path:
            hops = max(1, (edge.min_hops + edge.max_hops) // 2)
            # successive hops fan out by edges-per-source-vertex of the label,
            # where "source vertices" are the types the label can start from
            per_hop_edges = self.edge_constraint_freq(edge.constraint, None, None)
            labels = self._schema.resolve_edge_constraint(edge.constraint)
            src_types = set()
            for label in labels:
                src_types |= self._schema.src_types_of(label)
            per_hop_base = self.vertex_constraint_freq(TypeConstraint(src_types or None))
            per_hop = per_hop_edges / per_hop_base if per_hop_base else 1.0
            ratio = ratio * (per_hop ** max(0, hops - 1))
        if closing:
            if target_freq <= 0:
                return 0.0
            ratio = ratio / target_freq
        return ratio

    # -- selectivity -----------------------------------------------------------
    def _pattern_selectivity(self, pattern: PatternGraph) -> float:
        selectivity = 1.0
        for vertex in pattern.vertices:
            if vertex.predicates:
                base = self.vertex_constraint_freq(vertex.constraint)
                for predicate in vertex.predicates:
                    selectivity *= self.predicate_selectivity(predicate, base)
        for edge in pattern.edges:
            if edge.predicates:
                base = self.edge_constraint_freq(edge.constraint)
                for predicate in edge.predicates:
                    selectivity *= self.predicate_selectivity(predicate, base)
        return max(selectivity, self._selectivity.minimum)

    def predicate_selectivity(self, predicate: Expr, element_count: float) -> float:
        """Heuristic selectivity of one filter predicate (Remark 7.1)."""
        if isinstance(predicate, BinaryOp):
            if predicate.op == "AND":
                return self.predicate_selectivity(predicate.left, element_count) * \
                    self.predicate_selectivity(predicate.right, element_count)
            if predicate.op == "OR":
                combined = self.predicate_selectivity(predicate.left, element_count) + \
                    self.predicate_selectivity(predicate.right, element_count)
                return min(1.0, combined)
            if predicate.op == "IN":
                size = _in_list_size(predicate.right)
                if size is not None and element_count > 0:
                    return min(1.0, size / element_count)
                return self._selectivity.equality
            if predicate.op in ("=",):
                # equality on a key-like property identifies a single element
                if _is_key_property(predicate.left) or _is_key_property(predicate.right):
                    return min(1.0, 1.0 / element_count) if element_count > 0 else 0.0
                return self._selectivity.equality
            if predicate.op in ("<", "<=", ">", ">=", "<>", "!="):
                return self._selectivity.range_comparison
        if isinstance(predicate, UnaryOp) and predicate.op == "NOT":
            return max(0.0, 1.0 - self.predicate_selectivity(predicate.operand, element_count))
        return self._selectivity.default

    # -- cache management ----------------------------------------------------------
    def clear_cache(self) -> None:
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        return len(self._cache)


def _strip_filters(pattern: PatternGraph) -> PatternGraph:
    """Remove predicates/columns so the structural pattern can hit the catalog."""
    stripped = PatternGraph()
    for vertex in pattern.vertices:
        stripped.add_vertex(vertex.name, vertex.constraint)
    for edge in pattern.edges:
        stripped.add_edge(
            edge.name, edge.src, edge.dst, edge.constraint,
            min_hops=edge.min_hops, max_hops=edge.max_hops,
            path_constraint=edge.path_constraint,
        )
    return stripped


def _in_list_size(expr: Expr) -> Optional[int]:
    if isinstance(expr, Literal) and isinstance(expr.value, (tuple, list, set, frozenset)):
        return len(expr.value)
    return None


def _is_key_property(expr: Expr) -> bool:
    from repro.gir.expressions import Property

    return isinstance(expr, Property) and expr.key == "id"
