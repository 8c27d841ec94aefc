"""Top-down pattern plan search with branch-and-bound (paper Algorithm 2).

The searcher finds the cheapest way to build a pattern by composing two kinds
of transformations, both justified by the PatternJoin equivalence rule:

* ``Expand(Ps -> P)``: attach one new vertex (with all its incident pattern
  edges) to an already matched subpattern, realised by the backend's
  vertex-expansion ``PhysicalSpec`` (ExpandInto on Neo4j, ExpandIntersect on
  GraphScope);
* ``Join({Ps1, Ps2} -> P)``: hash-join two matched subpatterns on their common
  vertices.

The search is memoised on edge-subsets of the query pattern, seeded with a
greedy initial solution whose cost serves as the branch-and-bound upper bound,
and prunes candidates whose non-cumulative cost already exceeds that bound.
The result is a :class:`PatternPlanNode` tree that
:func:`build_pattern_physical` lowers to backend-specific physical operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union

from repro.errors import PlanningError
from repro.gir.expressions import BinaryOp, Expr, Literal, Parameter, Property, conjuncts
from repro.gir.pattern import PatternEdge, PatternGraph
from repro.optimizer.cardinality import GlogueQuery
from repro.optimizer.cost_model import CostModel
from repro.optimizer.physical_plan import PhysicalOperator, ScanVertex
from repro.optimizer.physical_spec import BackendProfile


# -- plan representation -----------------------------------------------------------

@dataclass(frozen=True)
class PatternPlanNode:
    """One step of a pattern execution plan.

    ``kind`` is ``"scan"`` (leaf), ``"expand"`` (one child) or ``"join"``
    (two children).  ``cost`` is cumulative for the subtree.
    """

    kind: str
    pattern: PatternGraph
    cost: float
    children: Tuple["PatternPlanNode", ...] = ()
    new_vertex: Optional[str] = None
    expand_edges: Tuple[str, ...] = ()
    join_keys: Tuple[str, ...] = ()

    def describe(self, depth: int = 0) -> str:
        indent = "  " * depth
        if self.kind == "scan":
            vertex = self.pattern.vertices[0]
            line = "%sScan(%s:%s) cost=%.1f" % (indent, vertex.name, vertex.constraint.label(), self.cost)
        elif self.kind == "expand":
            line = "%sExpand(+%s via %s) cost=%.1f" % (
                indent, self.new_vertex, ",".join(self.expand_edges), self.cost)
        else:
            line = "%sJoin(keys=%s) cost=%.1f" % (indent, list(self.join_keys), self.cost)
        parts = [line]
        for child in self.children:
            parts.append(child.describe(depth + 1))
        return "\n".join(parts)

    def vertex_order(self) -> List[str]:
        """Order in which pattern vertices become bound (left-deep reading)."""
        if self.kind == "scan":
            return [self.pattern.vertices[0].name]
        if self.kind == "expand":
            return self.children[0].vertex_order() + [self.new_vertex]
        order = self.children[0].vertex_order()
        for vertex in self.children[1].vertex_order():
            if vertex not in order:
                order.append(vertex)
        return order


@dataclass
class SearchResult:
    """Outcome of the plan search, including exploration statistics."""

    plan: PatternPlanNode
    cost: float
    states_explored: int = 0
    candidates_pruned: int = 0
    greedy_cost: float = float("inf")


# -- candidate enumeration ------------------------------------------------------------

StateKey = Union[FrozenSet[str], Tuple[str, str]]


def _state_key(pattern: PatternGraph) -> StateKey:
    if pattern.num_edges == 0:
        return ("vertex", pattern.vertex_names[0])
    return frozenset(pattern.edge_names)


@dataclass(frozen=True)
class _ExpandCandidate:
    source: PatternGraph
    new_vertex: str
    edges: Tuple[PatternEdge, ...]


@dataclass(frozen=True)
class _JoinCandidate:
    left: PatternGraph
    right: PatternGraph
    keys: Tuple[str, ...]


def enumerate_expand_candidates(pattern: PatternGraph) -> List[_ExpandCandidate]:
    """All ways of building ``pattern`` by attaching one final vertex."""
    candidates: List[_ExpandCandidate] = []
    if pattern.num_vertices < 2:
        return candidates
    for vertex in pattern.vertex_names:
        incident = pattern.incident_edges(vertex)
        if not incident:
            continue
        incident_names = {e.name for e in incident}
        remaining = [name for name in pattern.edge_names if name not in incident_names]
        if remaining:
            source = pattern.subpattern_by_edges(remaining)
            expected = set(pattern.vertex_names) - {vertex}
            if set(source.vertex_names) != expected or not source.is_connected():
                continue
        else:
            if pattern.num_vertices != 2:
                continue
            other = next(name for name in pattern.vertex_names if name != vertex)
            source = pattern.single_vertex_pattern(other)
        candidates.append(_ExpandCandidate(source=source, new_vertex=vertex, edges=tuple(incident)))
    return candidates


def enumerate_join_candidates(
    pattern: PatternGraph, max_edges: int = 10
) -> List[_JoinCandidate]:
    """All ways of building ``pattern`` as a binary join of two connected halves."""
    edges = list(pattern.edge_names)
    if len(edges) < 2 or len(edges) > max_edges:
        return []
    candidates: List[_JoinCandidate] = []
    seen = set()
    for size in range(1, len(edges) // 2 + 1):
        for subset in itertools.combinations(edges, size):
            left_names = frozenset(subset)
            right_names = frozenset(edges) - left_names
            key = frozenset((left_names, right_names))
            if key in seen:
                continue
            seen.add(key)
            left = pattern.subpattern_by_edges(sorted(left_names))
            right = pattern.subpattern_by_edges(sorted(right_names))
            if not left.is_connected() or not right.is_connected():
                continue
            common = sorted(left.common_vertices(right))
            if not common:
                continue
            if set(left.vertex_names) | set(right.vertex_names) != set(pattern.vertex_names):
                continue
            candidates.append(_JoinCandidate(left=left, right=right, keys=tuple(common)))
    return candidates


# -- the searcher -------------------------------------------------------------------------

@dataclass
class _MemoEntry:
    cost: float
    kind: str
    source_keys: Tuple[StateKey, ...] = ()
    new_vertex: Optional[str] = None
    expand_edges: Tuple[str, ...] = ()
    join_keys: Tuple[str, ...] = ()
    pattern: Optional[PatternGraph] = None
    finalised: bool = False


class PatternSearcher:
    """Algorithm 2: greedy initialisation + memoised top-down search with pruning."""

    def __init__(
        self,
        gq: GlogueQuery,
        profile: BackendProfile,
        enable_join: bool = True,
        enable_pruning: bool = True,
        enable_greedy_bound: bool = True,
        max_join_pattern_edges: int = 10,
    ):
        self._gq = gq
        self._profile = profile
        self._cost_model = CostModel(gq, profile)
        self._enable_join = enable_join
        self._enable_pruning = enable_pruning
        self._enable_greedy_bound = enable_greedy_bound
        self._max_join_pattern_edges = max_join_pattern_edges

    # -- public API -----------------------------------------------------------------
    def optimize(self, pattern: PatternGraph) -> SearchResult:
        """Find the minimum-cost pattern plan for ``pattern``."""
        if pattern.num_vertices == 0:
            raise PlanningError("cannot plan an empty pattern")
        if not pattern.is_connected():
            raise PlanningError(
                "pattern must be connected; disconnected components should be "
                "joined by the relational JOIN operator"
            )
        self._memo: Dict[StateKey, _MemoEntry] = {}
        self._states_explored = 0
        self._pruned = 0

        for vertex in pattern.vertex_names:
            single = pattern.single_vertex_pattern(vertex)
            key = _state_key(single)
            self._memo[key] = _MemoEntry(
                cost=self._cost_model.scan_cost(single),
                kind="scan",
                pattern=single,
                finalised=True,
            )

        if pattern.num_vertices == 1:
            key = _state_key(pattern)
            entry = self._memo[key]
            plan = PatternPlanNode(kind="scan", pattern=pattern, cost=entry.cost)
            return SearchResult(plan=plan, cost=entry.cost, states_explored=1,
                                greedy_cost=entry.cost)

        greedy = self._greedy_initial(pattern) if self._enable_greedy_bound else float("inf")
        bound = greedy if self._enable_pruning else float("inf")
        self._search(pattern, bound)
        key = _state_key(pattern)
        entry = self._memo.get(key)
        if entry is None or entry.cost == float("inf"):
            raise PlanningError("search failed to produce a plan for pattern %r" % (pattern,))
        plan = self._extract_plan(key)
        return SearchResult(
            plan=plan,
            cost=entry.cost,
            states_explored=self._states_explored,
            candidates_pruned=self._pruned,
            greedy_cost=greedy,
        )

    # -- greedy initial solution -----------------------------------------------------
    def _greedy_initial(self, pattern: PatternGraph) -> float:
        """Greedily peel off the cheapest expansion to obtain an upper bound."""
        total = 0.0
        current = pattern
        while current.num_edges > 0:
            candidates = enumerate_expand_candidates(current)
            if not candidates:
                return float("inf")
            best_cost = float("inf")
            best_source = None
            for candidate in candidates:
                step = self._cost_model.expand_step_cost(candidate.source, candidate.edges, current)
                if step < best_cost:
                    best_cost = step
                    best_source = candidate.source
            total += best_cost
            current = best_source
        total += self._cost_model.scan_cost(current)
        return total

    # -- recursive search ---------------------------------------------------------------
    def _search(self, pattern: PatternGraph, bound: float) -> None:
        key = _state_key(pattern)
        entry = self._memo.get(key)
        if entry is not None and entry.finalised:
            return
        self._states_explored += 1
        best = _MemoEntry(cost=float("inf"), kind="none", pattern=pattern)

        for candidate in enumerate_expand_candidates(pattern):
            step_cost = self._cost_model.expand_step_cost(candidate.source, candidate.edges, pattern)
            if self._enable_pruning and self._lower_bound(candidate.source, step_cost) > bound:
                self._pruned += 1
                continue
            self._search(candidate.source, bound)
            source_entry = self._memo[_state_key(candidate.source)]
            if source_entry.cost == float("inf"):
                continue
            total = source_entry.cost + step_cost
            if total < best.cost:
                best = _MemoEntry(
                    cost=total,
                    kind="expand",
                    source_keys=(_state_key(candidate.source),),
                    new_vertex=candidate.new_vertex,
                    expand_edges=tuple(e.name for e in candidate.edges),
                    pattern=pattern,
                )

        if self._enable_join:
            for candidate in enumerate_join_candidates(pattern, self._max_join_pattern_edges):
                step_cost = self._cost_model.join_step_cost(candidate.left, candidate.right, pattern)
                if self._enable_pruning and step_cost > bound:
                    self._pruned += 1
                    continue
                self._search(candidate.left, bound)
                self._search(candidate.right, bound)
                left_entry = self._memo[_state_key(candidate.left)]
                right_entry = self._memo[_state_key(candidate.right)]
                if float("inf") in (left_entry.cost, right_entry.cost):
                    continue
                total = left_entry.cost + right_entry.cost + step_cost
                if total < best.cost:
                    best = _MemoEntry(
                        cost=total,
                        kind="join",
                        source_keys=(_state_key(candidate.left), _state_key(candidate.right)),
                        join_keys=candidate.keys,
                        pattern=pattern,
                    )

        best.finalised = True
        self._memo[key] = best

    def _lower_bound(self, source: PatternGraph, step_cost: float) -> float:
        """Non-cumulative lower bound on any plan using this candidate."""
        source_entry = self._memo.get(_state_key(source))
        searched_cost = source_entry.cost if source_entry is not None and source_entry.finalised else 0.0
        return max(self._gq.get_freq(source) + step_cost, searched_cost + step_cost)

    # -- plan extraction -----------------------------------------------------------------
    def _extract_plan(self, key: StateKey) -> PatternPlanNode:
        entry = self._memo[key]
        if entry.kind == "scan":
            return PatternPlanNode(kind="scan", pattern=entry.pattern, cost=entry.cost)
        if entry.kind == "expand":
            child = self._extract_plan(entry.source_keys[0])
            return PatternPlanNode(
                kind="expand",
                pattern=entry.pattern,
                cost=entry.cost,
                children=(child,),
                new_vertex=entry.new_vertex,
                expand_edges=entry.expand_edges,
            )
        if entry.kind == "join":
            left = self._extract_plan(entry.source_keys[0])
            right = self._extract_plan(entry.source_keys[1])
            return PatternPlanNode(
                kind="join",
                pattern=entry.pattern,
                cost=entry.cost,
                children=(left, right),
                join_keys=entry.join_keys,
            )
        raise PlanningError("no plan recorded for state %r" % (key,))


# -- lowering to physical operators ------------------------------------------------------

def _index_lookup(tag: str, predicates) -> Optional[Tuple[str, Expr]]:
    """``(key, value)`` of the first top-level conjunct ``tag.key = value``
    (either side) whose value is a literal or a ``$param``: the scan's seek."""
    for predicate in predicates:
        for conjunct in conjuncts(predicate):
            if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                for prop, value in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
                    if isinstance(prop, Property) and prop.tag == tag and isinstance(
                            value, (Literal, Parameter)):
                        return prop.key, value
    return None


def build_pattern_physical(
    plan: PatternPlanNode, profile: BackendProfile
) -> PhysicalOperator:
    """Lower a pattern plan tree to the backend's physical operators."""
    if plan.kind == "scan":
        vertex = plan.pattern.vertices[0]
        return ScanVertex(
            tag=vertex.name,
            constraint=vertex.constraint,
            predicates=vertex.predicates,
            columns=tuple(sorted(vertex.columns)) if vertex.columns is not None else None,
            lookup=_index_lookup(vertex.name, vertex.predicates),
        )
    if plan.kind == "expand":
        child_op = build_pattern_physical(plan.children[0], profile)
        source = plan.children[0].pattern
        edges = tuple(plan.pattern.edge(name) for name in plan.expand_edges)
        return profile.expand_spec.build_operators(
            source, edges, plan.pattern, plan.new_vertex, child_op
        )
    if plan.kind == "join":
        left_op = build_pattern_physical(plan.children[0], profile)
        right_op = build_pattern_physical(plan.children[1], profile)
        return profile.join_spec.build_operator(plan.join_keys, left_op, right_op)
    raise PlanningError("unknown plan node kind %r" % (plan.kind,))
