"""Baseline planners used in the paper's experiments.

* :class:`CypherPlannerBaseline` -- models Neo4j's CypherPlanner: a greedy,
  expand-only cost-based planner driven by low-order statistics (vertex/edge
  counts) without worst-case-optimal joins, hybrid joins or high-order
  statistics (Table 1).
* :class:`UserOrderPlanner` -- models GraphScope's rule-based-only planner,
  which follows the traversal order the user wrote (the paper's "GS-plan").
* :class:`RandomPlanner` -- random (but connectivity-preserving) matching
  orders, used as the "Others" baseline of Fig. 8(c).

All baselines produce the same :class:`PatternPlanNode` trees as the CBO
searcher, so plans from any planner can be lowered and executed identically.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.errors import PlanningError
from repro.gir.pattern import PatternGraph
from repro.optimizer.cardinality import GlogueQuery
from repro.optimizer.cost_model import CostModel
from repro.optimizer.physical_spec import BackendProfile, neo4j_profile
from repro.optimizer.search import PatternPlanNode, SearchResult


def plan_from_vertex_order(
    pattern: PatternGraph,
    order: Sequence[str],
    cost_model: CostModel,
) -> PatternPlanNode:
    """Build a left-deep expansion plan that binds vertices in the given order.

    Each step after the first binds one new vertex together with *all* pattern
    edges connecting it to already-bound vertices, so any connected vertex
    order yields a complete and valid plan.
    """
    order = list(order)
    if set(order) != set(pattern.vertex_names):
        raise PlanningError("vertex order %r does not cover the pattern" % (order,))
    first = order[0]
    node = PatternPlanNode(
        kind="scan",
        pattern=pattern.single_vertex_pattern(first),
        cost=cost_model.scan_cost(pattern.single_vertex_pattern(first)),
    )
    bound = {first}
    bound_edges: List[str] = []
    for vertex in order[1:]:
        edges = [e for e in pattern.incident_edges(vertex) if e.other_endpoint(vertex) in bound]
        if not edges:
            raise PlanningError(
                "vertex order %r is not connectivity-preserving at %r" % (order, vertex)
            )
        bound_edges.extend(e.name for e in edges)
        target = pattern.subpattern_by_edges(bound_edges)
        step = cost_model.expand_step_cost(node.pattern, edges, target)
        node = PatternPlanNode(
            kind="expand",
            pattern=target,
            cost=node.cost + step,
            children=(node,),
            new_vertex=vertex,
            expand_edges=tuple(e.name for e in edges),
        )
        bound.add(vertex)
    return node


class CypherPlannerBaseline:
    """Neo4j-CypherPlanner-like greedy planner on low-order statistics."""

    name = "neo4j-cypher-planner"

    def __init__(self, gq_low_order: GlogueQuery, profile: Optional[BackendProfile] = None):
        if gq_low_order.uses_high_order_statistics:
            raise PlanningError("CypherPlannerBaseline expects a low-order GlogueQuery")
        self._gq = gq_low_order
        self._profile = profile or neo4j_profile()
        self._cost_model = CostModel(gq_low_order, self._profile)

    def optimize(self, pattern: PatternGraph) -> SearchResult:
        order = self._greedy_order(pattern)
        plan = plan_from_vertex_order(pattern, order, self._cost_model)
        return SearchResult(plan=plan, cost=plan.cost, states_explored=len(order))

    def _greedy_order(self, pattern: PatternGraph) -> List[str]:
        # start at the vertex with the fewest (filtered) matches
        start = min(
            pattern.vertex_names,
            key=lambda v: self._gq.get_freq(pattern.single_vertex_pattern(v)),
        )
        order = [start]
        bound = {start}
        bound_edges: List[str] = []
        while len(order) < pattern.num_vertices:
            best_vertex = None
            best_freq = float("inf")
            best_edges: List[str] = []
            for vertex in pattern.vertex_names:
                if vertex in bound:
                    continue
                connecting = [e for e in pattern.incident_edges(vertex)
                              if e.other_endpoint(vertex) in bound]
                if not connecting:
                    continue
                candidate_edges = bound_edges + [e.name for e in connecting]
                frequency = self._gq.get_freq(pattern.subpattern_by_edges(candidate_edges))
                if frequency < best_freq:
                    best_freq = frequency
                    best_vertex = vertex
                    best_edges = candidate_edges
            if best_vertex is None:
                raise PlanningError("pattern is not connected")
            order.append(best_vertex)
            bound.add(best_vertex)
            bound_edges = best_edges
        return order


class UserOrderPlanner:
    """GraphScope's rule-based-only behaviour: follow the user-written order."""

    name = "graphscope-rule-only"

    def __init__(self, gq: GlogueQuery, profile: BackendProfile):
        self._cost_model = CostModel(gq, profile)

    def optimize(self, pattern: PatternGraph) -> SearchResult:
        order = self._user_order(pattern)
        plan = plan_from_vertex_order(pattern, order, self._cost_model)
        return SearchResult(plan=plan, cost=plan.cost, states_explored=len(order))

    def _user_order(self, pattern: PatternGraph) -> List[str]:
        """Vertex declaration order, repaired minimally to stay connected."""
        declared = list(pattern.vertex_names)
        order: List[str] = []
        bound = set()
        pending = list(declared)
        while pending:
            progressed = False
            for vertex in list(pending):
                if not order or any(
                    e.other_endpoint(vertex) in bound for e in pattern.incident_edges(vertex)
                ):
                    order.append(vertex)
                    bound.add(vertex)
                    pending.remove(vertex)
                    progressed = True
                    break
            if not progressed:
                # disconnected pattern: should not happen for CGP patterns
                order.append(pending.pop(0))
        return order


class RandomPlanner:
    """Random connectivity-preserving matching orders (Fig. 8(c) "Others")."""

    name = "random"

    def __init__(self, gq: GlogueQuery, profile: BackendProfile, seed: int = 0):
        self._cost_model = CostModel(gq, profile)
        self._rng = random.Random(seed)

    def optimize(self, pattern: PatternGraph) -> SearchResult:
        order = self.random_order(pattern)
        plan = plan_from_vertex_order(pattern, order, self._cost_model)
        return SearchResult(plan=plan, cost=plan.cost, states_explored=1)

    def random_order(self, pattern: PatternGraph) -> List[str]:
        vertices = list(pattern.vertex_names)
        start = self._rng.choice(vertices)
        order = [start]
        bound = {start}
        while len(order) < len(vertices):
            frontier = [
                v for v in vertices
                if v not in bound and any(
                    e.other_endpoint(v) in bound for e in pattern.incident_edges(v)
                )
            ]
            if not frontier:
                remaining = [v for v in vertices if v not in bound]
                frontier = remaining
            choice = self._rng.choice(frontier)
            order.append(choice)
            bound.add(choice)
        return order

    def sample_plans(self, pattern: PatternGraph, count: int) -> List[SearchResult]:
        """Sample ``count`` distinct random plans (by vertex order)."""
        results: List[SearchResult] = []
        seen = set()
        attempts = 0
        while len(results) < count and attempts < count * 20:
            attempts += 1
            order = self.random_order(pattern)
            key = tuple(order)
            if key in seen:
                continue
            seen.add(key)
            plan = plan_from_vertex_order(pattern, order, self._cost_model)
            results.append(SearchResult(plan=plan, cost=plan.cost, states_explored=1))
        return results
