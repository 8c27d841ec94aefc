"""GOptimizer: the full optimization pipeline (paper Fig. 2 / Fig. 3).

Given a GIR logical plan the optimizer runs, in order:

1. **RBO** -- the HepPlanner with the heuristic rule set (Section 6.1);
2. **Type inference** -- Algorithm 1 on every pattern (Section 6.2);
3. **CBO** -- the top-down pattern plan search using GLogue statistics and the
   backend-registered PhysicalSpec cost models (Section 6.3);
4. **Physical conversion** -- lowering to backend-specific physical operators
   (ExpandInto / ExpandIntersect / HashJoin plus relational operators).

Every stage can be toggled via :class:`OptimizerConfig`, which is how the
micro-benchmarks isolate individual techniques (Fig. 8).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import PlanningError
from repro.gir.operators import (
    DedupOp,
    GroupOp,
    JoinOp,
    LimitOp,
    LogicalOperator,
    MatchPatternOp,
    OrderOp,
    ProjectOp,
    SelectOp,
    UnionOp,
)
from repro.gir.pattern import PatternGraph
from repro.gir.plan import LogicalPlan
from repro.graph.property_graph import PropertyGraph
from repro.graph.types import TypeConstraint
from repro.optimizer.baselines import CypherPlannerBaseline, UserOrderPlanner
from repro.optimizer.cardinality import GlogueQuery, SelectivityConfig
from repro.optimizer.glogue import Glogue
from repro.optimizer.physical_plan import (
    Aggregate,
    AllDifferent,
    Dedup,
    Filter,
    HashJoin,
    Limit,
    PhysicalOperator,
    PhysicalPlan,
    Project,
    ScanVertex,
    Sort,
    Union,
)
from repro.optimizer.physical_spec import (
    BackendProfile,
    graphscope_profile,
    graphscope_with_neo4j_costs,
    neo4j_profile,
)
from repro.optimizer.rules import DEFAULT_RULES, HepPlanner
from repro.optimizer.search import (
    PatternPlanNode,
    PatternSearcher,
    SearchResult,
    build_pattern_physical,
)
from repro.optimizer.type_inference import TypeInferenceResult, infer_types


@dataclass
class OptimizerConfig:
    """Feature switches for the optimization pipeline."""

    enable_rbo: bool = True
    enable_type_inference: bool = True
    enable_cbo: bool = True
    use_high_order_statistics: bool = True
    max_motif_vertices: int = 3
    selectivity: SelectivityConfig = field(default_factory=SelectivityConfig)


@dataclass
class PatternSearchInfo:
    """Per-pattern record of what the CBO did."""

    pattern: PatternGraph
    result: SearchResult
    type_inference: Optional[TypeInferenceResult] = None


@dataclass
class OptimizationReport:
    """Everything the optimizer produced for one query."""

    logical_plan: LogicalPlan
    optimized_logical_plan: LogicalPlan
    physical_plan: PhysicalPlan
    applied_rules: Tuple[str, ...]
    pattern_searches: List[PatternSearchInfo]
    estimated_cost: float
    optimization_time: float

    def explain(self) -> str:
        lines = ["== optimized logical plan ==", self.optimized_logical_plan.explain(),
                 "== physical plan ==", self.physical_plan.explain(),
                 "== estimated cost: %.1f ==" % self.estimated_cost]
        return "\n".join(lines)


class GOptimizer:
    """The modular graph-native optimizer."""

    def __init__(
        self,
        gq: GlogueQuery,
        profile: Optional[BackendProfile] = None,
        config: Optional[OptimizerConfig] = None,
        rules: Optional[Sequence] = None,
        pattern_planner=None,
    ):
        self._gq = gq
        self._profile = profile or graphscope_profile()
        self._config = config or OptimizerConfig()
        self._rules = tuple(rules) if rules is not None else DEFAULT_RULES
        self._schema = gq.schema
        # optional replacement for the CBO searcher (used to model baseline
        # planners such as Neo4j's CypherPlanner); must expose optimize(pattern)
        self._pattern_planner = pattern_planner

    # -- constructors ---------------------------------------------------------
    @classmethod
    def for_graph(
        cls,
        graph: PropertyGraph,
        profile: Optional[BackendProfile] = None,
        config: Optional[OptimizerConfig] = None,
        rules: Optional[Sequence] = None,
        glogue: Optional[Glogue] = None,
        pattern_planner=None,
    ) -> "GOptimizer":
        """Build an optimizer (collecting GLogue statistics) for a data graph."""
        config = config or OptimizerConfig()
        if glogue is None:
            glogue = Glogue.from_graph(graph, max_pattern_vertices=config.max_motif_vertices)
        gq = GlogueQuery(
            glogue,
            selectivity=config.selectivity,
            use_high_order=config.use_high_order_statistics,
        )
        return cls(gq, profile=profile, config=config, rules=rules,
                   pattern_planner=pattern_planner)

    @property
    def glogue_query(self) -> GlogueQuery:
        return self._gq

    @property
    def profile(self) -> BackendProfile:
        return self._profile

    @property
    def config(self) -> OptimizerConfig:
        return self._config

    # -- public API -------------------------------------------------------------
    def optimize(self, plan: LogicalPlan) -> OptimizationReport:
        """Run RBO, type inference and CBO, producing a physical plan.

        Re-entrant and thread-safe: per-optimization state (the pattern
        search records) lives in a local list threaded through the lowering
        calls, so concurrent sessions can share one optimizer.
        """
        start = time.perf_counter()
        applied_rules: Tuple[str, ...] = ()
        optimized = plan
        if self._config.enable_rbo:
            hep = HepPlanner(self._rules)
            optimized = hep.optimize(plan)
            applied_rules = hep.applied_rule_names()

        searches: List[PatternSearchInfo] = []
        root_op = self._to_physical(optimized.root, searches)
        physical = PhysicalPlan(root_op)
        estimated = sum(info.result.cost for info in searches)
        elapsed = time.perf_counter() - start
        return OptimizationReport(
            logical_plan=plan,
            optimized_logical_plan=optimized,
            physical_plan=physical,
            applied_rules=applied_rules,
            pattern_searches=searches,
            estimated_cost=estimated,
            optimization_time=elapsed,
        )

    def optimize_pattern(self, pattern: PatternGraph) -> SearchResult:
        """Run type inference + CBO on a bare pattern (used by micro-benchmarks)."""
        inferred = pattern
        if self._config.enable_type_inference:
            result = infer_types(pattern, self._schema)
            if result.valid:
                inferred = result.pattern
            else:
                empty = pattern.with_vertex_constraint(
                    pattern.vertex_names[0], TypeConstraint.empty()
                )
                inferred = empty
        return self._search_pattern(inferred)

    # -- pattern planning ----------------------------------------------------------
    def _search_pattern(self, pattern: PatternGraph) -> SearchResult:
        if self._pattern_planner is not None:
            return self._pattern_planner.optimize(pattern)
        if self._config.enable_cbo:
            return PatternSearcher(self._gq, self._profile).optimize(pattern)
        planner = UserOrderPlanner(self._gq, self._profile)
        return planner.optimize(pattern)

    def _plan_match(self, node: MatchPatternOp,
                    searches: List[PatternSearchInfo]) -> PhysicalOperator:
        pattern = node.pattern
        inference: Optional[TypeInferenceResult] = None
        if self._config.enable_type_inference:
            inference = infer_types(pattern, self._schema)
            if inference.valid:
                pattern = inference.pattern
            else:
                # pattern cannot match anything: emit an empty scan
                first = pattern.vertex_names[0]
                empty_scan = ScanVertex(tag=first, constraint=TypeConstraint.empty())
                searches.append(PatternSearchInfo(
                    pattern=pattern,
                    result=SearchResult(
                        plan=PatternPlanNode(kind="scan",
                                             pattern=pattern.single_vertex_pattern(first),
                                             cost=0.0),
                        cost=0.0),
                    type_inference=inference,
                ))
                return empty_scan
        result = self._search_pattern(pattern)
        searches.append(PatternSearchInfo(pattern=pattern, result=result,
                                          type_inference=inference))
        op = build_pattern_physical(result.plan, self._profile)
        if node.semantics == "no_repeated_edge":
            edge_tags = tuple(e.name for e in pattern.edges if not e.is_path)
            if len(edge_tags) >= 2:
                op = AllDifferent(tags=edge_tags, inputs=(op,))
        return op

    # -- logical -> physical conversion -----------------------------------------------
    def _to_physical(self, node: LogicalOperator,
                     searches: List[PatternSearchInfo]) -> PhysicalOperator:
        if isinstance(node, MatchPatternOp):
            return self._plan_match(node, searches)
        if isinstance(node, SelectOp):
            return Filter(predicate=node.predicate,
                          inputs=(self._to_physical(node.inputs[0], searches),))
        if isinstance(node, ProjectOp):
            return Project(items=node.items, append=node.append,
                           inputs=(self._to_physical(node.inputs[0], searches),))
        if isinstance(node, GroupOp):
            return Aggregate(keys=node.keys, aggregations=node.aggregations,
                             mode=self._profile.aggregate_mode,
                             inputs=(self._to_physical(node.inputs[0], searches),))
        if isinstance(node, OrderOp):
            return Sort(keys=node.keys, limit=node.limit,
                        inputs=(self._to_physical(node.inputs[0], searches),))
        if isinstance(node, LimitOp):
            return Limit(count=node.count,
                         inputs=(self._to_physical(node.inputs[0], searches),))
        if isinstance(node, DedupOp):
            return Dedup(tags=node.tags,
                         inputs=(self._to_physical(node.inputs[0], searches),))
        if isinstance(node, JoinOp):
            left = self._to_physical(node.inputs[0], searches)
            right = self._to_physical(node.inputs[1], searches)
            return HashJoin(keys=node.keys, join_type=node.join_type.value,
                            inputs=(left, right))
        if isinstance(node, UnionOp):
            return self._plan_union(node, searches)
        raise PlanningError("cannot lower logical operator %r" % (node,))

    def _plan_union(self, node: UnionOp,
                    searches: List[PatternSearchInfo]) -> PhysicalOperator:
        shared = node.common_subpattern
        left, right = node.inputs
        if (
            shared is not None
            and isinstance(left, MatchPatternOp)
            and isinstance(right, MatchPatternOp)
        ):
            try:
                return self._plan_shared_union(node, shared, left, right, searches)
            except PlanningError:
                pass
        left_op = self._to_physical(left, searches)
        right_op = self._to_physical(right, searches)
        return Union(distinct=node.distinct, inputs=(left_op, right_op))

    def _plan_shared_union(
        self, node: UnionOp, shared: PatternGraph, left: MatchPatternOp,
        right: MatchPatternOp, searches: List[PatternSearchInfo],
    ) -> PhysicalOperator:
        """ComSubPattern execution: match the shared part once, expand residuals."""
        shared_result = self._search_pattern(shared)
        searches.append(PatternSearchInfo(pattern=shared, result=shared_result))
        shared_op = build_pattern_physical(shared_result.plan, self._profile)
        branches = []
        for branch in (left, right):
            branches.append(self._expand_residual(shared, branch.pattern, shared_op))
        return Union(distinct=node.distinct, inputs=tuple(branches))

    def _expand_residual(
        self,
        shared: PatternGraph,
        full: PatternGraph,
        shared_op: PhysicalOperator,
    ) -> PhysicalOperator:
        """Expand the vertices of ``full`` not covered by ``shared`` onto ``shared_op``."""
        bound = set(shared.vertex_names)
        bound_edges = list(shared.edge_names)
        source = full.subpattern_by_edges(bound_edges) if bound_edges else shared
        op = shared_op
        while bound != set(full.vertex_names):
            frontier = [
                v for v in full.vertex_names
                if v not in bound and any(
                    e.other_endpoint(v) in bound for e in full.incident_edges(v)
                )
            ]
            if not frontier:
                raise PlanningError("residual pattern is disconnected from the shared part")
            vertex = sorted(frontier)[0]
            edges = [e for e in full.incident_edges(vertex) if e.other_endpoint(vertex) in bound]
            bound_edges.extend(e.name for e in edges)
            target = full.subpattern_by_edges(bound_edges)
            op = self._profile.expand_spec.build_operators(source, edges, target, vertex, op)
            source = target
            bound.add(vertex)
        leftover = set(full.edge_names) - set(bound_edges)
        if leftover:
            raise PlanningError("residual edges between shared vertices are not supported")
        return op


#: the plan-producing pipelines the paper's evaluation compares: flavour name
#: -> the :class:`OptimizerConfig` switches it turns off
_FLAVOR_SWITCHES = {
    # the full stack with the backend's own PhysicalSpec
    "gopt": {},
    # GOpt costing expansion with Neo4j's ExpandInto model while building
    # GraphScope operators (Fig. 8(c))
    "gopt-neo-cost": {},
    # GOpt restricted to low-order statistics (Fig. 8(d))
    "gopt-low-order": dict(use_high_order_statistics=False),
    # a CypherPlanner-like baseline: greedy expand-only planning on low-order
    # statistics, no type inference, ExpandInto operators
    "neo4j": dict(enable_type_inference=False),
    # GraphScope's rule-based-only behaviour: the user-written matching order
    "gs": dict(enable_type_inference=False, enable_cbo=False),
    # ablations that disable a single technique
    "no-rbo": dict(enable_rbo=False),
    "no-type-inference": dict(enable_type_inference=False),
    "no-cbo": dict(enable_cbo=False),
}


def build_optimizer(
    graph: PropertyGraph,
    flavor: str = "gopt",
    profile: Optional[BackendProfile] = None,
    glogue: Optional[Glogue] = None,
) -> GOptimizer:
    """One of the optimizer flavours the paper compares (see ``_FLAVOR_SWITCHES``)."""
    if flavor not in _FLAVOR_SWITCHES:
        raise ValueError("unknown optimizer flavor %r" % (flavor,))
    if glogue is None:
        glogue = Glogue.from_graph(graph)
    pattern_planner = None
    if flavor == "gopt-neo-cost":
        profile = graphscope_with_neo4j_costs()
    elif flavor == "neo4j":
        profile = neo4j_profile()
        pattern_planner = CypherPlannerBaseline(
            GlogueQuery(glogue, use_high_order=False), profile)
    config = OptimizerConfig(**_FLAVOR_SWITCHES[flavor])
    return GOptimizer.for_graph(graph, profile=profile, config=config, glogue=glogue,
                                pattern_planner=pattern_planner)
