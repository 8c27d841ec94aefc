"""Tests for the CBO: physical specs, cost model, plan search and baselines."""

import gc
import time

import pytest

from repro.errors import PlanningError
from repro.gir.pattern import PatternGraph
from repro.graph.types import AllType, BasicType, UnionType
from repro.optimizer.baselines import (
    CypherPlannerBaseline,
    RandomPlanner,
    UserOrderPlanner,
    plan_from_vertex_order,
)
from repro.optimizer.cardinality import GlogueQuery
from repro.optimizer.cost_model import CostModel
from repro.optimizer.physical_plan import (
    ExpandEdge,
    ExpandInto,
    ExpandIntersect,
    HashJoin,
    ScanVertex,
)
from repro.optimizer.physical_spec import (
    ExpandIntersectSpec,
    ExpandIntoSpec,
    HashJoinSpec,
    graphscope_profile,
    graphscope_with_neo4j_costs,
    neo4j_profile,
)
from repro.optimizer.planner import build_optimizer
from repro.optimizer.search import (
    PatternSearcher,
    build_pattern_physical,
    enumerate_expand_candidates,
    enumerate_join_candidates,
)
from repro.workloads import qc_queries


@pytest.fixture()
def gq(tiny_graph):
    from repro.optimizer.glogue import Glogue

    return GlogueQuery(Glogue.from_graph(tiny_graph))


def triangle_pattern():
    pattern = PatternGraph()
    pattern.add_vertex("a", BasicType("Person"))
    pattern.add_vertex("b", BasicType("Person"))
    pattern.add_vertex("c", BasicType("Place"))
    pattern.add_edge("e1", "a", "b", BasicType("Knows"))
    pattern.add_edge("e2", "b", "c", BasicType("LocatedIn"))
    pattern.add_edge("e3", "a", "c", BasicType("LocatedIn"))
    return pattern


def path_pattern(length=3):
    pattern = PatternGraph()
    for index in range(length + 1):
        pattern.add_vertex("v%d" % index, BasicType("Person"))
    for index in range(length):
        pattern.add_edge("e%d" % index, "v%d" % index, "v%d" % (index + 1), BasicType("Knows"))
    return pattern


class TestCandidateEnumeration:
    def test_expand_candidates_for_triangle(self):
        candidates = enumerate_expand_candidates(triangle_pattern())
        assert {c.new_vertex for c in candidates} == {"a", "b", "c"}
        for candidate in candidates:
            assert len(candidate.edges) == 2
            assert candidate.source.num_edges == 1

    def test_expand_candidates_for_path_exclude_middle(self):
        candidates = enumerate_expand_candidates(path_pattern(2))
        # removing the middle vertex would disconnect the pattern
        assert {c.new_vertex for c in candidates} == {"v0", "v2"}

    def test_expand_candidates_single_edge(self):
        candidates = enumerate_expand_candidates(path_pattern(1))
        assert len(candidates) == 2
        assert all(c.source.num_vertices == 1 for c in candidates)

    def test_join_candidates_for_path(self):
        candidates = enumerate_join_candidates(path_pattern(3))
        assert candidates
        for candidate in candidates:
            names = set(candidate.left.edge_names) | set(candidate.right.edge_names)
            assert names == set(path_pattern(3).edge_names)
            assert candidate.keys

    def test_join_candidates_respect_connectivity(self):
        for candidate in enumerate_join_candidates(path_pattern(3)):
            assert candidate.left.is_connected()
            assert candidate.right.is_connected()

    def test_join_candidates_empty_for_single_edge(self):
        assert enumerate_join_candidates(path_pattern(1)) == []


class TestPhysicalSpecs:
    def test_hash_join_cost_is_sum_of_freqs(self, gq):
        spec = HashJoinSpec()
        left = path_pattern(1)
        right = path_pattern(1)
        assert spec.compute_cost(gq, left, right, path_pattern(2)) == pytest.approx(
            gq.get_freq(left) + gq.get_freq(right))

    def test_expand_intersect_cost(self, gq):
        spec = ExpandIntersectSpec()
        pattern = triangle_pattern()
        source = pattern.subpattern_by_edges(["e1"])
        edges = [pattern.edge("e2"), pattern.edge("e3")]
        assert spec.compute_cost(gq, source, edges, pattern) == pytest.approx(
            2 * gq.get_freq(source))

    def test_expand_into_cost_sums_intermediates(self, gq):
        spec = ExpandIntoSpec()
        pattern = triangle_pattern()
        source = pattern.subpattern_by_edges(["e1"])
        edges = [pattern.edge("e2"), pattern.edge("e3")]
        cost = spec.compute_cost(gq, source, edges, pattern)
        assert cost >= gq.get_freq(pattern)

    def test_expand_into_builds_expand_then_into(self, gq):
        spec = ExpandIntoSpec()
        pattern = triangle_pattern()
        source = pattern.subpattern_by_edges(["e1"])
        edges = [pattern.edge("e2"), pattern.edge("e3")]
        scan = ScanVertex(tag="a", constraint=BasicType("Person"))
        op = spec.build_operators(source, edges, pattern, "c", scan)
        assert isinstance(op, ExpandInto)
        assert isinstance(op.inputs[0], ExpandEdge)

    def test_expand_intersect_builds_intersection(self, gq):
        spec = ExpandIntersectSpec()
        pattern = triangle_pattern()
        source = pattern.subpattern_by_edges(["e1"])
        edges = [pattern.edge("e2"), pattern.edge("e3")]
        scan = ScanVertex(tag="a", constraint=BasicType("Person"))
        op = spec.build_operators(source, edges, pattern, "c", scan)
        assert isinstance(op, ExpandIntersect)
        assert len(op.branches) == 2

    def test_single_edge_expansion_is_plain_expand(self, gq):
        spec = ExpandIntersectSpec()
        pattern = path_pattern(1)
        source = pattern.single_vertex_pattern("v0")
        op = spec.build_operators(source, [pattern.edge("e0")], pattern, "v1", None)
        assert isinstance(op, ExpandEdge)

    def test_profiles(self):
        neo = neo4j_profile()
        gs = graphscope_profile()
        assert neo.expand_spec.name == "ExpandInto"
        assert gs.expand_spec.name == "ExpandIntersect"
        assert not neo.include_communication_cost
        assert gs.include_communication_cost
        mismatched = graphscope_with_neo4j_costs()
        assert mismatched.expand_spec.name == "ExpandIntersect"
        assert mismatched.expand_cost_spec.name == "ExpandInto"


class TestCostModel:
    def test_communication_cost_only_for_distributed(self, gq):
        pattern = path_pattern(1)
        distributed = CostModel(gq, graphscope_profile())
        local = CostModel(gq, neo4j_profile())
        assert distributed.communication_cost(pattern) > 0
        assert local.communication_cost(pattern) == 0

    def test_expand_step_cost_positive(self, gq):
        pattern = path_pattern(2)
        model = CostModel(gq, graphscope_profile())
        source = pattern.subpattern_by_edges(["e0"])
        cost = model.expand_step_cost(source, [pattern.edge("e1")], pattern)
        assert cost > 0


class TestPatternSearcher:
    def test_plan_covers_all_edges(self, gq):
        searcher = PatternSearcher(gq, graphscope_profile())
        result = searcher.optimize(triangle_pattern())
        plan = result.plan
        assert set(plan.pattern.edge_names) == {"e1", "e2", "e3"}
        assert result.cost > 0
        assert result.states_explored >= 1

    def test_single_vertex_pattern(self, gq):
        pattern = PatternGraph()
        pattern.add_vertex("a", BasicType("Person"))
        result = PatternSearcher(gq, graphscope_profile()).optimize(pattern)
        assert result.plan.kind == "scan"
        assert result.cost == pytest.approx(4.0)

    def test_disconnected_pattern_rejected(self, gq):
        pattern = PatternGraph()
        pattern.add_vertex("a", BasicType("Person"))
        pattern.add_vertex("b", BasicType("Person"))
        with pytest.raises(PlanningError):
            PatternSearcher(gq, graphscope_profile()).optimize(pattern)

    def test_search_not_worse_than_greedy(self, gq):
        searcher = PatternSearcher(gq, graphscope_profile())
        result = searcher.optimize(triangle_pattern())
        assert result.cost <= result.greedy_cost + 1e-9

    def test_pruning_preserves_plan_quality(self, gq):
        pattern = path_pattern(4)
        pruned = PatternSearcher(gq, graphscope_profile(), enable_pruning=True).optimize(pattern)
        exhaustive = PatternSearcher(gq, graphscope_profile(), enable_pruning=False).optimize(pattern)
        assert pruned.cost == pytest.approx(exhaustive.cost)

    def test_pruning_reduces_or_equals_explored_states(self, gq):
        pattern = path_pattern(4)
        pruned = PatternSearcher(gq, graphscope_profile(), enable_pruning=True).optimize(pattern)
        exhaustive = PatternSearcher(gq, graphscope_profile(), enable_pruning=False).optimize(pattern)
        assert pruned.states_explored <= exhaustive.states_explored

    def test_join_transform_can_be_disabled(self, gq):
        pattern = path_pattern(4)
        no_join = PatternSearcher(gq, graphscope_profile(), enable_join=False).optimize(pattern)
        with_join = PatternSearcher(gq, graphscope_profile(), enable_join=True).optimize(pattern)
        assert with_join.cost <= no_join.cost + 1e-9

    def test_vertex_order_is_consistent(self, gq):
        result = PatternSearcher(gq, graphscope_profile()).optimize(triangle_pattern())
        order = result.plan.vertex_order()
        assert sorted(order) == ["a", "b", "c"]

    def test_lowering_to_physical(self, gq):
        result = PatternSearcher(gq, graphscope_profile()).optimize(triangle_pattern())
        op = build_pattern_physical(result.plan, graphscope_profile())
        kinds = {type(o).__name__ for o in _walk(op)}
        assert "ScanVertex" in kinds
        assert kinds & {"ExpandEdge", "ExpandIntersect", "ExpandInto", "HashJoin"}

    def test_qc4a_compiles_fast_without_searching_less(self, ldbc_graph, ldbc_glogue):
        """The estimator's bookkeeping must stay cheaper than the search it serves.

        With a factorial cache key this compile took ~3.5 s, nearly all of it
        inside ``canonical_key``; it now takes ~0.1 s.  The search statistics are
        the brute-force-key version's, so time can only have fallen because
        bookkeeping fell, never because search was cut.
        """
        optimizer = build_optimizer(ldbc_graph, "gopt", glogue=ldbc_glogue)
        plan = qc_queries().get("QC4a").logical_plan()
        gc.collect()
        gc.disable()  # one full collection of the session's graphs costs ~0.1 s
        try:
            start = time.perf_counter()
            report = optimizer.optimize(plan)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        (search,) = report.pattern_searches
        assert (search.pattern.num_vertices, search.pattern.num_edges) == (6, 8)
        assert search.result.states_explored == 39
        assert search.result.candidates_pruned == 466
        assert search.result.cost == 1353.4141859166602
        assert elapsed < 1.0


def _walk(op):
    yield op
    for child in op.inputs:
        yield from _walk(child)


class TestBaselines:
    def test_plan_from_vertex_order(self, gq):
        pattern = triangle_pattern()
        model = CostModel(gq, neo4j_profile())
        plan = plan_from_vertex_order(pattern, ["a", "b", "c"], model)
        assert set(plan.pattern.edge_names) == set(pattern.edge_names)
        assert plan.children[0].new_vertex == "b"

    def test_plan_from_invalid_order_rejected(self, gq):
        pattern = triangle_pattern()
        model = CostModel(gq, neo4j_profile())
        with pytest.raises(PlanningError):
            plan_from_vertex_order(pattern, ["a", "b"], model)

    def test_cypher_planner_baseline_requires_low_order(self, gq):
        with pytest.raises(PlanningError):
            CypherPlannerBaseline(gq)

    def test_cypher_planner_baseline_produces_plan(self, tiny_graph):
        from repro.optimizer.glogue import Glogue

        low_gq = GlogueQuery(Glogue.from_graph(tiny_graph), use_high_order=False)
        baseline = CypherPlannerBaseline(low_gq)
        result = baseline.optimize(triangle_pattern())
        assert set(result.plan.pattern.edge_names) == {"e1", "e2", "e3"}

    def test_user_order_planner_follows_declaration_order(self, gq):
        planner = UserOrderPlanner(gq, graphscope_profile())
        result = planner.optimize(path_pattern(2))
        assert result.plan.vertex_order() == ["v0", "v1", "v2"]

    def test_random_planner_is_seeded(self, gq):
        profile = graphscope_profile()
        a = RandomPlanner(gq, profile, seed=7).optimize(triangle_pattern())
        b = RandomPlanner(gq, profile, seed=7).optimize(triangle_pattern())
        assert a.plan.vertex_order() == b.plan.vertex_order()

    def test_random_planner_samples_distinct_plans(self, gq):
        planner = RandomPlanner(gq, graphscope_profile(), seed=1)
        samples = planner.sample_plans(path_pattern(3), count=4)
        orders = {tuple(s.plan.vertex_order()) for s in samples}
        assert len(orders) == len(samples) >= 2
