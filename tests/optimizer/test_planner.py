"""Tests for the GOptimizer pipeline (RBO + type inference + CBO + lowering)."""

import pytest

from repro.gir import GraphIrBuilder
from repro.gir.operators import AggregateFunction
from repro.gir.pattern import PatternGraph
from repro.graph.types import AllType, BasicType
from repro.lang.cypher import cypher_to_gir
from repro.optimizer.physical_plan import (
    Aggregate,
    AllDifferent,
    Filter,
    HashJoin,
    PhysicalPlan,
    ScanVertex,
    Sort,
    Union,
)
from repro.optimizer.planner import GOptimizer, OptimizerConfig, build_optimizer
from repro.optimizer.physical_spec import graphscope_profile, neo4j_profile


@pytest.fixture(scope="module")
def social_optimizer(social_graph):
    return GOptimizer.for_graph(social_graph, profile=graphscope_profile())


def running_example_plan():
    return cypher_to_gir("""
        MATCH (v1)-[e1]->(v2)-[e2]->(v3)
        MATCH (v1)-[e3]->(v3:Place)
        WHERE v3.name = 'China'
        WITH v2, count(v2) AS cnt
        RETURN v2, cnt
        ORDER BY cnt
        LIMIT 10
    """)


class TestPipeline:
    def test_running_example_produces_fig3_shape(self, social_optimizer):
        report = social_optimizer.optimize(running_example_plan())
        physical = report.physical_plan
        names = [op.name for op in physical.operators()]
        assert "ScanVertex" in names
        assert "Aggregate" in names and "Sort" in names
        # the two MATCH clauses were merged into one pattern by JoinToPattern
        assert "HashJoin" not in names
        assert "JoinToPattern" in report.applied_rules
        assert "FilterIntoPattern" in report.applied_rules
        # type inference narrowed the untyped vertices
        search = report.pattern_searches[0]
        assert search.pattern.vertex("v1").constraint.label() == "Person"
        assert "Product" in search.pattern.vertex("v2").constraint.label()

    def test_estimated_cost_reported(self, social_optimizer):
        report = social_optimizer.optimize(running_example_plan())
        assert report.estimated_cost > 0
        assert report.optimization_time >= 0
        assert "estimated cost" in report.explain()

    def test_backend_specific_operators(self, social_graph):
        plan = running_example_plan()
        gs_report = GOptimizer.for_graph(social_graph, profile=graphscope_profile()).optimize(plan)
        neo_report = GOptimizer.for_graph(social_graph, profile=neo4j_profile()).optimize(plan)
        gs_names = {op.name for op in gs_report.physical_plan.operators()}
        neo_names = {op.name for op in neo_report.physical_plan.operators()}
        assert "ExpandIntersect" in gs_names
        assert "ExpandIntersect" not in neo_names
        assert "ExpandInto" in neo_names
        gs_aggs = [op for op in gs_report.physical_plan.operators() if isinstance(op, Aggregate)]
        neo_aggs = [op for op in neo_report.physical_plan.operators() if isinstance(op, Aggregate)]
        assert gs_aggs[0].mode == "local_global"
        assert neo_aggs[0].mode == "global"

    def test_disabling_rbo_keeps_select(self, social_graph):
        config = OptimizerConfig(enable_rbo=False)
        optimizer = GOptimizer.for_graph(social_graph, profile=graphscope_profile(), config=config)
        report = optimizer.optimize(running_example_plan())
        assert report.applied_rules == ()
        names = [op.name for op in report.physical_plan.operators()]
        assert "Filter" in names or "HashJoin" in names

    def test_invalid_pattern_becomes_empty_scan(self, social_graph):
        # Place has no outgoing edges in the social schema
        plan = cypher_to_gir("MATCH (a:Place)-[e]->(b:Person) RETURN count(a) AS cnt")
        optimizer = GOptimizer.for_graph(social_graph, profile=graphscope_profile())
        report = optimizer.optimize(plan)
        scans = [op for op in report.physical_plan.operators() if isinstance(op, ScanVertex)]
        assert any(op.constraint.is_empty for op in scans)

    def test_no_repeated_edge_semantics_adds_all_different(self, social_optimizer):
        plan = cypher_to_gir(
            "MATCH (a:Person)-[e1:Knows]->(b:Person)-[e2:Knows]->(c:Person) RETURN count(a) AS cnt")
        report = social_optimizer.optimize(plan)
        assert any(isinstance(op, AllDifferent) for op in report.physical_plan.operators())

    def test_gremlin_homomorphism_has_no_all_different(self, social_graph):
        from repro.lang.gremlin import gremlin_to_gir

        plan = gremlin_to_gir(
            "g.V().hasLabel('Person').as('a').out('Knows').as('b').out('Knows').as('c').count()")
        optimizer = GOptimizer.for_graph(social_graph, profile=graphscope_profile())
        report = optimizer.optimize(plan)
        assert not any(isinstance(op, AllDifferent) for op in report.physical_plan.operators())

    def test_union_with_shared_subpattern_shares_operator(self, social_graph):
        builder = GraphIrBuilder()
        shared = PatternGraph()
        shared.add_vertex("p", BasicType("Person"))
        shared.add_vertex("f", BasicType("Person"))
        shared.add_edge("k", "p", "f", BasicType("Knows"))
        left = shared.copy()
        left.add_vertex("m", BasicType("Product"))
        left.add_edge("b", "f", "m", BasicType("Purchases"))
        right = shared.copy()
        right.add_vertex("c", BasicType("Place"))
        right.add_edge("l", "f", "c", BasicType("LocatedIn"))
        plan = (builder.match_pattern(left).union(builder.match_pattern(right))
                .group(keys=["p"], agg_func=AggregateFunction.COUNT, alias="cnt")
                .build())
        optimizer = GOptimizer.for_graph(social_graph, profile=graphscope_profile())
        report = optimizer.optimize(plan)
        unions = [op for op in report.physical_plan.operators() if isinstance(op, Union)]
        assert unions
        union = unions[0]
        shared_ids = set()

        def leaf_scans(op):
            found = []
            stack = [op]
            while stack:
                node = stack.pop()
                if not node.inputs:
                    found.append(id(node))
                stack.extend(node.inputs)
            return found

        left_leaves = leaf_scans(union.inputs[0])
        right_leaves = leaf_scans(union.inputs[1])
        # ComSubPattern: both branches bottom out in the *same* operator object
        assert set(left_leaves) & set(right_leaves)

    def test_optimize_pattern_shortcut(self, social_optimizer):
        pattern = PatternGraph()
        pattern.add_vertex("a", AllType())
        pattern.add_vertex("b", BasicType("Place"))
        pattern.add_edge("e", "a", "b", AllType())
        result = social_optimizer.optimize_pattern(pattern)
        assert result.cost > 0

    def test_pattern_planner_override(self, social_graph, social_gq):
        from repro.optimizer.baselines import UserOrderPlanner

        planner = UserOrderPlanner(social_gq, graphscope_profile())
        optimizer = GOptimizer.for_graph(
            social_graph, profile=graphscope_profile(), pattern_planner=planner)
        plan = cypher_to_gir(
            "MATCH (a:Person)-[:Knows]->(b:Person)-[:LocatedIn]->(c:Place) RETURN count(a) AS cnt")
        report = optimizer.optimize(plan)
        search = report.pattern_searches[0]
        assert search.result.plan.vertex_order()[0] == "a"

    def test_physical_plan_serialisation(self, social_optimizer):
        report = social_optimizer.optimize(running_example_plan())
        payload = report.physical_plan.to_dict()
        assert payload["op"] == report.physical_plan.root.name
        assert isinstance(payload["inputs"], list)


class TestFlavors:
    def test_build_optimizer_flavors(self, ldbc_graph, ldbc_glogue):
        for flavor in ("gopt", "gopt-neo-cost", "gopt-low-order", "neo4j", "gs",
                       "no-rbo", "no-type-inference", "no-cbo"):
            optimizer = build_optimizer(ldbc_graph, flavor, glogue=ldbc_glogue)
            assert optimizer is not None
        with pytest.raises(ValueError):
            build_optimizer(ldbc_graph, "mystery", glogue=ldbc_glogue)
