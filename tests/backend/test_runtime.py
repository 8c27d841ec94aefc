"""Tests for the runtime operator interpreter on hand-built physical plans."""

import pytest

from repro.backend.runtime.binding import ERef, PRef, VRef
from repro.backend.runtime.context import ExecutionContext, ExecutionOptions
from repro.backend.runtime.streaming import execute_operator
from repro.errors import ExecutionTimeout
from repro.gir.expressions import parse_expression
from repro.gir.operators import AggregateCall, AggregateFunction, ProjectItem, SortKey
from repro.gir.pattern import PathConstraint
from repro.graph.types import AllType, BasicType, Direction, UnionType
from repro.optimizer.physical_plan import (
    Aggregate,
    AllDifferent,
    Dedup,
    ExpandEdge,
    ExpandInto,
    ExpandIntersect,
    Filter,
    HashJoin,
    IntersectBranch,
    Limit,
    PathExpand,
    Project,
    ScanVertex,
    Sort,
    Union,
)


@pytest.fixture()
def ctx(tiny_graph):
    return ExecutionContext(tiny_graph)


def scan(tag, vtype, predicates=()):
    return ScanVertex(tag=tag, constraint=BasicType(vtype) if isinstance(vtype, str) else vtype,
                      predicates=predicates)


class TestScanAndExpand:
    def test_scan_by_type(self, ctx):
        rows = execute_operator(scan("a", "Person"), ctx)
        assert len(rows) == 4
        assert all(isinstance(row["a"], VRef) for row in rows)

    def test_scan_with_predicate(self, ctx):
        op = ScanVertex(tag="a", constraint=BasicType("Person"),
                        predicates=(parse_expression("a.name = 'person-2'"),))
        rows = execute_operator(op, ctx)
        assert len(rows) == 1

    def test_scan_empty_constraint(self, ctx):
        from repro.graph.types import TypeConstraint

        op = ScanVertex(tag="a", constraint=TypeConstraint.empty())
        assert execute_operator(op, ctx) == []

    def test_expand_edge_out(self, ctx):
        op = ExpandEdge(anchor_tag="a", edge_tag="e", target_tag="b",
                        direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                        target_constraint=BasicType("Person"),
                        inputs=(scan("a", "Person"),))
        rows = execute_operator(op, ctx)
        assert len(rows) == 4  # four Knows edges
        assert all(isinstance(row["e"], ERef) for row in rows)

    def test_expand_edge_in(self, ctx):
        op = ExpandEdge(anchor_tag="p", edge_tag="e", target_tag="who",
                        direction=Direction.IN, edge_constraint=BasicType("Purchases"),
                        target_constraint=BasicType("Person"),
                        inputs=(scan("p", "Product"),))
        rows = execute_operator(op, ctx)
        assert len(rows) == 5

    def test_expand_edge_respects_target_constraint(self, ctx):
        op = ExpandEdge(anchor_tag="a", edge_tag="e", target_tag="b",
                        direction=Direction.OUT, edge_constraint=AllType(),
                        target_constraint=BasicType("Place"),
                        inputs=(scan("a", "Person"),))
        rows = execute_operator(op, ctx)
        assert len(rows) == 4  # one LocatedIn edge per person

    def test_expand_into_checks_existing_edge(self, ctx):
        base = ExpandEdge(anchor_tag="a", edge_tag="e1", target_tag="b",
                          direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                          target_constraint=BasicType("Person"),
                          inputs=(scan("a", "Person"),))
        second = ExpandEdge(anchor_tag="b", edge_tag="e2", target_tag="c",
                            direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                            target_constraint=BasicType("Person"),
                            inputs=(base,))
        closing = ExpandInto(anchor_tag="c", edge_tag="e3", target_tag="a",
                             direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                             inputs=(second,))
        rows = execute_operator(closing, ctx)
        # the directed Knows triangle 0->1->2->0 closes in three rotations
        assert all(isinstance(row["e3"], ERef) for row in rows)
        assert len(rows) == 3

    def test_expand_intersect(self, ctx):
        # find persons knowing both endpoints of a Knows edge (triangle closing)
        base = ExpandEdge(anchor_tag="a", edge_tag="e1", target_tag="b",
                          direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                          target_constraint=BasicType("Person"),
                          inputs=(scan("a", "Person"),))
        intersect = ExpandIntersect(
            target_tag="c", target_constraint=BasicType("Person"),
            branches=(
                IntersectBranch(anchor_tag="a", edge_tag="e2", direction=Direction.IN,
                                edge_constraint=BasicType("Knows")),
                IntersectBranch(anchor_tag="b", edge_tag="e3", direction=Direction.OUT,
                                edge_constraint=BasicType("Knows")),
            ),
            inputs=(base,))
        rows = execute_operator(intersect, ctx)
        # (a,b,c) with c->a and b->c: the directed triangle produces 3 rotations
        assert len(rows) == 3

    def test_path_expand_reaches_multi_hop(self, ctx):
        op = PathExpand(anchor_tag="a", path_tag="p", target_tag="b",
                        direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                        min_hops=2, max_hops=2,
                        target_constraint=BasicType("Person"),
                        inputs=(ScanVertex(tag="a", constraint=BasicType("Person"),
                                           predicates=(parse_expression("a.name = 'person-0'"),)),))
        rows = execute_operator(op, ctx)
        ends = {ctx.graph.vertex_property(row["b"].id, "name") for row in rows}
        assert "person-2" in ends
        assert all(row["p"].length == 2 for row in rows)

    def test_path_expand_simple_constraint_avoids_revisits(self, ctx):
        unrestricted = PathExpand(anchor_tag="a", path_tag="p", target_tag="b",
                                  direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                                  min_hops=3, max_hops=3,
                                  target_constraint=BasicType("Person"),
                                  inputs=(scan("a", "Person"),))
        simple = PathExpand(anchor_tag="a", path_tag="p", target_tag="b",
                            direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                            min_hops=3, max_hops=3, path_constraint=PathConstraint.SIMPLE,
                            target_constraint=BasicType("Person"),
                            inputs=(scan("a", "Person"),))
        assert len(execute_operator(simple, ExecutionContext(ctx.graph))) <= \
            len(execute_operator(unrestricted, ExecutionContext(ctx.graph)))


class TestRelationalOperators:
    def test_filter(self, ctx):
        op = Filter(predicate=parse_expression("a.id >= 2"), inputs=(scan("a", "Person"),))
        assert len(execute_operator(op, ctx)) == 2

    def test_project_columns(self, ctx):
        op = Project(items=(ProjectItem(parse_expression("a.name"), "name"),),
                     inputs=(scan("a", "Person"),))
        rows = execute_operator(op, ctx)
        assert {"name"} == set(rows[0].keys())

    def test_project_append(self, ctx):
        op = Project(items=(ProjectItem(parse_expression("a.name"), "name"),),
                     append=True, inputs=(scan("a", "Person"),))
        rows = execute_operator(op, ctx)
        assert set(rows[0].keys()) == {"a", "name"}

    def test_aggregate_count_by_key(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        expand = ExpandEdge(anchor_tag="a", edge_tag="e", target_tag="b",
                            direction=Direction.OUT, edge_constraint=BasicType("Purchases"),
                            target_constraint=BasicType("Product"),
                            inputs=(scan("a", "Person"),))
        group = Aggregate(keys=(ProjectItem(parse_expression("b"), "b"),),
                          aggregations=(AggregateCall(AggregateFunction.COUNT, None, "cnt"),),
                          inputs=(expand,))
        rows = execute_operator(group, ctx)
        assert sum(row["cnt"] for row in rows) == 5
        assert len(rows) == 3

    def test_aggregate_global_count_on_empty_input(self, ctx):
        group = Aggregate(keys=(), aggregations=(AggregateCall(AggregateFunction.COUNT, None, "cnt"),),
                          inputs=(ScanVertex(tag="x", constraint=BasicType("Person"),
                                             predicates=(parse_expression("x.name = 'nobody'"),)),))
        rows = execute_operator(group, ctx)
        assert rows == [{"cnt": 0}]

    def test_aggregate_functions(self, ctx):
        group = Aggregate(
            keys=(),
            aggregations=(
                AggregateCall(AggregateFunction.SUM, parse_expression("a.id"), "total"),
                AggregateCall(AggregateFunction.MIN, parse_expression("a.id"), "low"),
                AggregateCall(AggregateFunction.MAX, parse_expression("a.id"), "high"),
                AggregateCall(AggregateFunction.AVG, parse_expression("a.id"), "mean"),
                AggregateCall(AggregateFunction.COUNT_DISTINCT, parse_expression("a.id"), "distinct"),
                AggregateCall(AggregateFunction.COLLECT, parse_expression("a.id"), "bag"),
            ),
            inputs=(scan("a", "Person"),))
        row = execute_operator(group, ctx)[0]
        assert row["total"] == 0 + 1 + 2 + 3
        assert row["low"] == 0 and row["high"] == 3
        assert row["mean"] == pytest.approx(1.5)
        assert row["distinct"] == 4
        assert sorted(row["bag"]) == [0, 1, 2, 3]

    def test_sort_and_limit(self, ctx):
        sort = Sort(keys=(SortKey(parse_expression("a.id"), ascending=False),), limit=2,
                    inputs=(scan("a", "Person"),))
        rows = execute_operator(sort, ctx)
        assert [ctx.graph.vertex_property(r["a"].id, "id") for r in rows] == [3, 2]
        limit = Limit(count=1, inputs=(scan("a", "Person"),))
        assert len(execute_operator(limit, ExecutionContext(ctx.graph))) == 1

    def test_sort_multiple_keys_mixed_direction(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        expand = ExpandEdge(anchor_tag="a", edge_tag="e", target_tag="p",
                            direction=Direction.OUT, edge_constraint=BasicType("LocatedIn"),
                            target_constraint=BasicType("Place"),
                            inputs=(scan("a", "Person"),))
        sort = Sort(keys=(SortKey(parse_expression("p.id"), ascending=True),
                          SortKey(parse_expression("a.id"), ascending=False)),
                    inputs=(expand,))
        rows = execute_operator(sort, ctx)
        keys = [(ctx.graph.vertex_property(r["p"].id, "id"),
                 ctx.graph.vertex_property(r["a"].id, "id")) for r in rows]
        assert keys == sorted(keys, key=lambda t: (t[0], -t[1]))

    def test_hash_join_inner(self, ctx):
        left = ExpandEdge(anchor_tag="a", edge_tag="e1", target_tag="place",
                          direction=Direction.OUT, edge_constraint=BasicType("LocatedIn"),
                          target_constraint=BasicType("Place"),
                          inputs=(scan("a", "Person"),))
        right = ExpandEdge(anchor_tag="prod", edge_tag="e2", target_tag="place",
                           direction=Direction.OUT, edge_constraint=BasicType("ProducedIn"),
                           target_constraint=BasicType("Place"),
                           inputs=(scan("prod", "Product"),))
        join = HashJoin(keys=("place",), inputs=(left, right))
        rows = execute_operator(join, ctx)
        assert rows
        for row in rows:
            assert {"a", "prod", "place", "e1", "e2"} <= set(row.keys())

    def test_hash_join_semi_and_anti(self, ctx):
        left = scan("a", "Person")
        right = ExpandEdge(anchor_tag="b", edge_tag="e", target_tag="a",
                           direction=Direction.IN, edge_constraint=BasicType("Knows"),
                           target_constraint=BasicType("Person"),
                           inputs=(scan("b", "Person"),))
        semi = HashJoin(keys=("a",), join_type="semi", inputs=(left, right))
        anti = HashJoin(keys=("a",), join_type="anti", inputs=(left, right))
        semi_rows = execute_operator(semi, ExecutionContext(ctx.graph))
        anti_rows = execute_operator(anti, ExecutionContext(ctx.graph))
        assert len(semi_rows) + len(anti_rows) == 4

    def test_dedup(self, ctx):
        expand = ExpandEdge(anchor_tag="a", edge_tag="e", target_tag="b",
                            direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                            target_constraint=BasicType("Person"),
                            inputs=(scan("a", "Person"),))
        dedup = Dedup(tags=("a",), inputs=(expand,))
        rows = execute_operator(dedup, ctx)
        assert len(rows) == 3  # persons 0, 1, 2 have outgoing Knows edges

    def test_union_and_distinct(self, ctx):
        union = Union(inputs=(scan("a", "Person"), scan("a", "Person")))
        assert len(execute_operator(union, ctx)) == 8
        distinct = Union(distinct=True, inputs=(scan("a", "Person"), scan("a", "Person")))
        assert len(execute_operator(distinct, ExecutionContext(ctx.graph))) == 4

    def test_all_different(self, ctx):
        expand = ExpandEdge(anchor_tag="a", edge_tag="e1", target_tag="b",
                            direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                            target_constraint=BasicType("Person"),
                            inputs=(scan("a", "Person"),))
        closing = ExpandInto(anchor_tag="a", edge_tag="e2", target_tag="b",
                             direction=Direction.OUT, edge_constraint=BasicType("Knows"),
                             inputs=(expand,))
        all_diff = AllDifferent(tags=("e1", "e2"), inputs=(closing,))
        rows = execute_operator(all_diff, ctx)
        # e1 and e2 both bind edges between the same (a, b): only parallel edges
        # would survive, and the tiny graph has none
        assert rows == []


class TestBudgetsAndCaching:
    def test_intermediate_budget_enforced(self, tiny_graph):
        ctx = ExecutionContext(
            tiny_graph, options=ExecutionOptions(max_intermediate_results=2))
        with pytest.raises(ExecutionTimeout):
            execute_operator(scan("a", "Person"), ctx)

    def test_batch_size_below_one_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            ExecutionContext(tiny_graph, options=ExecutionOptions(batch_size=0))

    def test_operator_result_cache_by_identity(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        shared = scan("a", "Person")
        union = Union(inputs=(shared, shared))
        rows = execute_operator(union, ctx)
        assert len(rows) == 8
        # the scan executed once: one Scan + one Union
        assert ctx.counters.operators_executed == 2

    def test_counters_populated(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        expand = ExpandEdge(anchor_tag="a", edge_tag="e", target_tag="b",
                            direction=Direction.OUT, edge_constraint=AllType(),
                            target_constraint=AllType(),
                            inputs=(scan("a", "Person"),))
        execute_operator(expand, ctx)
        snapshot = ctx.counters.snapshot()
        assert snapshot["vertices_scanned"] == 4
        assert snapshot["edges_traversed"] > 0
        assert snapshot["intermediate_results"] > 0
