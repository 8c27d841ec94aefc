"""Tests for GLogue statistics and GlogueQuery cardinality estimation."""

import pytest

from repro.gir.expressions import parse_expression
from repro.gir.pattern import PatternGraph
from repro.graph.types import AllType, BasicType, UnionType
from repro.optimizer.cardinality import GlogueQuery, SelectivityConfig
from repro.optimizer.glogue import Glogue


@pytest.fixture()
def tiny_glogue(tiny_graph):
    return Glogue.from_graph(tiny_graph)


@pytest.fixture()
def tiny_gq(tiny_glogue):
    return GlogueQuery(tiny_glogue)


def pattern_of(*spec):
    """Helper: spec is (vertices, edges) where vertices are (name, type|None)."""
    vertices, edges = spec
    pattern = PatternGraph()
    for name, vtype in vertices:
        pattern.add_vertex(name, vtype)
    for name, src, dst, label in edges:
        pattern.add_edge(name, src, dst, label)
    return pattern


class TestGlogueLowOrder:
    def test_vertex_and_edge_counts(self, tiny_glogue):
        assert tiny_glogue.vertex_count("Person") == 4
        assert tiny_glogue.vertex_count("Product") == 3
        assert tiny_glogue.vertex_count("Ghost") == 0
        assert tiny_glogue.edge_count("Knows") == 4
        assert tiny_glogue.triple_count("Person", "Knows", "Person") == 4
        assert tiny_glogue.triple_count("Person", "Purchases", "Product") == 5

    def test_totals(self, tiny_glogue):
        assert tiny_glogue.total_vertices == 9
        assert tiny_glogue.total_edges == 4 + 5 + 4 + 3

    def test_summary_keys(self, tiny_glogue):
        summary = tiny_glogue.summary()
        assert summary["motifs"] == tiny_glogue.num_motifs > 0


class TestGlogueMotifs:
    def test_single_vertex_pattern(self, tiny_glogue):
        pattern = pattern_of([("a", BasicType("Person"))], [])
        assert tiny_glogue.pattern_freq(pattern) == 4.0

    def test_single_edge_pattern(self, tiny_glogue):
        pattern = pattern_of(
            [("a", BasicType("Person")), ("b", BasicType("Product"))],
            [("e", "a", "b", BasicType("Purchases"))],
        )
        assert tiny_glogue.pattern_freq(pattern) == 5.0

    def test_wedge_frequency_exact(self, tiny_graph, tiny_glogue):
        # wedge: (x:Person)-[:Knows]->(c:Person)-[:LocatedIn]->(p:Place)
        pattern = pattern_of(
            [("x", BasicType("Person")), ("c", BasicType("Person")), ("p", BasicType("Place"))],
            [("e1", "x", "c", BasicType("Knows")), ("e2", "c", "p", BasicType("LocatedIn"))],
        )
        # brute-force homomorphism count on the tiny graph
        expected = 0
        for eid in tiny_graph.edges():
            edge = tiny_graph.edge(eid)
            if edge.label != "Knows":
                continue
            expected += len(tiny_graph.out_edges(edge.dst, "LocatedIn"))
        assert tiny_glogue.pattern_freq(pattern) == float(expected)

    def test_triangle_frequency_exact(self, tiny_glogue):
        # the Knows triangle 0->1->2->0 is the only directed Knows triangle
        pattern = pattern_of(
            [("a", BasicType("Person")), ("b", BasicType("Person")), ("c", BasicType("Person"))],
            [("e1", "a", "b", BasicType("Knows")),
             ("e2", "b", "c", BasicType("Knows")),
             ("e3", "c", "a", BasicType("Knows"))],
        )
        assert tiny_glogue.pattern_freq(pattern) == pytest.approx(1.0)

    def test_union_type_pattern_not_catalogued(self, tiny_glogue):
        pattern = pattern_of(
            [("a", BasicType("Person")), ("b", UnionType("Product", "Place")),
             ("c", BasicType("Place"))],
            [("e1", "a", "b", AllType()), ("e2", "a", "c", BasicType("LocatedIn"))],
        )
        assert tiny_glogue.pattern_freq(pattern) is None

    def test_larger_pattern_not_catalogued(self, tiny_glogue):
        pattern = pattern_of(
            [("a", BasicType("Person")), ("b", BasicType("Person")),
             ("c", BasicType("Person")), ("d", BasicType("Person"))],
            [("e1", "a", "b", BasicType("Knows")), ("e2", "b", "c", BasicType("Knows")),
             ("e3", "c", "d", BasicType("Knows"))],
        )
        assert tiny_glogue.pattern_freq(pattern) is None

    def test_missing_motif_reports_zero(self, tiny_glogue):
        # Product has no outgoing Knows edges: this wedge cannot exist
        pattern = pattern_of(
            [("a", BasicType("Product")), ("b", BasicType("Place")), ("c", BasicType("Place"))],
            [("e1", "a", "b", BasicType("ProducedIn")), ("e2", "a", "c", BasicType("ProducedIn"))],
        )
        assert tiny_glogue.pattern_freq(pattern) is not None


class TestGlogueQuery:
    def test_exact_lookup_used_for_basic_types(self, tiny_gq):
        pattern = pattern_of(
            [("a", BasicType("Person")), ("b", BasicType("Product"))],
            [("e", "a", "b", BasicType("Purchases"))],
        )
        assert tiny_gq.get_freq(pattern) == 5.0

    def test_vertex_constraint_freq(self, tiny_gq):
        assert tiny_gq.vertex_constraint_freq(BasicType("Person")) == 4
        assert tiny_gq.vertex_constraint_freq(UnionType("Person", "Product")) == 7
        assert tiny_gq.vertex_constraint_freq(AllType()) == 9

    def test_edge_constraint_freq_respects_endpoints(self, tiny_gq):
        assert tiny_gq.edge_constraint_freq(BasicType("LocatedIn")) == 4
        assert tiny_gq.edge_constraint_freq(
            AllType(), BasicType("Product"), BasicType("Place")) == 3

    def test_union_type_estimation_positive(self, tiny_gq):
        pattern = pattern_of(
            [("a", BasicType("Person")), ("b", UnionType("Product", "Person")),
             ("c", BasicType("Place"))],
            [("e1", "a", "b", AllType()), ("e2", "b", "c", AllType())],
        )
        estimate = tiny_gq.get_freq(pattern)
        assert estimate > 0

    def test_estimation_monotone_in_constraints(self, tiny_gq):
        broad = pattern_of(
            [("a", AllType()), ("b", AllType()), ("c", AllType())],
            [("e1", "a", "b", AllType()), ("e2", "b", "c", AllType())],
        )
        narrow = pattern_of(
            [("a", BasicType("Person")), ("b", BasicType("Person")), ("c", BasicType("Place"))],
            [("e1", "a", "b", BasicType("Knows")), ("e2", "b", "c", BasicType("LocatedIn"))],
        )
        assert tiny_gq.get_freq(broad) >= tiny_gq.get_freq(narrow)

    def test_predicates_reduce_estimates(self, tiny_gq):
        pattern = pattern_of([("a", BasicType("Person"))], [])
        filtered = pattern.with_vertex(
            pattern.vertex("a").with_predicate(parse_expression("a.name = 'person-0'")))
        assert tiny_gq.get_freq(filtered) < tiny_gq.get_freq(pattern)

    def test_in_list_selectivity(self, tiny_gq):
        pattern = pattern_of([("a", BasicType("Person"))], [])
        filtered = pattern.with_vertex(
            pattern.vertex("a").with_predicate(parse_expression("a.id IN [0, 1]")))
        assert tiny_gq.get_freq(filtered) == pytest.approx(2.0, rel=0.2)

    def test_id_equality_is_highly_selective(self, tiny_gq):
        pattern = pattern_of([("a", BasicType("Person"))], [])
        filtered = pattern.with_vertex(
            pattern.vertex("a").with_predicate(parse_expression("a.id = 2")))
        assert tiny_gq.get_freq(filtered) == pytest.approx(1.0, rel=0.2)

    def test_path_edge_estimation_grows_with_hops(self, tiny_gq):
        def path_pattern(hops):
            pattern = PatternGraph()
            pattern.add_vertex("a", BasicType("Person"))
            pattern.add_vertex("b", BasicType("Person"))
            pattern.add_edge("p", "a", "b", BasicType("Knows"), min_hops=hops, max_hops=hops)
            return pattern

        assert tiny_gq.get_freq(path_pattern(3)) >= tiny_gq.get_freq(path_pattern(1)) * 0.5

    def test_join_freq_eq1(self, tiny_gq):
        left = pattern_of(
            [("a", BasicType("Person")), ("b", BasicType("Person"))],
            [("e1", "a", "b", BasicType("Knows"))],
        )
        right = pattern_of(
            [("b", BasicType("Person")), ("c", BasicType("Place"))],
            [("e2", "b", "c", BasicType("LocatedIn"))],
        )
        common = pattern_of([("b", BasicType("Person"))], [])
        estimate = tiny_gq.estimate_join_freq(left, right, common)
        assert estimate == pytest.approx(4 * 4 / 4)

    def test_low_order_mode_differs_from_high_order(self, tiny_glogue):
        # wedge with a Product centre: the exact homomorphism count is 9 (sum of
        # squared purchaser counts); the independence estimate of Eq. 2 is 25/3
        wedge = pattern_of(
            [("x", BasicType("Person")), ("p", BasicType("Product")), ("y", BasicType("Person"))],
            [("e1", "x", "p", BasicType("Purchases")),
             ("e2", "y", "p", BasicType("Purchases"))],
        )
        high = GlogueQuery(tiny_glogue, use_high_order=True).get_freq(wedge)
        low = GlogueQuery(tiny_glogue, use_high_order=False).get_freq(wedge)
        assert high == pytest.approx(9.0)
        assert low == pytest.approx(25.0 / 3.0)
        assert abs(high - 9.0) < abs(low - 9.0)

    def test_high_order_triangle_is_exact(self, tiny_glogue):
        triangle = pattern_of(
            [("a", BasicType("Person")), ("b", BasicType("Person")), ("c", BasicType("Person"))],
            [("e1", "a", "b", BasicType("Knows")),
             ("e2", "b", "c", BasicType("Knows")),
             ("e3", "c", "a", BasicType("Knows"))],
        )
        high = GlogueQuery(tiny_glogue, use_high_order=True).get_freq(triangle)
        assert high == pytest.approx(1.0)

    def test_cache_is_used(self, tiny_gq):
        pattern = pattern_of(
            [("a", BasicType("Person")), ("b", BasicType("Person"))],
            [("e", "a", "b", BasicType("Knows"))],
        )
        tiny_gq.clear_cache()
        tiny_gq.get_freq(pattern)
        size_after_first = tiny_gq.cache_size
        tiny_gq.get_freq(pattern)
        assert tiny_gq.cache_size == size_after_first

    def test_selectivity_config(self, tiny_glogue):
        strict = GlogueQuery(tiny_glogue, selectivity=SelectivityConfig(equality=0.01))
        loose = GlogueQuery(tiny_glogue, selectivity=SelectivityConfig(equality=0.5))
        pattern = pattern_of([("a", BasicType("Person"))], [])
        filtered = pattern.with_vertex(
            pattern.vertex("a").with_predicate(parse_expression("a.name = 'x'")))
        assert strict.get_freq(filtered) < loose.get_freq(filtered)
