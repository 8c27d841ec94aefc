"""Unit tests for the property graph substrate."""

import pytest

from repro.errors import GraphError
from repro.graph.property_graph import PropertyGraph
from repro.graph.types import BasicType, Direction, UnionType


@pytest.fixture()
def graph():
    g = PropertyGraph()
    a = g.add_vertex("Person", {"name": "a"})
    b = g.add_vertex("Person", {"name": "b"})
    c = g.add_vertex("Place", {"name": "c"})
    g.add_edge(a, b, "Knows", {"since": 2020})
    g.add_edge(a, c, "LocatedIn")
    g.add_edge(b, c, "LocatedIn")
    g.add_edge(a, b, "Knows")  # parallel edge
    return g


class TestConstruction:
    def test_counts(self, graph):
        assert graph.num_vertices == 3
        assert graph.num_edges == 4

    def test_auto_ids_are_distinct(self):
        g = PropertyGraph()
        ids = [g.add_vertex("T") for _ in range(5)]
        assert len(set(ids)) == 5

    def test_explicit_vertex_id(self):
        g = PropertyGraph()
        assert g.add_vertex("T", vertex_id=42) == 42
        # auto ids continue after the explicit one
        assert g.add_vertex("T") == 43

    def test_duplicate_vertex_id_rejected(self):
        g = PropertyGraph()
        g.add_vertex("T", vertex_id=1)
        with pytest.raises(GraphError):
            g.add_vertex("T", vertex_id=1)

    def test_edge_requires_existing_endpoints(self):
        g = PropertyGraph()
        v = g.add_vertex("T")
        with pytest.raises(GraphError):
            g.add_edge(v, 999, "E")

    def test_schema_validation(self, tiny_schema):
        g = PropertyGraph(schema=tiny_schema, validate=True)
        with pytest.raises(GraphError):
            g.add_vertex("Ghost")
        person = g.add_vertex("Person")
        place = g.add_vertex("Place")
        with pytest.raises(GraphError):
            g.add_edge(place, person, "LocatedIn")  # wrong direction for the triple
        g.add_edge(person, place, "LocatedIn")


class TestAccess:
    def test_vertex_view(self, graph):
        vertex = graph.vertex(0)
        assert vertex.type == "Person"
        assert vertex.properties["name"] == "a"

    def test_vertex_property_default(self, graph):
        assert graph.vertex_property(0, "missing", default=7) == 7

    def test_unknown_vertex_raises(self, graph):
        with pytest.raises(GraphError):
            graph.vertex(99)
        with pytest.raises(GraphError):
            graph.vertex_type(99)

    def test_edge_view(self, graph):
        edge = graph.edge(0)
        assert edge.label == "Knows"
        assert edge.properties["since"] == 2020
        assert (edge.src, edge.dst) == (0, 1)

    def test_unknown_edge_raises(self, graph):
        with pytest.raises(GraphError):
            graph.edge(99)

    def test_vertices_of_type(self, graph):
        persons = list(graph.vertices_of_type("Person"))
        assert sorted(persons) == [0, 1]
        union = list(graph.vertices_of_type(UnionType("Person", "Place")))
        assert sorted(union) == [0, 1, 2]
        everything = list(graph.vertices_of_type(None))
        assert len(everything) == 3

    def test_has_edge(self, graph):
        assert graph.has_edge(0, 1, "Knows")
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0, "Knows")
        assert not graph.has_edge(0, 1, "LocatedIn")


class TestAdjacency:
    def test_out_edges_filtered_by_label(self, graph):
        knows = graph.out_edges(0, "Knows")
        assert len(knows) == 2
        located = graph.out_edges(0, BasicType("LocatedIn"))
        assert len(located) == 1

    def test_in_edges(self, graph):
        incoming = graph.in_edges(2)
        assert len(incoming) == 2
        assert {src for _, src in incoming} == {0, 1}

    def test_adjacent_edges_both(self, graph):
        # vertex 1 has two incoming Knows edges and one outgoing LocatedIn edge
        assert len(graph.adjacent_edges(1, Direction.BOTH)) == 3

    def test_neighbors(self, graph):
        assert sorted(graph.neighbors(0, Direction.OUT)) == [1, 1, 2]

    def test_degrees(self, graph):
        assert graph.out_degree(0) == 3
        assert graph.in_degree(2) == 2
        assert graph.degree(1) == 3
        assert graph.out_degree(0, "Knows") == 2

    def test_adjacency_of_isolated_vertex(self):
        g = PropertyGraph()
        v = g.add_vertex("T")
        assert g.out_edges(v) == []
        assert g.in_edges(v) == []


class TestStatistics:
    def test_vertex_count_by_constraint(self, graph):
        assert graph.vertex_count("Person") == 2
        assert graph.vertex_count(UnionType("Person", "Place")) == 3
        assert graph.vertex_count() == 3

    def test_edge_count_by_constraint(self, graph):
        assert graph.edge_count("Knows") == 2
        assert graph.edge_count() == 4

    def test_counts_by_type(self, graph):
        assert graph.counts_by_vertex_type() == {"Person": 2, "Place": 1}
        assert graph.counts_by_edge_label() == {"Knows": 2, "LocatedIn": 2}

    def test_counts_by_edge_triple(self, graph):
        triples = graph.counts_by_edge_triple()
        assert triples[("Person", "Knows", "Person")] == 2
        assert triples[("Person", "LocatedIn", "Place")] == 2

    def test_schema_is_inferred_when_missing(self, graph):
        schema = graph.schema
        assert schema.has_triple("Person", "Knows", "Person")
