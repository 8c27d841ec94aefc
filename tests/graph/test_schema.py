"""Unit tests for the graph schema."""

import pytest

from repro.errors import SchemaError
from repro.graph.schema import GraphSchema
from repro.graph.types import AllType, BasicType, UnionType


@pytest.fixture()
def schema(tiny_schema):
    return tiny_schema


class TestDeclaration:
    def test_vertex_and_edge_registration(self, schema):
        assert set(schema.vertex_types) == {"Person", "Product", "Place"}
        assert set(schema.edge_labels) == {"Knows", "Purchases", "LocatedIn", "ProducedIn"}

    def test_edge_requires_known_vertex_types(self):
        schema = GraphSchema()
        schema.add_vertex_type("A")
        with pytest.raises(SchemaError):
            schema.add_edge_type("E", "A", "Unknown")
        with pytest.raises(SchemaError):
            schema.add_edge_type("E", "Unknown", "A")

    def test_duplicate_registration_is_idempotent(self, schema):
        before = len(schema.edge_triples)
        schema.add_edge_type("Knows", "Person", "Person")
        assert len(schema.edge_triples) == before

    def test_vertex_property_merge(self):
        schema = GraphSchema()
        schema.add_vertex_type("A", {"x": "int"})
        schema.add_vertex_type("A", {"y": "string"})
        assert schema.vertex_type_def("A").properties == {"x": "int", "y": "string"}

    def test_unknown_vertex_type_lookup_raises(self, schema):
        with pytest.raises(SchemaError):
            schema.vertex_type_def("Nope")


class TestConnectivity:
    def test_src_types_of(self, schema):
        assert schema.src_types_of("ProducedIn") == frozenset({"Product"})
        assert schema.src_types_of("LocatedIn", dst_types={"Product"}) == frozenset()

    def test_has_triple(self, schema):
        assert schema.has_triple("Person", "Knows", "Person")
        assert not schema.has_triple("Person", "Knows", "Place")


class TestConstraintResolution:
    def test_resolve_vertex_constraint(self, schema):
        assert schema.resolve_vertex_constraint(AllType()) == frozenset(schema.vertex_types)
        assert schema.resolve_vertex_constraint(BasicType("Person")) == frozenset({"Person"})
        assert schema.resolve_vertex_constraint(UnionType("Person", "Ghost")) == frozenset({"Person"})

    def test_resolve_edge_constraint(self, schema):
        assert schema.resolve_edge_constraint(BasicType("Knows")) == frozenset({"Knows"})
        assert schema.resolve_edge_constraint(AllType()) == frozenset(schema.edge_labels)


class TestSerialisationAndInference:
    def test_round_trip(self, schema):
        rebuilt = GraphSchema.from_dict(schema.to_dict())
        assert set(rebuilt.vertex_types) == set(schema.vertex_types)
        assert set(rebuilt.edge_triples) == set(schema.edge_triples)

    def test_infer_from_graph(self, tiny_graph):
        inferred = GraphSchema.infer_from_graph(tiny_graph)
        assert set(inferred.vertex_types) == {"Person", "Product", "Place"}
        assert inferred.has_triple("Person", "Knows", "Person")
        assert inferred.has_triple("Product", "ProducedIn", "Place")
        # property keys discovered from the data
        assert "name" in inferred.vertex_type_def("Person").properties
