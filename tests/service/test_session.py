"""Tests for GraphService sessions: overrides, lifecycle, materialized parity."""

import pytest

from repro import GraphService
from repro.backend import Neo4jLikeBackend
from repro.errors import GOptError

QUERY = "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS name"


@pytest.fixture(scope="module")
def service(social_graph):
    return GraphService(social_graph, backend="graphscope", num_partitions=2)


class TestGraphService:
    def test_session_run_matches_materialized_execution(self, service, social_graph):
        reference = GraphService(social_graph, backend="graphscope", num_partitions=2)
        with service.session() as session:
            rows = session.run(QUERY).fetch_all()
        assert rows == reference.backend.execute(
            reference.optimize(QUERY).physical_plan).rows

    def test_backend_selection_and_passthrough(self, social_graph):
        assert GraphService(social_graph, backend="neo4j").backend.name == "neo4j"
        backend = Neo4jLikeBackend(social_graph)
        assert GraphService(social_graph, backend=backend).backend is backend
        with pytest.raises(GOptError):
            GraphService(social_graph, backend="mystery")

    def test_gremlin_through_session(self, service):
        with service.session() as session:
            rows = session.run("g.V().hasLabel('Person').count()",
                               language="gremlin").fetch_all()
        assert rows and "count" in rows[0]

    def test_logical_plan_input(self, service):
        plan = service.parse("MATCH (p:Person) RETURN count(p) AS c")
        with service.session() as session:
            rows = session.run(plan).fetch_all()
        assert rows[0]["c"] == service.graph.vertex_count("Person")

    def test_unsupported_language_rejected(self, service):
        with pytest.raises(GOptError):
            service.parse("SELECT 1", language="sparql")

    def test_explain(self, service):
        with service.session() as session:
            text = session.explain(QUERY)
        assert "physical plan" in text and "Scan" in text


class TestSessionOverrides:
    def test_engine_override_is_per_session(self, service):
        with service.session(engine="vectorized") as vec, service.session() as row:
            assert vec.engine == "vectorized"
            assert row.engine == "row"
            assert service.backend.options.engine == "row"  # shared state untouched
            assert vec.run(QUERY).fetch_all() == row.run(QUERY).fetch_all()

    def test_unknown_engine_rejected(self, service):
        with pytest.raises(GOptError):
            service.session(engine="turbo")

    def test_intermediate_budget_override(self, service):
        with service.session(max_intermediate_results=1) as tiny:
            cursor = tiny.run(QUERY)
            assert len(cursor.fetch_all()) <= 1  # the stream ends at the budget
            assert cursor.timed_out

    def test_timeout_override(self, service):
        with service.session(timeout_seconds=0.0) as instant:
            cursor = instant.run(QUERY)
            assert cursor.fetch_all() == []
            assert cursor.timed_out

    def test_batch_size_override(self, service):
        with service.session(engine="vectorized", batch_size=2) as small:
            rows = small.run(QUERY).fetch_all()
        with service.session(engine="vectorized") as normal:
            assert rows == normal.run(QUERY).fetch_all()


class TestSessionLifecycle:
    def test_closed_session_rejects_queries(self, service):
        session = service.session()
        session.close()
        assert session.closed
        with pytest.raises(GOptError):
            session.run(QUERY)
        with pytest.raises(GOptError):
            session.prepare(QUERY)

    def test_context_manager_closes(self, service):
        with service.session() as session:
            pass
        assert session.closed

    def test_sessions_are_independent(self, service):
        first = service.session()
        second = service.session()
        first.close()
        assert not second.closed
        assert second.run("MATCH (p:Person) RETURN count(p) AS c").fetch_all()
        second.close()
