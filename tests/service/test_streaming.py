"""Streaming execution: cursor semantics, counter parity, bounded memory."""

import pytest

from repro import GraphService
from repro.datasets import ldbc_snb_graph
from repro.errors import GOptError
from repro.optimizer.planner import OptimizerConfig

PARITY_QUERIES = [
    "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS name",
    "MATCH (p:Person)-[:Knows]->(f:Person)-[:LocatedIn]->(c:Place) "
    "RETURN DISTINCT c.name AS place",
    "MATCH (p:Person) WHERE p.age > 30 RETURN p.name AS n",
    "MATCH (p:Person) RETURN count(p) AS c",
    "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS n ORDER BY n LIMIT 4",
]


@pytest.fixture(scope="module")
def service(social_graph):
    return GraphService(social_graph, backend="graphscope", num_partitions=2)


class TestStreamingParity:
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_rows_and_counters_match_materialized(self, service, query, engine):
        """``Backend.execute`` is a fully drained stream, bit-for-bit:
        identical rows (content and order) and identical work counters."""
        report = service.optimize(query)
        backend = service.backend
        materialized = backend.execute(report.physical_plan, engine=engine)
        stream = backend.execute_streaming(report.physical_plan, engine=engine)
        assert list(stream) == materialized.rows
        streamed = stream.metrics().as_dict()
        reference = materialized.metrics.as_dict()
        for key, value in reference.items():
            if key != "elapsed_seconds":
                assert streamed[key] == value, key

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_neo4j_backend_parity(self, social_graph, engine):
        service = GraphService(social_graph, backend="neo4j")
        query = PARITY_QUERIES[0]
        report = service.optimize(query)
        materialized = service.backend.execute(report.physical_plan, engine=engine)
        stream = service.backend.execute_streaming(report.physical_plan, engine=engine)
        assert list(stream) == materialized.rows


class TestEarlyExit:
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_limit_stops_pulling(self, service, engine):
        # small batches so the vectorized engine's early exit shows on a small
        # graph too (streaming granularity is one batch)
        query = "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS n"
        unlimited = service.backend.execute(
            service.optimize(query).physical_plan, engine=engine, batch_size=8)
        stream = service.backend.execute_streaming(
            service.optimize(query + " LIMIT 5").physical_plan,
            engine=engine, batch_size=8)
        assert list(stream) == unlimited.rows[:5]
        assert (stream.metrics().intermediate_results
                < unlimited.metrics.intermediate_results)

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_limit_never_materializes_on_largest_scaling_graph(self, engine):
        """Acceptance: LIMIT 5 on the largest scaling graph stays tiny.

        The execution's intermediate-result counter must stay within a small
        constant of the 5 returned rows -- orders of magnitude below the full
        expansion the same query performs without the LIMIT.
        """
        graph = ldbc_snb_graph("G1000")
        # low-order statistics keep setup fast; plan quality is irrelevant here
        service = GraphService(graph, backend="graphscope",
                               config=OptimizerConfig(max_motif_vertices=2))
        query = "MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.id AS friend"
        with service.session(engine=engine, batch_size=32) as session:
            cursor = session.run(query + " LIMIT 5")
            rows = cursor.fetch_all()
            metrics = cursor.consume()
        assert len(rows) == 5
        full = service.backend.execute(
            service.optimize(query).physical_plan, engine=engine)
        # a handful of small batches of work, not the full expansion
        assert metrics.intermediate_results < 5_000
        assert metrics.intermediate_results < full.metrics.intermediate_results / 10

    def test_early_close_stops_work(self, service):
        with service.session() as session:
            cursor = session.run(PARITY_QUERIES[0])
            assert cursor.fetch_many(2)
            partial = cursor.consume()
            drained = session.run(PARITY_QUERIES[0])
            drained.fetch_all()
            full = drained.consume()
        assert partial.intermediate_results < full.intermediate_results


class TestResultCursor:
    def test_fetch_interface(self, service):
        with service.session() as session:
            cursor = session.run("MATCH (p:Person) RETURN p.name AS n")
            first = cursor.fetch_one()
            assert first and "n" in first
            batch = cursor.fetch_many(10)
            assert len(batch) == 10
            rest = cursor.fetch_all()
            total = 1 + len(batch) + len(rest)
        assert total == service.graph.vertex_count("Person")

    def test_fetch_one_returns_none_at_end(self, service):
        with service.session() as session:
            cursor = session.run("MATCH (p:Person) RETURN count(p) AS c")
            assert cursor.fetch_one() is not None
            assert cursor.fetch_one() is None

    def test_fetch_many_negative_rejected(self, service):
        with service.session() as session:
            cursor = session.run("MATCH (p:Person) RETURN p.name AS n")
            with pytest.raises(GOptError):
                cursor.fetch_many(-1)
            cursor.close()

    def test_fetch_many_zero_consumes_nothing(self, service):
        with service.session() as session:
            cursor = session.run("MATCH (p:Person) RETURN p.name AS n")
            assert cursor.fetch_many(0) == []
            remaining = cursor.fetch_all()
        assert len(remaining) == service.graph.vertex_count("Person")

    def test_closed_cursor_yields_nothing(self, service):
        with service.session() as session:
            cursor = session.run("MATCH (p:Person) RETURN p.name AS n")
            cursor.close()
            assert cursor.fetch_all() == []

    def test_consume_is_idempotent(self, service):
        with service.session() as session:
            cursor = session.run("MATCH (p:Person) RETURN p.name AS n")
            first = cursor.consume()
            second = cursor.consume()
        assert first.intermediate_results == second.intermediate_results

    def test_cursor_exposes_report(self, service):
        with service.session() as session:
            cursor = session.run("MATCH (p:Person) RETURN count(p) AS c")
            assert cursor.report is not None
            assert cursor.report.physical_plan.size() >= 1
            cursor.close()

    def test_drained_cursor_matches_backend_execute(self, service):
        with service.session() as session:
            cursor = session.run(PARITY_QUERIES[0])
            assert cursor.fetch_all() == service.backend.execute(
                cursor.report.physical_plan).rows
            assert not cursor.timed_out
            assert cursor.backend == "graphscope"

    def test_streaming_timeout_flags_not_raises(self, service):
        with service.session(max_intermediate_results=3) as session:
            cursor = session.run(PARITY_QUERIES[0])
            rows = cursor.fetch_all()  # stream ends at the budget, no raise
            assert cursor.timed_out
            assert cursor.consume().timed_out
            assert len(rows) <= 3
