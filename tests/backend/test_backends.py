"""Tests for the Neo4j-like and GraphScope-like backends."""

import pytest

from repro.backend import GraphScopeLikeBackend, Neo4jLikeBackend
from repro.datasets import ldbc_snb_graph
from repro.lang.cypher import cypher_to_gir
from repro.optimizer.planner import GOptimizer
from repro.optimizer.physical_plan import PhysicalPlan, ScanVertex
from repro.graph.types import BasicType


QUERY = """
    MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(c:Place)
    RETURN c.name AS place, count(p) AS cnt
    ORDER BY cnt DESC
    LIMIT 5
"""


class TestExecution:
    def test_backends_agree_on_results(self, ldbc_graph, graphscope_backend, neo4j_backend):
        plan = cypher_to_gir(QUERY)
        gs_opt = GOptimizer.for_graph(ldbc_graph, profile=graphscope_backend.profile())
        neo_opt = GOptimizer.for_graph(ldbc_graph, profile=neo4j_backend.profile())
        gs_result = graphscope_backend.execute(gs_opt.optimize(plan).physical_plan)
        neo_result = neo4j_backend.execute(neo_opt.optimize(plan).physical_plan)
        assert sorted(gs_result.tuples(["place", "cnt"])) == sorted(neo_result.tuples(["place", "cnt"]))

    def test_metrics_reported(self, ldbc_graph, graphscope_backend):
        plan = cypher_to_gir(QUERY)
        optimizer = GOptimizer.for_graph(ldbc_graph, profile=graphscope_backend.profile())
        result = graphscope_backend.execute(optimizer.optimize(plan).physical_plan)
        metrics = result.metrics.as_dict()
        assert metrics["intermediate_results"] > 0
        assert metrics["edges_traversed"] > 0
        assert result.metrics.total_work > 0
        assert not result.timed_out

    def test_distributed_backend_counts_shuffles(self, ldbc_graph):
        plan = cypher_to_gir(QUERY)
        distributed = GraphScopeLikeBackend(ldbc_graph, num_partitions=4)
        single = GraphScopeLikeBackend(ldbc_graph, num_partitions=1)
        optimizer = GOptimizer.for_graph(ldbc_graph, profile=distributed.profile())
        physical = optimizer.optimize(plan).physical_plan
        assert distributed.execute(physical).metrics.tuples_shuffled > 0
        assert single.execute(physical).metrics.tuples_shuffled == 0

    def test_neo4j_backend_has_no_shuffles(self, ldbc_graph, neo4j_backend):
        plan = cypher_to_gir(QUERY)
        optimizer = GOptimizer.for_graph(ldbc_graph, profile=neo4j_backend.profile())
        result = neo4j_backend.execute(optimizer.optimize(plan).physical_plan)
        assert result.metrics.tuples_shuffled == 0

    def test_timeout_flags_result_as_ot(self, ldbc_graph):
        backend = GraphScopeLikeBackend(ldbc_graph, max_intermediate_results=50)
        optimizer = GOptimizer.for_graph(ldbc_graph, profile=backend.profile())
        result = backend.execute(optimizer.optimize(cypher_to_gir(QUERY)).physical_plan)
        assert result.timed_out
        assert result.rows == []

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_execute_stops_early_under_a_bare_limit(self, engine):
        """``execute`` is a drained stream: LIMIT 5 pays for a prefix only.

        (Small batches so the vectorized engine, whose early-exit granularity
        is one batch, shows it on a G300-sized graph.)
        """
        graph = ldbc_snb_graph("G300")
        backend = GraphScopeLikeBackend(graph, num_partitions=4)
        optimizer = GOptimizer.for_graph(graph, profile=backend.profile())
        query = "MATCH (p:Person)-[:KNOWS]->(f) RETURN f.id AS friend"
        full, limited = (
            backend.execute(optimizer.optimize(cypher_to_gir(text)).physical_plan,
                            engine=engine, batch_size=8)
            for text in (query, query + " LIMIT 5"))
        assert limited.rows == full.rows[:5]
        assert (limited.metrics.intermediate_results
                < full.metrics.intermediate_results / 10)

    def test_invalid_partition_count_rejected(self, ldbc_graph):
        with pytest.raises(ValueError):
            GraphScopeLikeBackend(ldbc_graph, num_partitions=0)

    def test_render_rows(self, ldbc_graph, graphscope_backend):
        plan = cypher_to_gir("MATCH (p:Person)-[e:KNOWS]->(f:Person) RETURN p, f LIMIT 3")
        optimizer = GOptimizer.for_graph(ldbc_graph, profile=graphscope_backend.profile())
        result = graphscope_backend.execute(optimizer.optimize(plan).physical_plan)
        rendered = graphscope_backend.render_rows(result, limit=2)
        assert len(rendered) <= 2
        for row in rendered:
            assert all(isinstance(v, (str, int, float)) for v in row.values())

    def test_execute_empty_scan(self, ldbc_graph, graphscope_backend):
        from repro.graph.types import TypeConstraint

        plan = PhysicalPlan(ScanVertex(tag="x", constraint=TypeConstraint.empty()))
        result = graphscope_backend.execute(plan)
        assert len(result) == 0
        assert not result.timed_out

    def test_result_column_helper(self, ldbc_graph, graphscope_backend):
        plan = PhysicalPlan(ScanVertex(tag="x", constraint=BasicType("TagClass")))
        result = graphscope_backend.execute(plan)
        assert len(result.column("x")) == len(result)
        assert result.tuples(["x"])
