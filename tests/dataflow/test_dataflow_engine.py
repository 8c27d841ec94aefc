"""Partition-parallel dataflow engine: determinism, parity, integration.

The differential suite (tests/backend/test_engine_equivalence.py) already
holds ``engine="dataflow"`` to the row engine's rows and counters on every
workload query; this module covers the properties specific to the parallel
runtime: scheduling-independence of the results, reconciliation of the
*observed* exchange traffic with the *simulated* communication counts, the
driver-side join, the ``workers=`` override through the service layer, and
the cursor lifecycle (nothing starts before the first pull).
"""

import threading

import pytest

from repro import GraphService
from repro.backend import GraphScopeLikeBackend
from repro.backend.runtime.dataflow import (
    build_pipelines,
    extract_segment,
    plan_refcounts,
)
from repro.bench.pipelines import build_optimizer
from repro.graph.types import Direction, TypeConstraint
from repro.optimizer.physical_plan import (
    ExpandEdge,
    HashJoin,
    PhysicalPlan,
    ScanVertex,
)
from repro.workloads import ic_queries, qc_queries

pytestmark = pytest.mark.dataflow

COUNTERS = ("intermediate_results", "edges_traversed", "vertices_scanned",
            "tuples_shuffled", "operators_executed", "cells_produced")

TWO_HOP = ("MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
           "RETURN a.id AS a, b.id AS b, c.id AS c")


@pytest.fixture(scope="module")
def ldbc_gopt(ldbc_graph):
    return GraphService(ldbc_graph, backend="graphscope", num_partitions=4,
                        max_intermediate_results=500_000, timeout_seconds=30.0,
                        plan_cache_size=None)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_identical_rows_and_counters_across_worker_counts(
            self, ldbc_gopt, workers):
        """1, 2 or 8 worker threads: bit-identical rows and work counters.

        The logical partition count is fixed by the graph partitioner, so
        shuffle routing -- and with it every counter -- must not depend on
        how many threads execute the partitions.
        """
        report = ldbc_gopt.optimize(TWO_HOP)
        reference = ldbc_gopt.backend.execute(report.physical_plan, engine="row")
        result = ldbc_gopt.backend.execute(report.physical_plan,
                                           engine="dataflow", workers=workers)
        assert result.rows == reference.rows
        for counter in COUNTERS:
            assert result.metrics.as_dict()[counter] == \
                reference.metrics.as_dict()[counter], counter

    def test_repeated_runs_are_stable(self, ldbc_gopt):
        report = ldbc_gopt.optimize(
            "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(c:Place) "
            "RETURN c.id AS place, count(f) AS cnt ORDER BY cnt DESC, place")
        runs = [ldbc_gopt.backend.execute(report.physical_plan, engine="dataflow",
                                          workers=4) for _ in range(3)]
        assert runs[0].rows == runs[1].rows == runs[2].rows
        snapshots = [r.exchange_stats for r in runs]
        assert snapshots[0] == snapshots[1] == snapshots[2]


class TestExchangeParity:
    """Observed exchange traffic must reconcile with the simulated counts."""

    @pytest.mark.parametrize("query_name",
                             [q.name for q in ic_queries()] +
                             [q.name for q in qc_queries()])
    def test_total_shuffle_parity_on_ldbc(self, ldbc_graph, ldbc_glogue,
                                          query_name, ldbc_gopt):
        """``tuples_shuffled`` equals the row engine's simulation exactly.

        For the dataflow engine the expand/intersect/path components of the
        counter are measured at real exchanges (rows that physically crossed
        partitions), so equality here means the cost model's communication
        estimate is a checked prediction, not an assumption.
        """
        queries = {q.name: q for q in list(ic_queries()) + list(qc_queries())}
        backend = ldbc_gopt.backend
        optimizer = build_optimizer(ldbc_graph, "gopt", profile=backend.profile(),
                                    glogue=ldbc_glogue)
        report = optimizer.optimize(queries[query_name].logical_plan())
        row = backend.execute(report.physical_plan, engine="row")
        dataflow = backend.execute(report.physical_plan, engine="dataflow")
        if row.timed_out or dataflow.timed_out:
            pytest.skip("query overruns the reduced test budget")
        assert dataflow.metrics.tuples_shuffled == row.metrics.tuples_shuffled
        assert dataflow.exchange_stats is not None
        # exchanges never observe more than the simulation charges; the
        # difference is exactly the driver-side join/aggregation shipping
        assert dataflow.exchange_stats["shuffled"] <= row.metrics.tuples_shuffled

    def test_pure_pattern_plan_observed_equals_simulated(self, ldbc_gopt):
        """Without joins/aggregations every simulated tuple is observed."""
        report = ldbc_gopt.optimize(TWO_HOP)
        row = ldbc_gopt.backend.execute(report.physical_plan, engine="row")
        dataflow = ldbc_gopt.backend.execute(report.physical_plan, engine="dataflow")
        assert row.metrics.tuples_shuffled > 0
        assert dataflow.exchange_stats["shuffled"] == row.metrics.tuples_shuffled
        assert dataflow.metrics.tuples_shuffled == row.metrics.tuples_shuffled

    def test_single_machine_backend_charges_no_shuffles(self, ldbc_graph):
        """neo4j-like: workers still parallelize, but no communication cost."""
        gopt = GraphService(ldbc_graph, backend="neo4j", workers=4,
                            plan_cache_size=None)
        report = gopt.optimize(TWO_HOP)
        row = gopt.backend.execute(report.physical_plan, engine="row")
        dataflow = gopt.backend.execute(report.physical_plan, engine="dataflow")
        assert dataflow.rows == row.rows
        assert dataflow.metrics.tuples_shuffled == 0 == row.metrics.tuples_shuffled


class TestDriverJoin:
    def _join_plan(self, small_predicate=None):
        person = TypeConstraint.basic("Person")
        knows = TypeConstraint.basic("KNOWS")
        left = ScanVertex(tag="a", constraint=person,
                          predicates=(small_predicate,) if small_predicate else ())
        right = ExpandEdge(
            anchor_tag="a", edge_tag="_e", target_tag="b",
            direction=Direction.OUT, edge_constraint=knows,
            target_constraint=person,
            inputs=(ScanVertex(tag="a", constraint=person),),
        )
        return PhysicalPlan(HashJoin(keys=("a",), join_type="inner",
                                     inputs=(left, right)))

    def test_inner_join_matches_row_engine(self, ldbc_graph):
        """Joins run at the driver through the row engine's handler."""
        backend = GraphScopeLikeBackend(ldbc_graph, num_partitions=4)
        plan = self._join_plan()
        row = backend.execute(plan, engine="row")
        dataflow = backend.execute(plan, engine="dataflow")
        assert dataflow.rows == row.rows
        for counter in COUNTERS:
            assert dataflow.metrics.as_dict()[counter] == \
                row.metrics.as_dict()[counter], counter


class TestCompiler:
    def test_chain_compiles_to_single_segment(self, ldbc_gopt):
        report = ldbc_gopt.optimize(TWO_HOP)
        root = report.physical_plan.root
        refcounts = plan_refcounts(root)
        segment = None
        node = root
        while segment is None and node is not None:
            segment = extract_segment(node, refcounts)
            node = node.inputs[0] if node.inputs else None
        assert segment is not None
        assert segment.scan is not None or segment.source is not None
        pipelines = build_pipelines(segment)
        assert len(pipelines) >= 2  # at least one exchange between pipelines
        assert pipelines[-1].out_exchange is None  # gather reads the tail

    def test_scan_only_plan(self, ldbc_gopt):
        report = ldbc_gopt.optimize("MATCH (p:Person) RETURN p")
        row = ldbc_gopt.backend.execute(report.physical_plan, engine="row")
        dataflow = ldbc_gopt.backend.execute(report.physical_plan, engine="dataflow")
        assert dataflow.rows == row.rows

    def test_empty_result_plan(self, ldbc_gopt):
        report = ldbc_gopt.optimize(
            "MATCH (p:Person) WHERE p.id < -1 RETURN p.id AS id")
        dataflow = ldbc_gopt.backend.execute(report.physical_plan, engine="dataflow")
        assert dataflow.rows == []


class TestServiceIntegration:
    def test_session_workers_override(self, ldbc_graph):
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, workers=2)
        with service.session(engine="dataflow") as session:
            assert session.engine == "dataflow"
            assert session.workers == 2
            baseline = session.run(TWO_HOP).fetch_all()
        with service.session(engine="dataflow", workers=8) as fast:
            assert fast.workers == 8
            assert fast.run(TWO_HOP).fetch_all() == baseline
        with service.session() as default:
            assert default.run(TWO_HOP).fetch_all() == baseline

    def test_dataflow_cursor_streaming_and_metrics(self, ldbc_graph):
        service = GraphService(ldbc_graph, backend="graphscope", num_partitions=4)
        with service.session(engine="dataflow") as session:
            cursor = session.run(TWO_HOP)
            first = cursor.fetch_one()
            assert first is not None
            rest = cursor.fetch_all()
            metrics = cursor.consume()
            assert metrics.tuples_shuffled > 0
            # observability flows through the cursor: no re-execution needed
            assert cursor.exchange_stats is not None
            assert cursor.exchange_stats["shuffled"] > 0
            assert cursor.worker_busy and sum(cursor.worker_busy) > 0
        with service.session(engine="row") as session:
            row_cursor = session.run(TWO_HOP)
            reference = row_cursor.fetch_all()
            assert row_cursor.exchange_stats is None  # serial engines: N/A
        assert [first] + rest == reference

    def test_close_before_first_fetch_starts_no_thread(self, ldbc_graph,
                                                       monkeypatch):
        """A dataflow execution starts on the first pull, like the serial
        engines: a cursor closed unread starts no thread and does no work."""
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, workers=4)
        with service.session(engine="dataflow") as session:
            cursor = session.run(TWO_HOP)
            cursor.close()
        assert not [name for name in started if name.startswith("dataflow-")]
        assert cursor.metrics().intermediate_results == 0
        assert cursor.exchange_stats is None

    def test_invalid_workers_rejected(self, ldbc_graph):
        from repro.errors import GOptError

        service = GraphService(ldbc_graph, backend="graphscope")
        with pytest.raises(GOptError):
            service.session(workers=0)
        with pytest.raises(ValueError):
            GraphScopeLikeBackend(ldbc_graph, workers=0)

    def test_budget_overrun_flags_timeout(self, ldbc_graph):
        backend = GraphScopeLikeBackend(ldbc_graph, num_partitions=4,
                                        max_intermediate_results=50)
        gopt = GraphService(ldbc_graph, backend=backend, plan_cache_size=None)
        report = gopt.optimize(TWO_HOP)
        row = backend.execute(report.physical_plan, engine="row")
        dataflow = backend.execute(report.physical_plan, engine="dataflow")
        assert row.timed_out and dataflow.timed_out
        assert dataflow.rows == []
