"""Partition-parallel dataflow engine: determinism, parity, integration.

The differential suite (tests/backend/test_engine_equivalence.py) already
holds ``engine="dataflow"`` to the row engine's rows and counters on every
workload query; this module covers the properties specific to the
partitioned runtime: results independent of the partition count,
reconciliation of the *observed* exchange traffic with the *simulated*
communication counts, the driver-side join, and the cursor lifecycle
(nothing starts before the first pull, and no thread starts at all).
"""

import threading

import pytest

from repro import GraphService
from repro.backend import GraphScopeLikeBackend
from repro.backend.runtime.context import ExecutionContext
from repro.backend.runtime.dataflow import (
    build_pipelines,
    extract_segment,
    plan_refcounts,
)
from repro.graph.types import Direction, TypeConstraint
from repro.optimizer.physical_plan import (
    ExpandEdge,
    HashJoin,
    PhysicalPlan,
    ScanVertex,
)
from repro.optimizer.planner import build_optimizer
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
    @pytest.mark.parametrize("num_partitions", [1, 2, 8])
    def test_identical_rows_and_counters_across_partition_counts(
            self, ldbc_graph, ldbc_gopt, num_partitions):
        """1, 2 or 8 partitions: the row engine's rows and work counters.

        One plan runs on backends that partition the graph differently.
        The partition count changes where rows live and so which rows cross
        an exchange, but never the result or the reconciliation of the
        observed ``shuffled`` exchange count with the simulated
        ``tuples_shuffled``.  One partition (no partitioner)
        observes no communication at all.
        """
        plan = ldbc_gopt.optimize(TWO_HOP).physical_plan
        backend = GraphScopeLikeBackend(ldbc_graph, num_partitions=num_partitions)
        reference = backend.execute(plan, engine="row")
        result = backend.execute(plan, engine="dataflow")
        assert result.rows == reference.rows
        for counter in COUNTERS:
            assert result.metrics.as_dict()[counter] == \
                reference.metrics.as_dict()[counter], counter
        assert result.exchange_stats["gathered"] == len(reference.rows)
        if num_partitions == 1:
            assert result.exchange_stats["shuffled"] == 0
            assert result.metrics.tuples_shuffled == 0
        else:
            assert result.exchange_stats["shuffled"] == \
                reference.metrics.tuples_shuffled > 0

    def test_repeated_runs_are_stable(self, ldbc_gopt):
        report = ldbc_gopt.optimize(
            "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(c:Place) "
            "RETURN c.id AS place, count(f) AS cnt ORDER BY cnt DESC, place")
        runs = [ldbc_gopt.backend.execute(report.physical_plan, engine="dataflow")
                for _ in range(3)]
        assert runs[0].rows == runs[1].rows == runs[2].rows
        snapshots = [r.exchange_stats for r in runs]
        assert snapshots[0] == snapshots[1] == snapshots[2]


#: ``exchange_stats`` (shuffled, local, relocated, gathered) of every
#: parity query on the 4-partition test graph, blessed from the threaded
#: runtime this engine replaced: the traffic a rewrite of the runtime must
#: keep
PINNED_EXCHANGE_STATS = {
    "IC1": (9, 0, 0, 10), "IC2": (5, 1, 0, 4), "IC3": (9, 3, 0, 0),
    "IC4": (13, 7, 0, 22), "IC5": (4, 2, 0, 0), "IC6": (48, 15, 2, 7),
    "IC7": (6, 1, 0, 8), "IC8": (8, 1, 0, 3), "IC9": (33, 7, 0, 28),
    "IC10": (4, 1, 0, 2), "IC11": (1, 0, 0, 0), "IC12": (22, 7, 0, 4),
    "QC1a": (504, 143, 0, 458), "QC1b": (180, 58, 0, 52),
    "QC2a": (82, 30, 0, 13), "QC2b": (385, 122, 102, 200),
    "QC3a": (1727, 593, 0, 1764), "QC3b": (2409, 788, 43, 2357),
    "QC4a": (341, 112, 169, 24), "QC4b": (411, 114, 355, 7),
}


class TestExchangeParity:
    """Observed exchange traffic must reconcile with the simulated counts."""

    @pytest.mark.parametrize("query_name",
                             [q.name for q in ic_queries()] +
                             [q.name for q in qc_queries()])
    def test_total_shuffle_parity_on_ldbc(self, ldbc_graph, ldbc_glogue,
                                          query_name, ldbc_gopt, monkeypatch):
        """Observed exchange traffic reconciles exactly with the simulation.

        The row engine's ``tuples_shuffled`` is the cost model's simulated
        communication: the kernels' per-row ``charge_shuffle_between`` plus
        the driver-side joins' and aggregations' ``charge_shuffle``.  The
        dataflow exchanges count on their own the rows that physically
        crossed partitions inside segments.  That observed count plus the
        driver-side charges must equal the simulation exactly, so the cost
        model's communication estimate is a checked prediction, not an
        assumption.  The observed traffic is also pinned per query.
        """
        queries = {q.name: q for q in list(ic_queries()) + list(qc_queries())}
        backend = ldbc_gopt.backend
        optimizer = build_optimizer(ldbc_graph, "gopt", profile=backend.profile(),
                                    glogue=ldbc_glogue)
        report = optimizer.optimize(queries[query_name].logical_plan())
        row = backend.execute(report.physical_plan, engine="row")
        driver_charges = []
        charge_shuffle = ExecutionContext.charge_shuffle

        def recording_charge_shuffle(ctx, rows):
            if ctx.partitioner is not None:
                driver_charges.append(rows)
            charge_shuffle(ctx, rows)

        monkeypatch.setattr(ExecutionContext, "charge_shuffle",
                            recording_charge_shuffle)
        dataflow = backend.execute(report.physical_plan, engine="dataflow")
        monkeypatch.undo()
        if row.timed_out or dataflow.timed_out:
            pytest.skip("query overruns the reduced test budget")
        stats = dataflow.exchange_stats
        assert stats["shuffled"] + sum(driver_charges) == \
            row.metrics.tuples_shuffled
        assert dataflow.metrics.tuples_shuffled == row.metrics.tuples_shuffled
        assert (stats["shuffled"], stats["local"], stats["relocated"],
                stats["gathered"]) == PINNED_EXCHANGE_STATS[query_name]

    def test_pure_pattern_plan_observed_equals_simulated(self, ldbc_gopt):
        """Without joins/aggregations every simulated tuple is observed."""
        report = ldbc_gopt.optimize(TWO_HOP)
        row = ldbc_gopt.backend.execute(report.physical_plan, engine="row")
        dataflow = ldbc_gopt.backend.execute(report.physical_plan, engine="dataflow")
        assert row.metrics.tuples_shuffled > 0
        assert dataflow.exchange_stats["shuffled"] == row.metrics.tuples_shuffled
        assert dataflow.metrics.tuples_shuffled == row.metrics.tuples_shuffled

    def test_single_machine_backend_charges_no_shuffles(self, ldbc_graph):
        """neo4j-like: no partitioner, so one partition and no communication."""
        gopt = GraphService(ldbc_graph, backend="neo4j", plan_cache_size=None)
        report = gopt.optimize(TWO_HOP)
        row = gopt.backend.execute(report.physical_plan, engine="row")
        dataflow = gopt.backend.execute(report.physical_plan, engine="dataflow")
        assert dataflow.rows == row.rows
        assert dataflow.metrics.tuples_shuffled == 0 == row.metrics.tuples_shuffled
        assert dataflow.exchange_stats["shuffled"] == 0
        assert dataflow.exchange_stats["relocated"] == 0


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
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name))
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4)
        with service.session(engine="dataflow") as session:
            cursor = session.run(TWO_HOP)
            cursor.close()
        assert started == []
        assert cursor.metrics().intermediate_results == 0
        assert cursor.exchange_stats is None

    def test_full_drain_starts_no_thread(self, ldbc_graph, monkeypatch):
        """The engine runs on the caller's thread: a full drain through a
        cursor, exchanges and driver-side breakers included, starts none."""
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name))
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, plan_cache_size=None)
        with service.session(engine="dataflow") as session:
            cursor = session.run(
                "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(c:Place) "
                "RETURN c.id AS place, count(f) AS cnt ORDER BY cnt DESC, place")
            rows = cursor.fetch_all()
            assert cursor.exchange_stats["shuffled"] > 0
        assert rows
        assert started == []

    def test_budget_overrun_flags_timeout(self, ldbc_graph):
        backend = GraphScopeLikeBackend(ldbc_graph, num_partitions=4,
                                        max_intermediate_results=50)
        gopt = GraphService(ldbc_graph, backend=backend, plan_cache_size=None)
        report = gopt.optimize(TWO_HOP)
        row = backend.execute(report.physical_plan, engine="row")
        dataflow = backend.execute(report.physical_plan, engine="dataflow")
        assert row.timed_out and dataflow.timed_out
        assert dataflow.rows == []
