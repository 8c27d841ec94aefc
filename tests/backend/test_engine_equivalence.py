"""Differential test suite: the vectorized engine must be row-for-row
equivalent to the row engine (the same batch pipeline at one row per
batch), and the dataflow engine to both.

Every query of the micro (QR/QT/QC) and LDBC (IC/BI) workloads is optimized
once and the resulting physical plan is interpreted by every engine on BOTH
backend profiles.  The engines must return identical rows in identical order
and charge every work counter identically (only wall-clock time may differ),
so the paper's experiments are engine-independent.  The one exception is a
plan with an early-exit ``Limit``: the serial pipelines stop pulling, the
dataflow engine gathers first, so it may only do *more* work.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import GraphService
from repro.backend import GraphScopeLikeBackend, Neo4jLikeBackend
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.physical_plan import Limit
from repro.optimizer.planner import build_optimizer
from repro.workloads import bi_queries, ic_queries, qc_queries, qr_queries, qt_queries

MICRO_SETS = {qs.name: qs for qs in (qr_queries(), qt_queries(), qc_queries())}
LDBC_SETS = {qs.name: qs for qs in (ic_queries(), bi_queries())}
ALL_QUERIES = [(qs.name, q.name) for qs in
               list(MICRO_SETS.values()) + list(LDBC_SETS.values()) for q in qs]

COMPARED_COUNTERS = (
    "intermediate_results",
    "edges_traversed",
    "vertices_scanned",
    "tuples_shuffled",
    "operators_executed",
    "cells_produced",
)


@pytest.fixture(scope="module")
def backends(ldbc_graph):
    return {
        "graphscope": GraphScopeLikeBackend(
            ldbc_graph, num_partitions=4,
            max_intermediate_results=500_000, timeout_seconds=30.0),
        "neo4j": Neo4jLikeBackend(
            ldbc_graph, max_intermediate_results=500_000, timeout_seconds=30.0),
    }


@pytest.fixture(scope="module")
def optimizers(ldbc_graph, ldbc_glogue, backends):
    return {
        kind: build_optimizer(ldbc_graph, "gopt",
                              profile=backend.profile(), glogue=ldbc_glogue)
        for kind, backend in backends.items()
    }


def _find_query(set_name, query_name):
    query_set = MICRO_SETS.get(set_name) or LDBC_SETS[set_name]
    return query_set.get(query_name)


def _has_limit(op) -> bool:
    if isinstance(op, Limit):
        return True
    return any(_has_limit(child) for child in op.inputs)


def assert_engines_agree(backend, physical_plan, label=""):
    """Execute one plan with every engine; rows and counters must match.

    ``row`` (the batch pipeline at one row per batch) and ``vectorized`` --
    at the backend's batch size and at 7, so that batches are cut inside
    every operator's output -- must agree on rows and on all six counters.
    The dataflow engine is held to identical rows, and to identical counters
    -- ``tuples_shuffled`` included, which the shared kernels charge alike
    under every engine -- unless the plan has an early-exit Limit: it gathers before the driver-side Limit, so it may
    then do *more* work than the serial pipelines, never less (on budget
    overruns only the ``timed_out`` flag is compared: the dataflow engine
    charges partition by partition, so the counters at the point of
    interruption differ).
    """
    row_result = backend.execute(physical_plan, engine="row")
    assert_dataflow_agrees(backend, physical_plan, row_result, label)
    row_metrics = row_result.metrics.as_dict()
    for batch_size in (None, 7):
        vec_result = backend.execute(physical_plan, engine="vectorized",
                                     batch_size=batch_size)
        vec_label = "%s [vectorized, batch_size=%s]" % (label, batch_size or "default")
        assert row_result.timed_out == vec_result.timed_out, vec_label
        assert row_result.rows == vec_result.rows, (
            "%s: engines disagree on rows (%d row-engine vs %d vectorized)"
            % (vec_label, len(row_result.rows), len(vec_result.rows)))
        vec_metrics = vec_result.metrics.as_dict()
        for counter in COMPARED_COUNTERS:
            assert row_metrics[counter] == vec_metrics[counter], (
                "%s: counter %s differs (row=%s vectorized=%s)"
                % (vec_label, counter, row_metrics[counter], vec_metrics[counter]))


def assert_dataflow_agrees(backend, physical_plan, row_result, label=""):
    """The partition-parallel engine must replay the row engine exactly."""
    df_result = backend.execute(physical_plan, engine="dataflow")
    assert df_result.timed_out == row_result.timed_out, (
        "%s: dataflow timed_out=%s, row engine timed_out=%s"
        % (label, df_result.timed_out, row_result.timed_out))
    if row_result.timed_out:
        return
    assert df_result.rows == row_result.rows, (
        "%s: dataflow disagrees on rows (%d vs %d row-engine)"
        % (label, len(df_result.rows), len(row_result.rows)))
    row_metrics = row_result.metrics.as_dict()
    df_metrics = df_result.metrics.as_dict()
    early_exit = _has_limit(physical_plan.root)
    for counter in COMPARED_COUNTERS:
        if early_exit:
            assert df_metrics[counter] >= row_metrics[counter], (
                "%s: dataflow did less %s work than the row engine's early "
                "exit (row=%s dataflow=%s)"
                % (label, counter, row_metrics[counter], df_metrics[counter]))
        else:
            assert row_metrics[counter] == df_metrics[counter], (
                "%s: counter %s differs (row=%s dataflow=%s)"
                % (label, counter, row_metrics[counter], df_metrics[counter]))


@pytest.mark.parametrize("backend_kind", ["graphscope", "neo4j"])
@pytest.mark.parametrize("set_name,query_name", ALL_QUERIES)
def test_workload_query_engines_agree(backend_kind, set_name, query_name,
                                      backends, optimizers):
    query = _find_query(set_name, query_name)
    backend = backends[backend_kind]
    report = optimizers[backend_kind].optimize(query.logical_plan())
    assert_engines_agree(backend, report.physical_plan,
                         label="%s/%s on %s" % (set_name, query_name, backend_kind))


def test_gremlin_queries_engines_agree(backends, optimizers):
    """The Gremlin lowering exercises different GIR shapes; cover it too."""
    for query in list(qr_queries()) + list(qc_queries()):
        if not query.has_gremlin:
            continue
        report = optimizers["graphscope"].optimize(query.logical_plan(language="gremlin"))
        assert_engines_agree(backends["graphscope"], report.physical_plan,
                             label="gremlin/%s" % query.name)


def test_path_queries_engines_agree(finance):
    """Variable-length path plans (PathExpand) through both engines."""
    graph, id_sets = finance
    gopt = GraphService(graph, backend="graphscope", num_partitions=2,
                        max_intermediate_results=500_000, timeout_seconds=30.0)
    report = gopt.optimize(
        "MATCH (a:Account)-[t:TRANSFERS*1..3]->(b:Account) "
        "RETURN b.id AS target, count(a) AS cnt ORDER BY cnt DESC, target LIMIT 10")
    assert_engines_agree(gopt.backend, report.physical_plan, label="st-path")


# -- property-based differential testing -------------------------------------------

TYPE_NAMES = ["Person", "Product", "Place"]

CYPHER_QUERIES = [
    "MATCH (a:Person)-[:REL]->(b) RETURN count(b) AS cnt",
    "MATCH (a)-[:REL]->(b)-[:REL]->(c) RETURN count(a) AS cnt",
    "MATCH (a:Person)-[:REL]->(b:Product) RETURN b AS item LIMIT 7",
    "MATCH (a)-[:REL]->(b) WHERE a.score > 5 RETURN a.score AS s, count(b) AS c",
    "MATCH (a)-[:REL]->(b), (b)-[:REL]->(c), (a)-[:REL]->(c) RETURN count(b) AS tri",
]


@st.composite
def random_graphs(draw):
    """Random small typed graphs (mirrors the statistics-invariant generator)."""
    num_vertices = draw(st.integers(min_value=2, max_value=12))
    graph = PropertyGraph()
    for index in range(num_vertices):
        vertex_type = draw(st.sampled_from(TYPE_NAMES))
        graph.add_vertex(vertex_type, {"score": draw(st.integers(0, 10)), "id": index})
    num_edges = draw(st.integers(min_value=1, max_value=20))
    for _ in range(num_edges):
        src = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        dst = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        if src != dst:
            graph.add_edge(src, dst, "REL")
    return graph


class TestPropertyBasedEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(random_graphs(), st.sampled_from(CYPHER_QUERIES))
    def test_random_graphs_engines_agree(self, graph, cypher):
        gopt = GraphService(graph, backend="graphscope", num_partitions=2,
                            timeout_seconds=30.0, plan_cache_size=None)
        report = gopt.optimize(cypher)
        assert_engines_agree(gopt.backend, report.physical_plan, label=cypher)
