"""Streaming pipeline breakers: incremental cursors vs the row engine.

Since the kernel-layer refactor, streaming cursors no longer materialize
whole subtrees for pipeline breakers: hash joins stream their probe side,
aggregations fold into per-group state, ``ORDER BY .. LIMIT k`` keeps a
bounded top-k heap.  These tests extend the differential suite with
breaker-heavy cursor queries and hold every engine's streaming pipeline to:

* **row parity** -- a drained cursor yields exactly the row engine's rows;
* **counter parity** -- ``ResultCursor.consume()`` after a full drain reports
  exactly the materializing row engine's work counters (plans without an
  early-exit Limit);
* **early-close correctness** -- a cursor closed after a few rows reports at
  most the full execution's counters and yields nothing afterwards;
* **bounded memory** -- top-k streams hold at most ``k + batch_size`` rows.
"""

import pytest

from repro import GraphService
from repro.datasets import ldbc_snb_graph
from repro.optimizer.planner import OptimizerConfig

COMPARED_COUNTERS = (
    "intermediate_results",
    "edges_traversed",
    "vertices_scanned",
    "tuples_shuffled",
    "operators_executed",
    "cells_produced",
)

#: breaker-heavy shapes: top-k sort, aggregate-over-join (WITH .. MATCH),
#: left-outer join, dedup over an aggregate, plain grouped aggregation
BREAKER_QUERIES = [
    "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS n ORDER BY n LIMIT 4",
    "MATCH (p:Person)-[:Knows]->(f:Person) WITH f, count(p) AS cnt "
    "MATCH (f)-[:LocatedIn]->(c:Place) "
    "RETURN c.name AS place, cnt ORDER BY cnt DESC, place LIMIT 6",
    "MATCH (p:Person)-[:Knows]->(f:Person) OPTIONAL MATCH (f)-[:LocatedIn]->(c:Place) "
    "RETURN f.name AS n, c.name AS place ORDER BY n, place LIMIT 8",
    "MATCH (p:Person)-[:Purchased]->(i:Product) "
    "WITH i, count(p) AS buyers RETURN DISTINCT buyers ORDER BY buyers",
    "MATCH (p:Person)-[:LocatedIn]->(c:Place) "
    "RETURN c.name AS place, count(p) AS residents ORDER BY residents DESC, place",
]

ENGINES = ("row", "vectorized")


@pytest.fixture(scope="module")
def service(social_graph):
    return GraphService(social_graph, backend="graphscope", num_partitions=2)


def _reference(service, query):
    report = service.optimize(query)
    result = service.backend.execute(report.physical_plan, engine="row")
    return report, result


class TestBreakerCursorParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query", BREAKER_QUERIES)
    def test_consume_counters_match_row_engine(self, service, query, engine):
        """Drained breaker cursors replay the row engine bit-for-bit.

        None of these plans contains a standalone early-exit Limit (the
        top-k limit lives inside Sort, whose input must drain anyway), so
        the streamed counters must be *exactly* the materializing row
        engine's -- not merely bounded by them.
        """
        _, reference = _reference(service, query)
        with service.session(engine=engine) as session:
            cursor = session.run(query)
            rows = cursor.fetch_all()
            metrics = cursor.consume()
        assert rows == reference.rows
        expected = reference.metrics.as_dict()
        streamed = metrics.as_dict()
        for counter in COMPARED_COUNTERS:
            assert streamed[counter] == expected[counter], (query, engine, counter)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query", BREAKER_QUERIES)
    def test_early_close_is_correct_and_cheaper(self, service, query, engine):
        _, reference = _reference(service, query)
        take = 2
        with service.session(engine=engine) as session:
            cursor = session.run(query)
            head = cursor.fetch_many(take)
            partial = cursor.consume()
            # a closed cursor yields nothing more
            assert cursor.fetch_one() is None
            assert cursor.fetch_all() == []
        assert head == reference.rows[:take]
        expected = reference.metrics.as_dict()
        partial_counters = partial.as_dict()
        for counter in COMPARED_COUNTERS:
            assert partial_counters[counter] <= expected[counter], (
                query, engine, counter)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dataflow_and_serial_cursors_agree(self, service, engine):
        """Cross-check the serial streaming cursors against dataflow ones."""
        query = BREAKER_QUERIES[1]
        _, reference = _reference(service, query)
        with service.session(engine="dataflow", workers=2) as session:
            assert session.run(query).fetch_all() == reference.rows
        with service.session(engine=engine) as session:
            assert session.run(query).fetch_all() == reference.rows


class TestDedupAfterPathExpand:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_distinct_targets_of_variable_length_paths(self, finance, engine):
        graph, _ = finance
        service = GraphService(graph, backend="graphscope", num_partitions=2)
        query = ("MATCH (a:Account)-[t:TRANSFERS*1..2]->(b:Account) "
                 "RETURN DISTINCT b.id AS target ORDER BY target")
        _, reference = _reference(service, query)
        with service.session(engine=engine) as session:
            cursor = session.run(query)
            rows = cursor.fetch_all()
            metrics = cursor.consume()
        assert rows == reference.rows
        expected = reference.metrics.as_dict()
        streamed = metrics.as_dict()
        for counter in COMPARED_COUNTERS:
            assert streamed[counter] == expected[counter], (engine, counter)


class TestBoundedMemoryTopK:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_topk_holds_at_most_k_plus_batch_rows(self, engine):
        """Acceptance: top-k over a large expansion stays k + batch bounded.

        The full sorted expansion has thousands of rows; the streaming
        cursor's breaker states may never buffer more than the k heap
        entries (plus one in-flight batch on the vectorized pipeline).
        """
        limit, batch_size = 5, 32
        graph = ldbc_snb_graph("G300")
        service = GraphService(graph, backend="graphscope",
                               config=OptimizerConfig(max_motif_vertices=2))
        query = ("MATCH (p:Person)-[:KNOWS]->(f:Person) "
                 "RETURN f.id AS friend ORDER BY friend LIMIT %d" % limit)
        reference = service.backend.execute(
            service.optimize(query).physical_plan, engine="row")
        with service.session(engine=engine, batch_size=batch_size) as session:
            cursor = session.run(query)
            rows = cursor.fetch_all()
            peak = cursor.peak_held_rows
            metrics = cursor.consume()
        assert rows == reference.rows
        assert len(rows) == limit
        # the win this asserts: full drain (exact counters), bounded buffer
        assert metrics.intermediate_results == reference.metrics.intermediate_results
        assert peak <= limit + batch_size
        assert reference.metrics.intermediate_results > 10 * (limit + batch_size)

    def test_join_buffers_at_most_the_smaller_side(self, service):
        """A streaming join holds the build side, not the probe side."""
        query = BREAKER_QUERIES[1]
        _, reference = _reference(service, query)
        with service.session(engine="row") as session:
            cursor = session.run(query)
            rows = cursor.fetch_all()
            peak = cursor.peak_held_rows
            cursor.close()
        assert rows == reference.rows
        # well below the execution's total intermediate volume
        assert peak < reference.metrics.intermediate_results

    def test_peak_is_an_int_from_the_first_pull_on(self, service):
        with service.session() as session:
            cursor = session.run(BREAKER_QUERIES[0])
            assert cursor.peak_held_rows == 0  # nothing pulled yet
            cursor.fetch_all()
            assert cursor.peak_held_rows > 0
