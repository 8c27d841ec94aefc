"""Deadline enforcement between kernel batches (regression).

Budget checks used to ride exclusively on ``charge_intermediate``, i.e. on
*produced* rows -- a highly selective scan that rejects every probe, or a
cached-subtree replay, could run arbitrarily long without ever noticing an
expired deadline.  ``ExecutionContext.tick()`` now checkpoints every
``batch_size`` units of unaccounted work; these tests pin that behavior on
a G300-scale graph with a deadline that has already expired: before the
fix, the zero-row scan completed "successfully" instead of timing out.

Each case runs twice: as an index seek that finds no candidate (so no
``tick`` ever runs -- the seek's own up-front deadline check must catch
it) and as a range filter the index cannot answer, which still probes
every Person and produces nothing.
"""

import pytest

from repro import GraphService
from repro.datasets import ldbc_snb_graph
from repro.optimizer.physical_plan import ScanVertex
from repro.optimizer.planner import OptimizerConfig

#: each matches no vertex, so no intermediate row is ever charged on the
#: scan's own account
SELECTIVE = pytest.mark.parametrize("query", [
    pytest.param("MATCH (p:Person) WHERE p.id = -1 RETURN p.id AS id", id="seek"),
    pytest.param("MATCH (p:Person) WHERE p.id < 0 RETURN p.id AS id", id="full-scan"),
])


@pytest.fixture(scope="module")
def g300_service():
    graph = ldbc_snb_graph("G300")
    return GraphService(graph, backend="graphscope",
                        config=OptimizerConfig(max_motif_vertices=2),
                        plan_cache_size=None)


class TestSelectiveScanDeadline:
    @SELECTIVE
    @pytest.mark.parametrize("engine", ["row", "vectorized", "dataflow"])
    def test_streaming_zero_row_scan_times_out(self, g300_service, engine, query):
        """An expired deadline stops a produces-nothing scan within a batch."""
        with g300_service.session(engine=engine, timeout_seconds=0.0,
                                  batch_size=64) as session:
            cursor = session.run(query)
            rows = cursor.fetch_all()
            metrics = cursor.consume()
        assert rows == []
        assert cursor.timed_out
        assert metrics.timed_out

    @SELECTIVE
    @pytest.mark.parametrize("engine", ["row", "vectorized", "dataflow"])
    def test_materialized_zero_row_scan_times_out(self, g300_service, engine, query):
        plan = g300_service.optimize(query).physical_plan
        scan, = plan.operators_of_type(ScanVertex)
        assert (scan.lookup is not None) == ("=" in query)
        result = g300_service.backend.execute(
            plan, engine=engine,
            timeout_seconds=0.0, batch_size=64)
        assert result.rows == []
        assert result.timed_out

    @SELECTIVE
    def test_scan_completes_under_a_live_deadline(self, g300_service, query):
        """Sanity: the checkpoint does not break ordinary executions."""
        with g300_service.session(engine="row", timeout_seconds=30.0,
                                  batch_size=64) as session:
            cursor = session.run(query)
            assert cursor.fetch_all() == []
            assert not cursor.timed_out
