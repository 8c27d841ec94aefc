"""Fault containment under deterministic injection.

Acceptance: every injected infrastructure fault must yield either a typed
error (:class:`~repro.errors.WorkerFailure` with the failing partition's id
and partial exchange stats) or a *correct degraded result* (row-engine
re-execution producing the exact unfaulted rows, flagged in
``metrics.degraded``) -- never a hang, a partial result set, or an untyped
crash.  The thread-leak fixture in tests/conftest.py additionally holds
every one of these tests to zero leaked runtime threads.
"""

import pytest

from repro import GraphService
from repro.backend.runtime.dataflow import DataflowExecutor
from repro.errors import WorkerFailure
from repro.service import ConcurrentExecutor
from repro.testing import FaultInjector, FaultRule, InjectedFault

pytestmark = pytest.mark.chaos

TWO_HOP = ("MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
           "RETURN a.id AS a, b.id AS b, c.id AS c")


@pytest.fixture(scope="module")
def two_hop(gopt):
    report = gopt.optimize(TWO_HOP)
    reference = gopt.backend.execute(report.physical_plan, engine="row")
    return report.physical_plan, reference


def run_executor(gopt, plan):
    """One dataflow execution without the backend's row-engine recovery."""
    ctx = gopt.backend._make_context(gopt.backend.options)
    return DataflowExecutor(ctx).run(plan.root)


class TestWorkerFaultContainment:
    def test_worker_fault_degrades_to_identical_rows(self, gopt, two_hop,
                                                     chaos_seed):
        plan, reference = two_hop
        rules = [FaultRule("worker.kernel", action="raise", at_hits=[1])]
        with FaultInjector(seed=chaos_seed, rules=rules) as injector:
            result = gopt.backend.execute(plan, engine="dataflow")
        assert injector.fired == 1
        assert result.rows == reference.rows
        assert result.metrics.degraded
        assert "InjectedFault" in result.metrics.degraded_reason
        assert "degraded" in result.metrics.as_dict()

    def test_random_worker_faults_never_corrupt_rows(self, gopt, two_hop,
                                                     chaos_seed):
        """Seeded random injection: rows are exact whether or not it fired."""
        plan, reference = two_hop
        rules = [FaultRule("worker.kernel", action="raise", rate=0.02)]
        with FaultInjector(seed=chaos_seed, rules=rules) as injector:
            result = gopt.backend.execute(plan, engine="dataflow")
        assert result.rows == reference.rows
        assert result.metrics.degraded == (injector.fired > 0)

    def test_fault_surfaces_typed_failure_without_fallback(
            self, gopt, two_hop, chaos_seed):
        plan, _ = two_hop
        rules = [FaultRule("worker.kernel", action="raise", at_hits=[1])]
        with FaultInjector(seed=chaos_seed, rules=rules):
            with pytest.raises(WorkerFailure) as excinfo:
                run_executor(gopt, plan)
        failure = excinfo.value
        assert failure.worker_id >= 0   # the partition whose step failed
        assert isinstance(failure.cause, InjectedFault)
        # partial exchange traffic observed before the crash stays visible
        assert isinstance(failure.exchange_stats, dict)

    def test_driver_fault_is_contained_too(self, gopt, two_hop, chaos_seed):
        plan, reference = two_hop
        rules = [FaultRule("driver.gather", action="raise", at_hits=[1])]
        with FaultInjector(seed=chaos_seed, rules=rules):
            with pytest.raises(WorkerFailure) as excinfo:
                run_executor(gopt, plan)
        assert excinfo.value.worker_id == -1  # the driver, not a partition
        assert isinstance(excinfo.value.cause, InjectedFault)
        assert isinstance(excinfo.value.exchange_stats, dict)
        # through the backend, the same fault degrades to correct rows
        rules = [FaultRule("driver.gather", action="raise", at_hits=[1])]
        with FaultInjector(seed=chaos_seed, rules=rules) as injector:
            result = gopt.backend.execute(plan, engine="dataflow")
        assert injector.fired == 1
        assert result.rows == reference.rows
        assert result.metrics.degraded


class TestEveryExchangeBoundary:
    def test_degraded_rows_identical_for_fault_at_each_stage(
            self, gopt, two_hop, chaos_seed):
        """Inject a route fault at every exchange stage the plan crosses.

        The degraded (row-engine) result must equal the unfaulted dataflow
        run bit-for-bit, whichever boundary the fault lands on.
        """
        plan, _ = two_hop
        unfaulted = gopt.backend.execute(plan, engine="dataflow")
        assert not unfaulted.metrics.degraded
        stages = []
        probe = FaultRule("exchange.route", action="call", rate=1.0,
                          callback=lambda site, info: stages.append(info["stage"]))
        with FaultInjector(seed=chaos_seed, rules=[probe]):
            gopt.backend.execute(plan, engine="dataflow")
        assert stages, "plan crossed no exchange boundary; test is vacuous"
        for stage in sorted(set(stages)):
            rules = [FaultRule("exchange.route", action="raise", at_hits=[1],
                               match={"stage": stage})]
            with FaultInjector(seed=chaos_seed, rules=rules) as injector:
                result = gopt.backend.execute(plan, engine="dataflow")
            assert injector.fired == 1, stage
            assert result.rows == unfaulted.rows, stage
            assert result.metrics.degraded, stage


class TestSlowOperators:
    def test_slow_kernels_hit_the_deadline(self, gopt, two_hop, chaos_seed):
        """A sleep-injected slow operator trips the time budget, not a hang."""
        plan, _ = two_hop
        rules = [FaultRule("worker.kernel", action="sleep",
                           seconds=0.05, rate=1.0)]
        with FaultInjector(seed=chaos_seed, rules=rules):
            result = gopt.backend.execute(plan, engine="dataflow",
                                          timeout_seconds=0.1)
        assert result.timed_out
        assert not result.metrics.degraded  # timeouts are query errors


class TestServingIsolation:
    def test_streaming_fault_is_isolated_per_query(self, ldbc_graph,
                                                   chaos_seed):
        """A fault in one served query never takes the pool down."""
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, plan_cache_size=None)
        rules = [FaultRule("stream.kernel", action="raise", at_hits=[1])]
        with ConcurrentExecutor(service, max_workers=2, engine="row") as ex:
            with FaultInjector(seed=chaos_seed, rules=rules):
                faulted = ex.submit(TWO_HOP).result()
            healthy = ex.submit(TWO_HOP).result()
        assert not faulted.ok
        assert "InjectedFault" in faulted.error
        assert healthy.ok and healthy.rows

    def test_transient_fault_degrades_to_success(self, ldbc_graph, two_hop,
                                                 chaos_seed):
        """A fail-once worker fault in a served query: the one recovery path
        (row-engine re-execution) answers it, with nothing retried."""
        _, reference = two_hop
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, plan_cache_size=None)
        rules = [FaultRule("worker.kernel", action="raise",
                           at_hits=[1], max_fires=1)]
        with ConcurrentExecutor(service, max_workers=2,
                                engine="dataflow") as ex:
            with FaultInjector(seed=chaos_seed, rules=rules) as injector:
                outcome = ex.submit(TWO_HOP).result()
        assert injector.fired == 1
        assert outcome.ok, outcome.error
        assert outcome.degraded
        assert outcome.rows == reference.rows
