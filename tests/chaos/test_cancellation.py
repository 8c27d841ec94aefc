"""Cooperative cancellation: promptness, races, clean unwinding.

Acceptance: a cancel request stops a running dataflow execution within
one kernel batch (asserted through the work counters, not wall clock), and a cursor closed from another thread mid-fetch unwinds the
in-flight pull instead of racing it.  The autouse thread-leak fixture holds
every test here to zero leaked runtime threads.
"""

import threading
import time

import pytest

from repro import CancellationToken, GraphService
from repro.backend.runtime.dataflow import DataflowExecutor
from repro.errors import CancelledError
from repro.service import ConcurrentExecutor
from repro.testing import FaultInjector, FaultRule

pytestmark = pytest.mark.chaos

THREE_HOP = ("MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)"
             "-[:KNOWS]->(d:Person) RETURN a.id AS a, d.id AS d")


class TestCancellationPromptness:
    def test_cancel_stops_dataflow_within_one_kernel_batch(self, gopt,
                                                           chaos_seed):
        """Cancel at the first kernel visit; work done stays batch-bounded.

        The step in flight may finish at most the morsel it is running
        (<= batch_size rows) before the charge that ends it probes the
        token, so the charged intermediates after a cancel are at most one
        ``batch_size`` -- far below the full run's total.
        """
        batch = 64
        report = gopt.optimize(THREE_HOP)
        reference = gopt.backend.execute(report.physical_plan,
                                         engine="dataflow", batch_size=batch)
        total = reference.metrics.intermediate_results
        token = CancellationToken()
        rules = [FaultRule("stream.kernel", action="call", at_hits=[1],
                           callback=lambda site, info: token.cancel("chaos"))]
        ctx = gopt.backend._make_context(
            gopt.backend.options.override(batch_size=batch),
            cancel_token=token)
        with FaultInjector(seed=chaos_seed, rules=rules) as injector:
            with pytest.raises(CancelledError):
                DataflowExecutor(ctx).run(report.physical_plan.root)
        assert injector.fired == 1
        done = ctx.counters.intermediate_results
        bound = batch
        assert done <= bound, (done, bound)
        assert total > 2 * bound, "reference run too small to be meaningful"

    def test_cancel_before_start_produces_no_work(self, gopt):
        report = gopt.optimize(THREE_HOP)
        token = CancellationToken()
        token.cancel("pre-cancelled")
        ctx = gopt.backend._make_context(
            gopt.backend.options, cancel_token=token)
        with pytest.raises(CancelledError) as excinfo:
            DataflowExecutor(ctx).run(report.physical_plan.root)
        assert excinfo.value.reason == "pre-cancelled"
        assert ctx.counters.intermediate_results == 0


class TestCursorCloseRaces:
    @pytest.mark.parametrize("engine", ["row", "dataflow"])
    def test_close_during_inflight_fetch_unwinds_cooperatively(
            self, ldbc_graph, chaos_seed, engine):
        """close() from another thread while a fetch is mid-pipeline.

        The in-flight fetch may not tear or hang: the closed cursor's
        consumer thread observes end-of-stream within the cancellation
        grace period, having produced at most a prefix of the rows (for
        dataflow, whose first pull runs the executor, often none).
        """
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, plan_cache_size=None)
        reference = service.backend.execute(
            service.optimize(THREE_HOP).physical_plan, engine="row")
        with service.session(engine=engine, batch_size=8) as session:
            cursor = session.run(THREE_HOP)
            fetched = []

            def consume():
                for row in cursor:
                    fetched.append(row)
                    time.sleep(0.002)  # stay mid-stream while close() lands

            consumer = threading.Thread(target=consume, name="chaos-consumer")
            consumer.start()
            time.sleep(0.05)  # let the consumer get mid-pipeline
            cursor.close()
            consumer.join(timeout=10.0)
            assert not consumer.is_alive(), "fetch thread hung after close"
        assert len(fetched) < len(reference.rows)
        assert fetched == reference.rows[:len(fetched)]  # a clean prefix

    def test_double_close_is_idempotent(self, ldbc_graph):
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, plan_cache_size=None)
        with service.session(engine="row") as session:
            cursor = session.run(THREE_HOP)
            assert cursor.fetch_one() is not None
            cursor.close()
            cursor.close()  # must be a no-op, not an error
            assert cursor.fetch_one() is None
            metrics = cursor.consume()  # close-after-close still reports
            assert metrics.intermediate_results >= 0
        # ... also when nothing was ever pulled
        with service.session() as session:
            cursor = session.run(THREE_HOP)
            cursor.close()
            cursor.close()

    def test_concurrent_closes_from_many_threads(self, ldbc_graph):
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, plan_cache_size=None)
        with service.session(engine="row") as session:
            cursor = session.run(THREE_HOP)
            cursor.fetch_one()
            threads = [threading.Thread(target=cursor.close)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert cursor.fetch_one() is None


class TestExecutorShutdown:
    def test_shutdown_cancel_drains_within_a_batch_not_a_query(
            self, ldbc_graph, chaos_seed):
        """shutdown(cancel=True) interrupts slow in-flight queries quickly."""
        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, plan_cache_size=None)
        executor = ConcurrentExecutor(service, max_workers=2,
                                      engine="dataflow")
        # every kernel visit sleeps: uncancelled, the queries would run for
        # minutes; cancelled, each query stops at its next checkpoint
        rules = [FaultRule("stream.kernel", action="sleep",
                           seconds=0.02, rate=1.0)]
        with FaultInjector(seed=chaos_seed, rules=rules):
            futures = [executor.submit(THREE_HOP) for _ in range(2)]
            time.sleep(0.1)  # both queries are now mid-execution
            cancelled = executor.cancel_all("test shutdown")
            started = time.perf_counter()
            executor.shutdown(wait=True, cancel=True)
            drained = time.perf_counter() - started
        assert cancelled == 2
        assert drained < 15.0, "shutdown waited for full queries"
        for future in futures:
            outcome = future.result()
            assert not outcome.ok
            assert "Cancelled" in outcome.error
