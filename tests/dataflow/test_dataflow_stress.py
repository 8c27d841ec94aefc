"""Stress tests for the dataflow runtime's cancellation and concurrency.

Marked ``slow``: these run many executions with deliberately tiny morsels so
cancellation lands mid-flight.  A hang here is the failure mode being
tested for -- every close must end the in-flight pull promptly.
"""

import threading
import time

import pytest

from repro import GraphService
from repro.datasets import social_commerce_graph
from repro.testing import FaultInjector, FaultRule

THREE_HOP = ("MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person)"
             "-[:Knows]->(d:Person) RETURN a.id AS a, b.id AS b, c.id AS c, "
             "d.id AS d")

pytestmark = [pytest.mark.slow, pytest.mark.dataflow]


@pytest.fixture(scope="module")
def service():
    graph = social_commerce_graph(num_persons=300, num_products=60,
                                  num_places=10, seed=11)
    # tiny morsels: many exchange hops and checkpoints per query
    return GraphService(graph, backend="graphscope", num_partitions=4,
                        batch_size=16)


class TestEarlyClose:
    def test_immediate_close_ends_the_inflight_fetch(self, service):
        """close() from a second thread while the first fetch_one is inside
        the executor: the fetch ends the stream promptly."""
        for _ in range(5):
            inside, closed = threading.Event(), threading.Event()

            def hold_until_closed(site, info):
                inside.set()
                closed.wait(10.0)

            # the first kernel visit parks the fetching thread until the
            # close has landed, so the close always finds it in flight
            rules = [FaultRule("stream.kernel", action="call", at_hits=[1],
                               callback=hold_until_closed)]
            with FaultInjector(seed=11, rules=rules), \
                    service.session(engine="dataflow") as session:
                cursor = session.run(THREE_HOP)
                fetched = []
                fetcher = threading.Thread(
                    target=lambda: fetched.append(cursor.fetch_one()),
                    name="stress-fetch")
                fetcher.start()
                assert inside.wait(30.0), "the first fetch never started"
                started = time.monotonic()
                cursor.close()
                closed.set()
                fetcher.join(timeout=30.0)
                assert not fetcher.is_alive(), "fetch hung after close"
            assert fetched == [None]  # end of stream, not a torn row
            assert time.monotonic() - started < 10.0, "close was not prompt"

    def test_close_after_first_row(self, service):
        # each fetch_one pays a full gather (the dataflow engine's output
        # order is only known after the lineage merge), so iterations are few
        deadline = time.monotonic() + 120.0
        with service.session(engine="dataflow") as session:
            for _ in range(4):
                cursor = session.run(THREE_HOP)
                assert cursor.fetch_one() is not None
                metrics = cursor.consume()
                assert metrics.intermediate_results > 0
                assert time.monotonic() < deadline, "consume deadlocked"

    def test_full_run_after_early_closes(self, service):
        """Cancellation leaves no state behind: a full drain still agrees."""
        with service.session(engine="dataflow") as session:
            session.run(THREE_HOP).close()
            dataflow_rows = session.run(THREE_HOP).fetch_all()
        with service.session(engine="row") as session:
            assert session.run(THREE_HOP).fetch_all() == dataflow_rows


class TestConcurrentDataflow:
    def test_concurrent_sessions_mixed_engines(self, service):
        """8 client threads, mixed engines, one shared service."""
        queries = [
            "MATCH (p:Person)-[:Knows]->(f:Person) RETURN count(f) AS cnt",
            "MATCH (p:Person)-[:Purchases]->(x:Product) "
            "RETURN x.id AS id, count(p) AS cnt ORDER BY cnt DESC, id LIMIT 5",
            "MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person) "
            "RETURN c.id AS id, count(a) AS cnt ORDER BY cnt DESC, id LIMIT 10",
        ]
        with service.session(engine="row") as session:
            expected = [session.run(q).fetch_all() for q in queries]
        errors = []
        mismatches = []

        def client(engine, rounds=4):
            try:
                with service.session(engine=engine) as session:
                    for index in range(rounds * len(queries)):
                        query = queries[index % len(queries)]
                        rows = session.run(query).fetch_all()
                        if rows != expected[index % len(queries)]:
                            mismatches.append((engine, query))
            except Exception as error:  # noqa: BLE001 - recorded for assert
                errors.append(error)

        threads = [threading.Thread(target=client,
                                    args=("dataflow" if i % 2 else "row",))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "client thread hung"
        assert not errors, errors
        assert not mismatches, mismatches
