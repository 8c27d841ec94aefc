"""Concurrent serving: executor behavior and thread-safety stress."""

import threading

import pytest

from repro import ConcurrentExecutor, GraphService, QueryRequest
from repro.errors import GOptError

TEMPLATES = [
    ("cypher", "MATCH (p:Person) WHERE p.id = $x RETURN p.name AS n"),
    ("cypher", "MATCH (p:Person)-[:Knows]->(f:Person) WHERE p.id IN $ids "
               "RETURN f.name AS friend"),
    ("cypher", "MATCH (p:Person)-[:LocatedIn]->(c:Place) "
               "RETURN c.name AS place, count(p) AS cnt"),
    ("gremlin", "g.V().hasLabel('Person').count()"),
]


def _requests(count):
    requests = []
    for index in range(count):
        language, text = TEMPLATES[index % len(TEMPLATES)]
        if "$x" in text:
            requests.append(QueryRequest(text, parameters={"x": index % 40}))
        elif "$ids" in text:
            requests.append(QueryRequest(text, parameters={"ids": [index % 40]}))
        else:
            requests.append(QueryRequest(text, language=language))
    return requests


@pytest.fixture(scope="module")
def service(social_graph):
    return GraphService(social_graph, backend="graphscope", num_partitions=2)


class TestConcurrentExecutor:
    def test_run_all_preserves_order_and_parity(self, service):
        requests = _requests(12)
        with service.session() as session:
            serial = [session.run(r.query, r.language, r.parameters).fetch_all()
                      for r in requests]
        with ConcurrentExecutor(service, max_workers=4) as executor:
            outcomes = executor.run_all(requests)
        assert [o.request for o in outcomes] == requests
        assert all(o.ok for o in outcomes)
        assert [o.rows for o in outcomes] == serial

    def test_error_isolation(self, service):
        requests = [
            QueryRequest("MATCH (p:Person) RETURN count(p) AS c"),
            QueryRequest("THIS IS NOT CYPHER"),
            QueryRequest("MATCH (p:Place) RETURN count(p) AS c"),
        ]
        with ConcurrentExecutor(service, max_workers=2) as executor:
            outcomes = executor.run_all(requests)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok and "ParseError" in outcomes[1].error

    def test_per_query_deadline(self, service):
        with ConcurrentExecutor(service, max_workers=2,
                                deadline_seconds=0.0) as executor:
            outcome = executor.submit(
                "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS n").result()
        assert outcome.ok and outcome.timed_out and outcome.rows == []
        # the deadline override never touches the shared backend budget
        assert service.backend.options.timeout_seconds not in (0, 0.0)

    def test_invalid_worker_count(self, service):
        with pytest.raises(GOptError):
            ConcurrentExecutor(service, max_workers=0)

    def test_outcome_metrics_populated(self, service):
        with ConcurrentExecutor(service, max_workers=2) as executor:
            outcome = executor.submit("MATCH (p:Person) RETURN count(p) AS c").result()
        assert outcome.metrics is not None
        assert outcome.metrics.operators_executed >= 1


@pytest.mark.slow
class TestConcurrencyStress:
    """≥8 threads of mixed cypher/gremlin through one shared service."""

    REQUESTS_PER_THREAD = 24
    THREADS = 8

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_stress_parity_and_cache_accounting(self, social_graph, engine):
        service = GraphService(social_graph, backend="graphscope",
                               num_partitions=2, engine=engine)
        requests = _requests(self.REQUESTS_PER_THREAD)
        with service.session() as session:
            serial = [session.run(r.query, r.language, r.parameters).fetch_all()
                      for r in requests]

        # warm cache state after the serial pass: every further lookup must hit
        warm = service.cache_info()
        results = {}
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def client(thread_id):
            try:
                barrier.wait(timeout=30)
                with service.session() as session:
                    results[thread_id] = [
                        session.run(r.query, r.language, r.parameters).fetch_all()
                        for r in requests
                    ]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((thread_id, repr(exc)))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == self.THREADS

        # row parity: every thread saw exactly the serial answers
        for thread_id, rows in results.items():
            assert rows == serial, "thread %d diverged" % thread_id

        # cache accounting under concurrency: the warm cache serves every
        # lookup as a hit -- no lost updates, no spurious misses/evictions
        info = service.cache_info()
        lookups = self.THREADS * self.REQUESTS_PER_THREAD
        assert info.misses == warm.misses
        assert info.hits == warm.hits + lookups
        assert info.size == warm.size
        assert info.evictions == 0

    def test_stress_through_executor_cold_cache(self, social_graph):
        """Cold-start stress: concurrent misses must never corrupt the cache.

        Unlike the warm-cache test, optimizations race here; the invariant
        is accounting consistency (hits + misses == lookups) and result
        correctness, not an exact hit count.
        """
        service = GraphService(social_graph, backend="graphscope", num_partitions=2)
        requests = _requests(self.THREADS * self.REQUESTS_PER_THREAD)
        with service.session() as session:
            serial = [session.run(r.query, r.language, r.parameters).fetch_all()
                      for r in requests]
        service.clear_plan_cache()

        with ConcurrentExecutor(service, max_workers=self.THREADS) as executor:
            outcomes = executor.run_all(requests)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes if not o.ok]
        assert [o.rows for o in outcomes] == serial

        info = service.cache_info()
        assert info.hits + info.misses == len(requests)
        assert info.size <= len(TEMPLATES) * 2  # racing misses may double-insert
        assert info.hits >= len(requests) - info.misses
