"""Unit tests for the shared LRU plan cache (through ``GraphService``)."""

import threading

import pytest

from repro import GraphService, available_engines
from repro.optimizer.planner import OptimizerConfig
from repro.plan_cache import (
    PlanCache,
    PlanCacheInfo,
    freeze_value,
    normalize_query_text,
    parameter_signature,
)

QUERY = "MATCH (p:Person) WHERE p.id IN $ids RETURN p.name AS name"


def execute_cypher(service, query, parameters=None):
    """Optimize with values inlined (full-signature cache key), run to completion."""
    report = service.optimize(query, "cypher", parameters)
    return service.backend.execute(report.physical_plan)


@pytest.fixture()
def service(social_graph):
    return GraphService(social_graph, backend="graphscope", num_partitions=2,
                        plan_cache_size=4)


class TestHitMissAccounting:
    def test_repeat_query_hits(self, service):
        execute_cypher(service, "MATCH (p:Person) RETURN count(p) AS c")
        info = service.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 1, 1)
        execute_cypher(service, "MATCH (p:Person) RETURN count(p) AS c")
        info = service.cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)

    def test_whitespace_normalization_shares_entry(self, service):
        service.optimize("MATCH (p:Person) RETURN count(p) AS c")
        service.optimize("MATCH   (p:Person)\n   RETURN count(p)   AS c")
        info = service.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_language_is_part_of_the_key(self, service):
        service.optimize("g.V().hasLabel('Person').count()", language="gremlin")
        service.optimize("g.V().hasLabel('Person').count()", language="gremlin")
        assert service.cache_info().hits == 1

    def test_logical_plan_inputs_bypass_the_cache(self, service):
        plan = service.parse("MATCH (p:Person) RETURN count(p) AS c")
        service.optimize(plan)
        service.optimize(plan)
        info = service.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_cache_can_be_disabled(self, social_graph):
        service = GraphService(social_graph, backend="neo4j", plan_cache_size=None)
        execute_cypher(service, "MATCH (p:Person) RETURN count(p) AS c")
        execute_cypher(service, "MATCH (p:Person) RETURN count(p) AS c")
        info = service.cache_info()
        assert (info.hits, info.misses, info.capacity) == (0, 0, 0)

    @pytest.mark.parametrize("size", [None, 0])
    def test_disabled_cache_reports_sentinel(self, social_graph, size):
        """``capacity == 0`` is the documented "caching disabled" marker.

        A live cache always has capacity >= 1 (PlanCache rejects less), so
        the sentinel is unambiguous; ``cache_info`` stays all-zero no matter
        how many queries run, and ``clear_plan_cache`` is a safe no-op.
        """
        service = GraphService(social_graph, backend="neo4j", plan_cache_size=size)
        assert service.cache_info() == PlanCacheInfo.disabled()
        assert service.cache_info().capacity == 0
        execute_cypher(service, "MATCH (p:Person) RETURN count(p) AS c")
        service.clear_plan_cache()  # no-op, must not raise
        assert service.cache_info() == PlanCacheInfo.disabled()

    def test_enabled_cache_never_reports_capacity_zero(self, service):
        assert service.cache_info().capacity >= 1

    def test_clear_resets_counts(self, service):
        service.optimize("MATCH (p:Person) RETURN count(p) AS c")
        service.clear_plan_cache()
        info = service.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_cached_report_still_executes_with_current_values(self, service):
        first = execute_cypher(service, QUERY, parameters={"ids": [0, 1, 2]})
        second = execute_cypher(service, QUERY, parameters={"ids": [0, 1, 2]})
        assert service.cache_info().hits == 1
        assert first.rows == second.rows
        assert len(second.rows) == 3


class TestParameterSignatureIsolation:
    def test_different_values_do_not_collide(self, service):
        a = execute_cypher(service, QUERY, parameters={"ids": [0, 1]})
        b = execute_cypher(service, QUERY, parameters={"ids": [0, 1, 2, 3]})
        assert service.cache_info().hits == 0
        assert len(a.rows) == 2 and len(b.rows) == 4

    def test_same_text_different_param_types_do_not_collide(self, service):
        # 1 and 1.0 and True are ==/hash-equal in Python but are different
        # literals once inlined; the signature must keep them apart
        query = "MATCH (p:Person) WHERE p.id = $x RETURN count(p) AS c"
        service.optimize(query, parameters={"x": 1})
        service.optimize(query, parameters={"x": 1.0})
        service.optimize(query, parameters={"x": True})
        info = service.cache_info()
        assert (info.hits, info.misses) == (0, 3)
        # repeating each now hits its own entry
        service.optimize(query, parameters={"x": 1})
        service.optimize(query, parameters={"x": 1.0})
        assert service.cache_info().hits == 2

    def test_signature_is_order_insensitive(self):
        assert parameter_signature({"a": 1, "b": 2}) == parameter_signature({"b": 2, "a": 1})

    def test_freeze_value_distinguishes_types(self):
        assert freeze_value(1) != freeze_value(1.0)
        assert freeze_value(1) != freeze_value(True)
        assert freeze_value([1, 2]) != freeze_value((1, 2))
        assert freeze_value({1, 2}) == freeze_value({2, 1})

    def test_normalize_query_text(self):
        assert normalize_query_text(" MATCH  (a)\n RETURN a ") == "MATCH (a) RETURN a"

    def test_normalization_preserves_string_literals(self):
        # whitespace inside quotes is significant; collapsing it would make
        # different queries collide on one cache entry
        a = normalize_query_text('MATCH (p) WHERE p.name = "A  B" RETURN p')
        b = normalize_query_text('MATCH (p) WHERE p.name = "A B" RETURN p')
        assert a != b
        assert '"A  B"' in a
        assert normalize_query_text("WHERE x = 'a\n b'") == "WHERE x = 'a\n b'"
        # unterminated literal: kept verbatim to the end, no crash
        assert normalize_query_text('RETURN "dangling  text').endswith('"dangling  text')

    def test_queries_differing_only_inside_literals_do_not_collide(self, service):
        template = 'MATCH (p:Person) WHERE p.name = %s RETURN count(p) AS c'
        service.optimize(template % '"Ada  0"')
        service.optimize(template % '"Ada 0"')
        info = service.cache_info()
        assert (info.hits, info.misses) == (0, 2)


class TestEvictionOrder:
    def test_lru_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put(("q1",), "r1")
        cache.put(("q2",), "r2")
        assert cache.get(("q1",)) == "r1"   # refresh q1
        cache.put(("q3",), "r3")            # evicts q2, the LRU entry
        assert cache.get(("q2",)) is None
        assert cache.get(("q1",)) == "r1"
        assert cache.get(("q3",)) == "r3"
        assert cache.info().evictions == 1

    def test_capacity_enforced_via_service(self, service):
        for index in range(6):
            service.optimize("MATCH (p:Person) RETURN count(p) AS c%d" % index)
        info = service.cache_info()
        assert info.size == 4
        assert info.evictions == 2

    def test_put_existing_key_updates_without_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put(("q",), "old")
        cache.put(("q",), "new")
        assert cache.get(("q",)) == "new"
        assert cache.info().size == 1
        assert cache.info().evictions == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestThreadSafety:
    def test_concurrent_accounting_is_exact(self):
        """Hammering one cache from many threads loses no counter updates."""
        cache = PlanCache(capacity=16)
        keys = [("q%d" % index,) for index in range(8)]
        for key in keys:
            cache.put(key, "plan")
        threads_count, lookups_per_thread = 8, 500

        def worker():
            for index in range(lookups_per_thread):
                assert cache.get(keys[index % len(keys)]) == "plan"

        threads = [threading.Thread(target=worker) for _ in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        info = cache.info()
        assert info.hits == threads_count * lookups_per_thread
        assert info.misses == 0
        assert info.size == len(keys)

    def test_concurrent_inserts_respect_capacity(self):
        cache = PlanCache(capacity=4)

        def worker(base):
            for index in range(200):
                cache.put(("k", base, index % 10), index)
                cache.get(("k", base, index % 10))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        info = cache.info()
        assert info.size <= 4
        assert len(cache) == info.size


class TestEnvironmentBypass:
    def test_graph_mutation_bypasses_stale_entries(self):
        from repro.datasets import social_commerce_graph

        # private graph: the shared fixture must not be mutated
        graph = social_commerce_graph(num_persons=20, num_products=5,
                                      num_places=3, seed=11)
        service = GraphService(graph, backend="neo4j")
        query = "MATCH (p:Person) RETURN count(p) AS c"
        before = execute_cypher(service, query).rows[0]["c"]
        execute_cypher(service, query)
        assert service.cache_info().hits == 1
        graph.add_vertex("Person", {"id": 10_000, "name": "new"})
        after = execute_cypher(service, query).rows[0]["c"]
        assert after == before + 1          # fresh plan, fresh environment key
        assert service.cache_info().hits == 1  # no stale hit

    def test_engine_flip_hits(self, service):
        """The optimizer never sees the engine: every engine shares one plan."""
        query = "MATCH (p:Person) RETURN count(p) AS c"
        template = "MATCH (p:Person) WHERE p.id = $x RETURN p.name AS n"
        results = []
        for engine in available_engines():
            with service.session(engine=engine) as session:
                results.append((session.run(query).fetch_all(),
                                session.run(template, parameters={"x": 1}).fetch_all()))
        info = service.cache_info()
        assert (info.hits, info.misses) == (
            2 * (len(available_engines()) - 1), 2)
        assert all(result == results[0] for result in results)

    def test_optimize_engine_keyword_is_inert(self, service):
        """``optimize(engine=...)`` picks no engine-specific plan: every
        value returns the one cached report (the keyword goes once no
        caller passes it)."""
        query = "MATCH (p:Person)-[:Knows]->(f:Person) RETURN count(f) AS c"
        report = service.optimize(query)
        for engine in available_engines():
            assert service.optimize(query, engine=engine) is report
        assert service.cache_info().misses == 1

    def test_config_change_bypasses(self, social_graph):
        service = GraphService(social_graph, backend="neo4j")
        query = "MATCH (p:Person)-[:Knows]->(f:Person) RETURN count(f) AS c"
        service.optimize(query)
        from repro.optimizer.planner import GOptimizer
        service.optimizer = GOptimizer.for_graph(
            social_graph, profile=service.backend.profile(),
            config=OptimizerConfig(enable_cbo=False))
        service.optimize(query)
        info = service.cache_info()
        assert (info.hits, info.misses) == (0, 2)
