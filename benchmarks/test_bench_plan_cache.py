"""Plan-cache benchmark: repeated parameterized queries skip parse+optimize.

Simulates the production pattern the cache exists for -- one query template
executed many times with a rotating set of parameter values -- and reports
the per-call latency with the cache enabled vs disabled.
"""

import time

from repro import GraphService

from bench_utils import format_table, gc_paused, run_once

TEMPLATE = """
    MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(c:Place)
    WHERE p.id IN $ids
    RETURN c.name AS place, count(f) AS cnt
"""
PARAM_SETS = [{"ids": [i, i + 1, i + 2]} for i in range(0, 40, 10)]
REPEATS = 15


def _execute_inlined(service, parameters):
    """One call of the value-keyed path: values inlined at parse, plan drained."""
    report = service.optimize(TEMPLATE, "cypher", parameters)
    return service.backend.execute(report.physical_plan)


def _run_workload(service):
    start = time.perf_counter()
    for _ in range(REPEATS):
        for params in PARAM_SETS:
            _execute_inlined(service, params)
    return time.perf_counter() - start


def test_bench_plan_cache(benchmark, g30):
    graph, _ = g30

    def compare():
        cached = GraphService(graph, backend="graphscope", plan_cache_size=128)
        uncached = GraphService(graph, backend="graphscope", plan_cache_size=None)
        # 56 skipped compiles are ~35 ms since the estimator's key got cheap:
        # less than one full collection late in a long pytest process
        with gc_paused():
            cached_seconds = _run_workload(cached)
            uncached_seconds = _run_workload(uncached)
        info = cached.cache_info()
        return [{
            "calls": REPEATS * len(PARAM_SETS),
            "cached_seconds": cached_seconds,
            "uncached_seconds": uncached_seconds,
            "speedup": uncached_seconds / cached_seconds if cached_seconds else None,
            "cache_hits": info.hits,
            "cache_misses": info.misses,
        }]

    rows = run_once(benchmark, compare)
    print()
    print(format_table(rows, title="Plan cache: repeated parameterized query latency"))
    row = rows[0]
    # every template+params combination misses once, then always hits
    assert row["cache_misses"] == len(PARAM_SETS)
    assert row["cache_hits"] == (REPEATS - 1) * len(PARAM_SETS)
    # optimization is a large fraction of repeated-query latency; the cache
    # must make the workload faster overall (1.0 would mean no benefit)
    assert row["speedup"] is not None and row["speedup"] > 1.0


def test_bench_prepared_statement_cache(benchmark, g30):
    """Prepared statements: 100 distinct value sets, one type-keyed plan.

    The value-keyed inline path above re-optimizes per distinct parameter
    value; a prepared statement defers binding, so the same 100-value sweep
    costs one optimization and 99 cache hits.
    """
    graph, _ = g30
    distinct_values = 100

    def serve():
        inlined = GraphService(graph, backend="graphscope", plan_cache_size=128)
        inlined_start = time.perf_counter()
        for index in range(distinct_values):
            _execute_inlined(inlined, {"ids": [index, index + 1]})
        inlined_seconds = time.perf_counter() - inlined_start

        service = GraphService(graph, backend="graphscope", plan_cache_size=128)
        prepared_start = time.perf_counter()
        with service.session() as session:
            prepared = session.prepare(TEMPLATE)
            for index in range(distinct_values):
                prepared.run({"ids": [index, index + 1]}).fetch_all()
        prepared_seconds = time.perf_counter() - prepared_start
        return [{
            "distinct_values": distinct_values,
            "inlined_seconds": inlined_seconds,
            "prepared_seconds": prepared_seconds,
            "speedup": (inlined_seconds / prepared_seconds
                        if prepared_seconds else None),
            "inlined_entries": inlined.cache_info().size,
            "inlined_optimizations": inlined.cache_info().misses,
            "prepared_entries": service.cache_info().size,
            "prepared_optimizations": service.cache_info().misses,
            "prepared_hits": service.cache_info().hits,
        }]

    rows = run_once(benchmark, serve)
    print()
    print(format_table(rows, title="Prepared statements: plan reuse across values"))
    row = rows[0]
    # acceptance: 100 distinct value sets -> exactly 1 plan-cache entry
    assert row["prepared_entries"] == 1
    assert row["prepared_hits"] >= distinct_values - 1
    # the deterministic cost difference: one optimization instead of 100
    # (wall-clock speedup is reported but not asserted -- CI timing is noisy)
    assert row["prepared_optimizations"] == 1
    assert row["inlined_optimizations"] == distinct_values
    # the value-keyed path fans out one entry per value (LRU-capped)
    assert row["inlined_entries"] > 1
