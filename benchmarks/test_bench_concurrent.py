"""Concurrent-serving stress benchmark: N clients over one GraphService.

Fans a parameterized cypher/gremlin workload over a thread pool of sessions
with per-query deadlines (the production serving pattern), asserting inside
the benchmark that the concurrent run returns exactly the serial run's rows
and that prepared/parameterized plans collapse to one cache entry per
template.
"""

import time
from typing import Dict, List, Optional, Sequence

import pytest

from repro.graph.property_graph import PropertyGraph
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import build_optimizer
from repro.service import ConcurrentExecutor, GraphService, QueryRequest

from bench_utils import BUDGETS, format_table, run_once

#: parameterized templates modeling a production point-lookup/traversal mix;
#: every template is prepared once per service and executed with rotating
#: parameter values, so plan-cache behavior under load is part of the result
SERVING_TEMPLATES = (
    ("person-by-id", "cypher",
     "MATCH (p:Person) WHERE p.id = $id RETURN p.id AS id"),
    ("friends", "cypher",
     "MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE p.id IN $ids "
     "RETURN f.id AS friend"),
    ("friend-places", "cypher",
     "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(c:Place) "
     "WHERE p.id IN $ids RETURN c.id AS place, count(f) AS cnt"),
    ("person-count", "gremlin",
     "g.V().hasLabel('Person').count()"),
)


def concurrent_serving_experiment(
    graph: PropertyGraph,
    num_clients: int = 8,
    requests_per_client: int = 25,
    engines: Sequence[str] = ("row", "vectorized"),
    backend_kind: str = "graphscope",
    deadline_seconds: float = 10.0,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """Stress the session serving layer: N concurrent clients vs serial.

    For each engine, a fixed parameterized workload (``num_clients *
    requests_per_client`` requests over :data:`SERVING_TEMPLATES`) is run
    twice through one shared :class:`~repro.service.GraphService` -- once
    serially, once fanned over a :class:`~repro.service.ConcurrentExecutor`
    thread pool with per-query deadlines -- asserting row parity between the
    two runs inside the benchmark itself (the ``rows_match`` column).  The
    reported cache hit rate shows prepared/parameterized plans being reused
    across values: one plan-cache entry per template, not per value.
    """
    glogue = glogue or Glogue.from_graph(graph)
    person_ids = [graph.vertex_property(v, "id") for v in
                  list(graph.vertices_of_type("Person"))[:20]]
    if not person_ids:
        person_ids = [0]
    requests: List[QueryRequest] = []
    for index in range(num_clients * requests_per_client):
        name, language, text = SERVING_TEMPLATES[index % len(SERVING_TEMPLATES)]
        if language == "gremlin":
            requests.append(QueryRequest(text, language=language))
            continue
        pid = person_ids[index % len(person_ids)]
        parameters = ({"id": pid} if "$id " in text or text.endswith("$id")
                      or "= $id" in text else {"ids": [pid]})
        requests.append(QueryRequest(text, language=language, parameters=parameters))

    rows = []
    for engine in engines:
        backend = GraphService.make_backend(backend_kind, graph, {
            **BUDGETS, "timeout_seconds": deadline_seconds, "engine": engine})
        optimizer = build_optimizer(graph, "gopt", profile=backend.profile(),
                                    glogue=glogue)
        service = GraphService(graph, backend=backend, optimizer=optimizer)

        serial_start = time.perf_counter()
        with service.session() as session:
            serial_rows = [session.run(r.query, r.language, r.parameters).fetch_all()
                           for r in requests]
        serial_seconds = time.perf_counter() - serial_start

        concurrent_start = time.perf_counter()
        with ConcurrentExecutor(service, max_workers=num_clients,
                                deadline_seconds=deadline_seconds) as executor:
            outcomes = executor.run_all(requests)
        concurrent_seconds = time.perf_counter() - concurrent_start

        info = service.cache_info()
        total = len(requests)
        rows.append({
            "engine": engine,
            "clients": num_clients,
            "requests": total,
            "serial_seconds": serial_seconds,
            "concurrent_seconds": concurrent_seconds,
            "throughput_qps": (total / concurrent_seconds
                               if concurrent_seconds > 0 else None),
            "errors": sum(1 for o in outcomes if not o.ok),
            "timeouts": sum(1 for o in outcomes if o.timed_out),
            "rows_match": [o.rows for o in outcomes] == serial_rows,
            "cache_entries": info.size,
            "cache_hit_rate": (info.hits / (info.hits + info.misses)
                               if info.hits + info.misses else None),
        })
    return rows


@pytest.mark.slow
def test_bench_concurrent_serving(benchmark, g30):
    graph, glogue = g30
    rows = run_once(
        benchmark, concurrent_serving_experiment, graph,
        num_clients=8, requests_per_client=25, glogue=glogue)
    print()
    print(format_table(rows, title="Concurrent serving: 8 clients, mixed workload"))
    for row in rows:
        assert row["errors"] == 0
        assert row["timeouts"] == 0
        assert row["rows_match"] is True
        # type-keyed prepared plans: entries stay bounded by the template
        # count no matter how many distinct parameter values were served
        assert row["cache_entries"] <= len(SERVING_TEMPLATES)
        assert row["cache_hit_rate"] > 0.9


def test_concurrent_serving_reduced(tiny_ldbc):
    graph, glogue = tiny_ldbc
    rows = concurrent_serving_experiment(
        graph, num_clients=4, requests_per_client=4,
        engines=("row", "vectorized"), glogue=glogue)
    assert {row["engine"] for row in rows} == {"row", "vectorized"}
    for row in rows:
        assert row["errors"] == 0
        assert row["rows_match"] is True
        # prepared plans key on types: one cache entry per template
        assert row["cache_entries"] <= len(SERVING_TEMPLATES)
        assert row["cache_hit_rate"] is not None and row["cache_hit_rate"] > 0.5
