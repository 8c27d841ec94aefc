"""Fig. 8(e): optimizing Gremlin queries — GOpt-plan vs GraphScope's GS-plan."""

from typing import Dict, List, Optional, Sequence

from repro.backend import Backend
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import build_optimizer
from repro.service import GraphService
from repro.workloads import qc_queries, qr_queries

from bench_utils import (
    BUDGETS,
    format_table,
    optimize_and_run,
    run_once,
    select_queries,
    summarise_speedups,
)


def gremlin_experiment(
    graph: PropertyGraph,
    query_names: Optional[Sequence[str]] = None,
    backend: Optional[Backend] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """Gremlin QR/QC queries: GOpt-plan vs GraphScope's native GS-plan (Fig. 8(e))."""
    backend = backend or GraphService.make_backend("graphscope", graph, BUDGETS)
    glogue = glogue or Glogue.from_graph(graph)
    profile = backend.profile()
    gopt = build_optimizer(graph, "gopt", profile=profile, glogue=glogue)
    gs_native = build_optimizer(graph, "gs", profile=profile, glogue=glogue)
    queries = [q for q in list(qr_queries()) + list(qc_queries()) if q.has_gremlin]
    rows = []
    for query in select_queries(queries, query_names):
        plan = query.logical_plan(language="gremlin")
        gopt_run = optimize_and_run(gopt, backend, plan)
        gs_run = optimize_and_run(gs_native, backend, plan)
        rows.append({
            "query": query.name,
            "gopt_plan": gopt_run["runtime"],
            "gs_plan": gs_run["runtime"],
            "gopt_plan_work": gopt_run["work"],
            "gs_plan_work": gs_run["work"],
        })
    return rows


def test_bench_gremlin_queries(benchmark, g30):
    graph, glogue = g30
    rows = run_once(benchmark, gremlin_experiment, graph, glogue=glogue)
    print()
    print(format_table(rows, title="Fig. 8(e): Gremlin queries — GOpt-plan vs GS-plan on GraphScope"))
    summary = summarise_speedups(rows, "gs_plan", "gopt_plan")
    print("speedup summary:", summary)
    wins = sum(1 for row in rows
               if isinstance(row["gopt_plan_work"], (int, float))
               and isinstance(row["gs_plan_work"], (int, float))
               and row["gopt_plan_work"] <= row["gs_plan_work"] * 1.05)
    # GOpt should win (or tie) on the clear majority of queries
    assert wins >= len(rows) * 0.6


def test_gremlin_reduced(tiny_ldbc):
    graph, glogue = tiny_ldbc
    rows = gremlin_experiment(graph, query_names=["QC3a", "QR1"], glogue=glogue)
    assert {row["query"] for row in rows} == {"QC3a", "QR1"}
