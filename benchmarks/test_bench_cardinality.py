"""Fig. 8(d): high-order vs low-order statistics for QC1..4(a|b)."""

from typing import Dict, List, Optional, Sequence

from repro.backend import Backend
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import build_optimizer
from repro.service import GraphService
from repro.workloads import qc_queries

from bench_utils import (
    BUDGETS,
    format_table,
    optimize_and_run,
    run_once,
    select_queries,
    summarise_speedups,
)


def cardinality_experiment(
    graph: PropertyGraph,
    query_names: Optional[Sequence[str]] = None,
    backend: Optional[Backend] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """QC1..4(a|b) planned with high-order vs low-order statistics (Fig. 8(d))."""
    backend = backend or GraphService.make_backend("graphscope", graph, BUDGETS)
    glogue = glogue or Glogue.from_graph(graph)
    profile = backend.profile()
    high_order = build_optimizer(graph, "gopt", profile=profile, glogue=glogue)
    low_order = build_optimizer(graph, "gopt-low-order", profile=profile, glogue=glogue)
    rows = []
    for query in select_queries(qc_queries(), query_names):
        plan = query.logical_plan()
        high = optimize_and_run(high_order, backend, plan)
        low = optimize_and_run(low_order, backend, plan)
        rows.append({
            "query": query.name,
            "high_order": high["runtime"],
            "low_order": low["runtime"],
            "high_order_work": high["work"],
            "low_order_work": low["work"],
        })
    return rows


def test_bench_cardinality_estimation(benchmark, g30):
    graph, glogue = g30
    rows = run_once(benchmark, cardinality_experiment, graph, glogue=glogue)
    print()
    print(format_table(rows, title="Fig. 8(d): plans from high-order vs low-order statistics"))
    print("speedup summary:", summarise_speedups(rows, "low_order", "high_order"))
    # high-order statistics should never lead to a dramatically worse plan
    for row in rows:
        if isinstance(row["high_order_work"], (int, float)) and isinstance(row["low_order_work"], (int, float)):
            assert row["high_order_work"] <= row["low_order_work"] * 2.0


def test_cardinality_reduced(tiny_ldbc):
    graph, glogue = tiny_ldbc
    rows = cardinality_experiment(graph, query_names=["QC1a"], glogue=glogue)
    assert rows and "high_order" in rows[0] and "low_order" in rows[0]
