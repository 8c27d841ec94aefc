"""Fig. 8(b): type inference on/off for QT1..5 (GraphScope-like backend, G30)."""

from typing import Dict, List, Optional, Sequence

from repro.backend import Backend
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import GOptimizer, OptimizerConfig
from repro.service import GraphService
from repro.workloads import qt_queries

from bench_utils import (
    BUDGETS,
    format_table,
    optimize_and_run,
    run_once,
    select_queries,
    summarise_speedups,
)


def type_inference_experiment(
    graph: PropertyGraph,
    query_names: Optional[Sequence[str]] = None,
    backend: Optional[Backend] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """QT1..5 with type inference enabled vs disabled (Fig. 8(b)).

    Following the paper's controlled setup, the CBO is disabled on both sides
    (plans follow the written matching order) so the measured difference is
    the inference's pruning of irrelevant types during execution.
    """
    backend = backend or GraphService.make_backend("graphscope", graph, BUDGETS)
    glogue = glogue or Glogue.from_graph(graph)
    with_inference = GOptimizer.for_graph(
        graph, profile=backend.profile(), glogue=glogue,
        config=OptimizerConfig(enable_cbo=False))
    without_inference = GOptimizer.for_graph(
        graph, profile=backend.profile(), glogue=glogue,
        config=OptimizerConfig(enable_cbo=False, enable_type_inference=False))
    rows = []
    for query in select_queries(qt_queries(), query_names):
        plan = query.logical_plan()
        enabled = optimize_and_run(with_inference, backend, plan)
        disabled = optimize_and_run(without_inference, backend, plan)
        rows.append({
            "query": query.name,
            "with_opt": enabled["runtime"],
            "without_opt": disabled["runtime"],
            "with_opt_work": enabled["work"],
            "without_opt_work": disabled["work"],
        })
    return rows


def test_bench_type_inference(benchmark, g30):
    graph, glogue = g30
    rows = run_once(benchmark, type_inference_experiment, graph, glogue=glogue)
    print()
    print(format_table(rows, title="Fig. 8(b): type inference (runtime seconds)"))
    print("speedup summary:", summarise_speedups(rows, "without_opt", "with_opt"))
    # inference must never increase the executed work
    for row in rows:
        assert row["with_opt_work"] <= row["without_opt_work"] * 1.05


def test_type_inference_reduced(tiny_ldbc):
    graph, glogue = tiny_ldbc
    rows = type_inference_experiment(graph, query_names=["QT2"], glogue=glogue)
    assert rows[0]["with_opt_work"] <= rows[0]["without_opt_work"]
