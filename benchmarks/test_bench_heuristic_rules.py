"""Fig. 8(a): heuristic rules on/off for QR1..8 (GraphScope-like backend, G30)."""

from typing import Dict, List, Optional, Sequence

from repro.backend import Backend
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import GOptimizer, OptimizerConfig
from repro.service import GraphService
from repro.workloads import qr_queries

from bench_utils import (
    BUDGETS,
    OT,
    format_table,
    optimize_and_run,
    run_once,
    select_queries,
    summarise_speedups,
)


def heuristic_rules_experiment(
    graph: PropertyGraph,
    query_names: Optional[Sequence[str]] = None,
    backend: Optional[Backend] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """QR1..8 with the heuristic rules enabled vs disabled (Fig. 8(a)).

    Following the paper, type inference and CBO are disabled on both sides so
    only the rules differ.
    """
    backend = backend or GraphService.make_backend("graphscope", graph, BUDGETS)
    glogue = glogue or Glogue.from_graph(graph)
    with_rules = GOptimizer.for_graph(
        graph, profile=backend.profile(), glogue=glogue,
        config=OptimizerConfig(enable_type_inference=False, enable_cbo=False))
    without_rules = GOptimizer.for_graph(
        graph, profile=backend.profile(), glogue=glogue,
        config=OptimizerConfig(enable_rbo=False, enable_type_inference=False, enable_cbo=False))
    rows = []
    for query in select_queries(qr_queries(), query_names):
        plan = query.logical_plan()
        with_opt = optimize_and_run(with_rules, backend, plan)
        without_opt = optimize_and_run(without_rules, backend, plan)
        rows.append({
            "query": query.name,
            "rule": query.tests,
            "with_opt": with_opt["runtime"],
            "without_opt": without_opt["runtime"],
            "with_opt_work": with_opt["work"],
            "without_opt_work": without_opt["work"],
        })
    return rows


def test_bench_heuristic_rules(benchmark, g30):
    graph, glogue = g30
    rows = run_once(benchmark, heuristic_rules_experiment, graph, glogue=glogue)
    print()
    print(format_table(rows, title="Fig. 8(a): heuristic rules (runtime seconds, work = rows+edges+cells)"))
    summary = summarise_speedups(rows, "without_opt", "with_opt")
    print("speedup summary:", summary)
    # the rules should never make a query slower in terms of work performed
    regressions = [r for r in rows
                   if isinstance(r["with_opt_work"], (int, float))
                   and isinstance(r["without_opt_work"], (int, float))
                   and r["with_opt_work"] > r["without_opt_work"] * 1.1]
    assert len(regressions) <= 1


def test_heuristic_rules_reduced(tiny_ldbc):
    graph, glogue = tiny_ldbc
    rows = heuristic_rules_experiment(graph, query_names=["QR1", "QR5"], glogue=glogue)
    assert {row["query"] for row in rows} == {"QR1", "QR5"}
    for row in rows:
        if row["with_opt"] != OT and row["without_opt"] != OT:
            assert row["with_opt_work"] <= row["without_opt_work"]
