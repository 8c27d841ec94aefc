"""Fig. 8(c): CBO plan quality for QC1..4(a|b) (GOpt vs GOpt-Neo vs random plans)."""

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.backend import Backend
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.baselines import RandomPlanner
from repro.optimizer.cardinality import GlogueQuery
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import GOptimizer, OptimizerConfig, build_optimizer
from repro.service import GraphService
from repro.workloads import qc_queries

from bench_utils import (
    BUDGETS,
    format_table,
    geometric_mean,
    optimize_and_run,
    run_once,
    select_queries,
)


def cbo_experiment(
    graph: PropertyGraph,
    query_names: Optional[Sequence[str]] = None,
    num_random_plans: int = 5,
    backend: Optional[Backend] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """QC1..4(a|b): GOpt-plan vs GOpt-Neo-plan vs random plans (Fig. 8(c))."""
    backend = backend or GraphService.make_backend("graphscope", graph, BUDGETS)
    glogue = glogue or Glogue.from_graph(graph)
    profile = backend.profile()
    gopt = build_optimizer(graph, "gopt", profile=profile, glogue=glogue)
    gopt_neo = build_optimizer(graph, "gopt-neo-cost", profile=profile, glogue=glogue)
    gq = GlogueQuery(glogue)
    rows = []
    for query in select_queries(qc_queries(), query_names):
        plan = query.logical_plan()
        rows.append({"query": query.name, "plan": "GOpt-Plan",
                     **_strip(optimize_and_run(gopt, backend, plan))})
        rows.append({"query": query.name, "plan": "GOpt-Neo-Plan",
                     **_strip(optimize_and_run(gopt_neo, backend, plan))})
        for index in range(num_random_plans):
            random_planner = RandomPlanner(gq, profile, seed=index + 1)
            random_optimizer = GOptimizer.for_graph(
                graph, profile=profile, glogue=glogue, pattern_planner=random_planner,
                config=OptimizerConfig(enable_type_inference=True))
            rows.append({"query": query.name, "plan": "Random-%d" % (index + 1),
                         **_strip(optimize_and_run(random_optimizer, backend, plan))})
    return rows


def _strip(outcome: Dict[str, object]) -> Dict[str, object]:
    return {"runtime": outcome["runtime"], "work": outcome["work"],
            "estimated_cost": outcome["estimated_cost"]}


def test_bench_cbo_plan_quality(benchmark, g30):
    graph, glogue = g30
    rows = run_once(benchmark, cbo_experiment, graph, num_random_plans=5, glogue=glogue)
    print()
    print(format_table(rows, title="Fig. 8(c): CBO — GOpt-Plan vs GOpt-Neo-Plan vs random plans"))

    by_query = defaultdict(dict)
    for row in rows:
        by_query[row["query"]][row["plan"]] = row
    ratios = []
    for query, plans in by_query.items():
        gopt = plans["GOpt-Plan"]
        random_work = [plans[name]["work"] for name in plans if name.startswith("Random")]
        if isinstance(gopt["work"], (int, float)) and random_work:
            average_random = sum(w for w in random_work if isinstance(w, (int, float))) / len(random_work)
            if gopt["work"] > 0:
                ratios.append(average_random / gopt["work"])
    print("average-random / GOpt work ratio (geo mean): %.2f" % (geometric_mean(ratios) or 0.0))
    # GOpt should beat the average random plan overall (paper: 117.8x)
    assert geometric_mean(ratios) is not None and geometric_mean(ratios) > 1.0


def test_cbo_reduced(tiny_ldbc):
    graph, glogue = tiny_ldbc
    rows = cbo_experiment(graph, query_names=["QC3a"], num_random_plans=2, glogue=glogue)
    plans = {row["plan"] for row in rows}
    assert "GOpt-Plan" in plans and "GOpt-Neo-Plan" in plans and "Random-1" in plans
