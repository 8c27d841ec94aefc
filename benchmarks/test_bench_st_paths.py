"""Fig. 11: the s-t path case study (fraud detection over the transfer graph)."""

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.backend import Backend
from repro.datasets import finance_graph
from repro.gir.operators import AggregateCall, AggregateFunction
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.cardinality import GlogueQuery
from repro.optimizer.cost_model import CostModel
from repro.optimizer.glogue import Glogue
from repro.optimizer.physical_plan import Aggregate, PhysicalPlan
from repro.optimizer.physical_spec import graphscope_profile
from repro.optimizer.search import PatternSearcher, build_pattern_physical
from repro.service import GraphService
from repro.workloads.st_paths import (
    join_position,
    single_direction_plan,
    split_plan,
    st_path_pattern,
)

from bench_utils import BUDGETS, format_table, run_once, runtime_or_ot


def st_path_experiment(
    graph: Optional[PropertyGraph] = None,
    id_sets: Optional[Dict[str, List[int]]] = None,
    hops: int = 6,
    backend: Optional[Backend] = None,
    query_names: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """ST1..5: GOpt-plan vs single-direction Neo4j-plan vs two fixed splits (Fig. 11).

    ``hops`` defaults to 6 as in the paper; reduce it for quick smoke runs on
    smaller transfer graphs.
    """
    if graph is None or id_sets is None:
        graph, id_sets = finance_graph()
    backend = backend or GraphService.make_backend("graphscope", graph, BUDGETS)
    profile = graphscope_profile()
    glogue = Glogue.from_graph(graph)
    gq = GlogueQuery(glogue)
    cost_model = CostModel(gq, profile)
    searcher = PatternSearcher(gq, profile)

    combos = [
        ("ST1", "S1_small", "S2_large"),
        ("ST2", "S1_large", "S2_small"),
        ("ST3", "S1_small", "S2_small"),
        ("ST4", "S1_large", "S2_large"),
        ("ST5", "S2_small", "S1_small"),
    ]
    if query_names is not None:
        combos = [c for c in combos if c[0] in set(query_names)]

    rows = []
    for name, s1_key, s2_key in combos:
        pattern = st_path_pattern(id_sets[s1_key], id_sets[s2_key], hops=hops)
        plans = {
            "GOpt-plan": searcher.optimize(pattern).plan,
            "Neo4j-plan": single_direction_plan(pattern, cost_model, from_source=True),
            "Alt-plan1": split_plan(pattern, cost_model, left_hops=hops // 2),
            "Alt-plan2": split_plan(pattern, cost_model, left_hops=1),
        }
        for plan_name, plan in plans.items():
            physical = _count_plan(plan, profile)
            result = backend.execute(physical)
            rows.append({
                "query": name,
                "plan": plan_name,
                "join_position": join_position(plan),
                "runtime": runtime_or_ot(result.metrics.elapsed_seconds, result.timed_out),
                "work": result.metrics.total_work,
                "estimated_cost": plan.cost,
            })
    return rows


def _count_plan(pattern_plan, profile) -> PhysicalPlan:
    """Wrap a pattern plan with a COUNT aggregation (the ST queries return counts)."""
    op = build_pattern_physical(pattern_plan, profile)
    count = Aggregate(
        keys=(),
        aggregations=(AggregateCall(AggregateFunction.COUNT, None, "paths"),),
        mode=profile.aggregate_mode,
        inputs=(op,),
    )
    return PhysicalPlan(count)


def test_bench_st_paths(benchmark, finance):
    graph, id_sets = finance
    rows = run_once(benchmark, st_path_experiment, graph, id_sets, hops=6)
    print()
    print(format_table(rows, title="Fig. 11: s-t path plans (k=6) — join positions and runtimes"))

    by_query = defaultdict(dict)
    for row in rows:
        by_query[row["query"]][row["plan"]] = row
    gopt_beats_single_direction = 0
    for query, plans in by_query.items():
        gopt = plans["GOpt-plan"]
        neo = plans["Neo4j-plan"]
        if neo["runtime"] == "OT" and gopt["runtime"] != "OT":
            gopt_beats_single_direction += 1
        elif isinstance(gopt["work"], (int, float)) and isinstance(neo["work"], (int, float)):
            if gopt["work"] < neo["work"]:
                gopt_beats_single_direction += 1
    print("GOpt beats single-direction expansion on %d / %d ST queries"
          % (gopt_beats_single_direction, len(by_query)))
    # the paper's headline: bidirectional CBO plans beat single-direction expansion
    assert gopt_beats_single_direction >= len(by_query) - 1
    # and the chosen join position is not always the midpoint
    positions = {plans["GOpt-plan"]["join_position"] for plans in by_query.values()}
    assert len(positions) >= 1


def test_st_path_reduced(tiny_finance):
    graph, id_sets = tiny_finance
    rows = st_path_experiment(graph, id_sets, hops=3, query_names=["ST1"])
    plans = {row["plan"] for row in rows}
    assert plans == {"GOpt-plan", "Neo4j-plan", "Alt-plan1", "Alt-plan2"}
    gopt_row = [r for r in rows if r["plan"] == "GOpt-plan"][0]
    assert gopt_row["join_position"].startswith("(")
