"""Ablations of the plan-search design choices called out in DESIGN.md."""

import time
from typing import Dict, List, Optional, Sequence

import pytest

from repro.graph.property_graph import PropertyGraph
from repro.optimizer.cardinality import GlogueQuery
from repro.optimizer.glogue import Glogue
from repro.optimizer.physical_spec import graphscope_profile
from repro.optimizer.planner import build_optimizer
from repro.optimizer.search import PatternSearcher
from repro.workloads import qc_queries

from bench_utils import format_table, run_once, select_queries


def search_ablation_experiment(
    graph: PropertyGraph,
    query_names: Optional[Sequence[str]] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """Effect of branch-and-bound pruning / greedy bound / hybrid joins on search effort."""
    glogue = glogue or Glogue.from_graph(graph)
    gq = GlogueQuery(glogue)
    profile = graphscope_profile()
    variants = {
        "full": PatternSearcher(gq, profile),
        "no-pruning": PatternSearcher(gq, profile, enable_pruning=False),
        "no-greedy-bound": PatternSearcher(gq, profile, enable_greedy_bound=False),
        "no-join": PatternSearcher(gq, profile, enable_join=False),
    }
    gopt = build_optimizer(graph, "gopt", profile=profile, glogue=glogue)
    rows = []
    for query in select_queries(qc_queries(), query_names):
        plan = query.logical_plan()
        report = gopt.optimize(plan)
        if not report.pattern_searches:
            continue
        pattern = report.pattern_searches[0].pattern
        for variant_name, searcher in variants.items():
            start = time.perf_counter()
            result = searcher.optimize(pattern)
            elapsed = time.perf_counter() - start
            rows.append({
                "query": query.name,
                "variant": variant_name,
                "plan_cost": result.cost,
                "states_explored": result.states_explored,
                "candidates_pruned": result.candidates_pruned,
                "search_seconds": elapsed,
            })
    return rows


def test_bench_search_ablation(benchmark, g30):
    graph, glogue = g30
    rows = run_once(benchmark, search_ablation_experiment, graph, glogue=glogue)
    print()
    print(format_table(rows, title="Ablation: plan-search variants (pruning, greedy bound, hybrid join)"))
    by_key = {(row["query"], row["variant"]): row for row in rows}
    for (query, variant), row in by_key.items():
        if variant == "full":
            exhaustive = by_key.get((query, "no-pruning"))
            if exhaustive:
                # pruning keeps plan quality while exploring no more states
                assert row["plan_cost"] <= exhaustive["plan_cost"] * 1.001
                assert row["states_explored"] <= exhaustive["states_explored"]


def test_search_ablation_reduced(tiny_ldbc):
    graph, glogue = tiny_ldbc
    rows = search_ablation_experiment(graph, query_names=["QC1a"], glogue=glogue)
    variants = {row["variant"] for row in rows}
    assert {"full", "no-pruning", "no-greedy-bound", "no-join"} <= variants
    by_variant = {row["variant"]: row for row in rows}
    assert by_variant["full"]["plan_cost"] == pytest.approx(
        by_variant["no-pruning"]["plan_cost"])
