"""Fig. 10(a)/(b): data-scale experiments for IC and BI queries on GraphScope."""

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.datasets import ldbc_snb_graph
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import build_optimizer
from repro.service import GraphService
from repro.workloads import bi_queries, ic_queries

from bench_utils import (
    BUDGETS,
    engine_comparison_experiment,
    format_table,
    gc_paused,
    optimize_and_run,
    run_once,
    select_queries,
)

# a representative subset keeps the sweep under a minute per workload while
# still covering short interactive reads and heavier BI aggregations
IC_SUBSET = ("IC1", "IC2", "IC5", "IC9")
BI_SUBSET = ("BI2", "BI9", "BI12", "BI18")
SCALES = ("G30", "G100", "G300", "G1000")


def scaling_experiment(
    scales: Sequence[str] = SCALES,
    query_names: Optional[Sequence[str]] = None,
    workload: str = "IC",
    seed: int = 42,
    timeout_seconds: float = 30.0,
    engine: str = "row",
) -> List[Dict[str, object]]:
    """GOpt-on-GraphScope runtimes across dataset scales (Fig. 10(a)/(b)).

    ``engine`` selects the plan interpreter (``"row"`` or ``"vectorized"``).
    """
    queries = select_queries(ic_queries() if workload == "IC" else bi_queries(), query_names)
    rows = []
    for scale in scales:
        graph = ldbc_snb_graph(scale, seed=seed)
        backend = GraphService.make_backend("graphscope", graph, {
            **BUDGETS, "timeout_seconds": timeout_seconds, "engine": engine})
        glogue = Glogue.from_graph(graph)
        optimizer = build_optimizer(graph, "gopt", profile=backend.profile(), glogue=glogue)
        for query in queries:
            outcome = optimize_and_run(optimizer, backend, query.logical_plan())
            rows.append({
                "workload": workload,
                "query": query.name,
                "scale": scale,
                "engine": engine,
                "runtime": outcome["runtime"],
                "work": outcome["work"],
            })
    return rows


def _degradation(rows):
    """runtime(G1000) / runtime(G30) per query, ignoring OT entries."""
    per_query = defaultdict(dict)
    for row in rows:
        per_query[row["query"]][row["scale"]] = row["runtime"]
    ratios = {}
    for query, by_scale in per_query.items():
        small, large = by_scale.get("G30"), by_scale.get("G1000")
        if isinstance(small, float) and isinstance(large, float) and small > 0:
            ratios[query] = large / small
    return ratios


def test_bench_scaling_ic(benchmark, capsys):
    rows = run_once(benchmark, scaling_experiment,
                    scales=SCALES, query_names=IC_SUBSET, workload="IC")
    print()
    print(format_table(rows, title="Fig. 10(a): IC query runtimes across dataset scales"))
    print("G1000/G30 degradation per query:", _degradation(rows))
    assert {row["scale"] for row in rows} == set(SCALES)


def test_bench_scaling_bi(benchmark):
    rows = run_once(benchmark, scaling_experiment,
                    scales=SCALES, query_names=BI_SUBSET, workload="BI")
    print()
    print(format_table(rows, title="Fig. 10(b): BI query runtimes across dataset scales"))
    print("G1000/G30 degradation per query:", _degradation(rows))
    assert {row["scale"] for row in rows} == set(SCALES)


def test_bench_scaling_engines(benchmark, g30, g100):
    """Row vs vectorized interpreter on identical plans across two scales:
    the one batch pipeline at batch 1 against batch 1024.

    The vectorized engine must be no slower than the row engine in aggregate
    (small per-query jitter is absorbed by summing, plus a timer-noise
    allowance in the asserted bound) and must return identical rows for
    every query.
    """

    def compare_engines():
        rows = []
        for scale, (graph, glogue) in (("G30", g30), ("G100", g100)):
            for row in engine_comparison_experiment(
                    graph, query_names=IC_SUBSET + BI_SUBSET, glogue=glogue):
                rows.append({"scale": scale, **row})
        return rows

    with gc_paused():
        rows = run_once(benchmark, compare_engines)
    print()
    print(format_table(rows, title="Engine comparison: row vs vectorized runtimes"))
    assert all(row["rows_match"] for row in rows)
    # compare only queries both engines completed, so a one-sided OT cannot
    # skew the ratio by dropping a query from just one of the two sums
    completed = [r for r in rows if isinstance(r["row_seconds"], float)
                 and isinstance(r["vectorized_seconds"], float)]
    row_total = sum(r["row_seconds"] for r in completed)
    vec_total = sum(r["vectorized_seconds"] for r in completed)
    ratio = vec_total / row_total if row_total else 1.0
    print("total vectorized/row runtime ratio: %.3f" % ratio)
    # regression guard, not a tight bound: the measured ratio is 0.74-0.78
    # (GC paused: single <= 40 ms samples, one full collection would decide
    # the sum), and the slack absorbs timer noise on loaded CI runners
    assert ratio <= 1.25, "vectorized engine slower than row engine (ratio %.3f)" % ratio
