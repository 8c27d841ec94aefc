"""Helpers shared by the benchmark modules.

Each ``test_bench_*.py`` holds the experiment it runs (one entry point per
table or figure of the paper's evaluation section).  This module keeps what
several of them share: pytest-benchmark plumbing, the execution budgets, the
result-table formatting and summary statistics, and the two experiments that
two benchmark files each run (Fig. 9's LDBC comparison and the row vs
vectorized engine comparison).  Every experiment returns a list of row
dictionaries that :func:`format_table` renders.
"""

import contextlib
import gc
import math
from typing import Dict, List, Optional, Sequence

from repro.backend import Backend
from repro.gir.plan import LogicalPlan
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import GOptimizer, build_optimizer
from repro.service import GraphService
from repro.workloads import bi_queries, ic_queries
from repro.workloads.base import Query

#: execution budgets of every experiment's backend: generous enough for good
#: plans, small enough that pathological plans register as OT in seconds
BUDGETS = {"timeout_seconds": 20.0, "max_intermediate_results": 400_000}

#: value recorded for queries that exceeded the execution budget
OT = "OT"


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments already iterate over whole query suites, so a single
    timed round is representative and keeps the full benchmark run short.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@contextlib.contextmanager
def gc_paused():
    """Keep the cyclic collector out of a short timed comparison.

    The engine-ratio guards sum single samples of <= 40 ms; late in a long
    pytest process one full collection of the heap (cached graphs, GLogues)
    takes ~130 ms, and whichever engine it lands in loses the comparison.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- running queries ------------------------------------------------------------------

def runtime_or_ot(elapsed: float, timed_out: bool) -> object:
    """The value reported for one execution: elapsed seconds, or ``"OT"``."""
    return OT if timed_out else elapsed


def optimize_and_run(optimizer: GOptimizer, backend: Backend, plan: LogicalPlan) -> Dict[str, object]:
    """Optimize + execute one logical plan, returning runtime/work/rows."""
    report = optimizer.optimize(plan)
    result = backend.execute(report.physical_plan)
    return {
        "runtime": runtime_or_ot(result.metrics.elapsed_seconds, result.timed_out),
        "work": result.metrics.total_work,
        "rows": len(result),
        "timed_out": result.timed_out,
        "estimated_cost": report.estimated_cost,
        "optimization_time": report.optimization_time,
    }


def select_queries(query_set, names: Optional[Sequence[str]]) -> List[Query]:
    """The queries of ``query_set`` named in ``names`` (all of them for ``None``)."""
    queries = list(query_set)
    if names is None:
        return queries
    wanted = set(names)
    return [q for q in queries if q.name in wanted]


# -- reporting ------------------------------------------------------------------------

def speedup(baseline: Optional[float], improved: Optional[float]) -> Optional[float]:
    """Baseline/improved ratio; ``None`` when either side is missing or OT."""
    if baseline is None or improved is None or improved <= 0:
        return None
    return baseline / improved


def geometric_mean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean of positive values; ``None`` for an empty sequence."""
    positives = [v for v in values if v is not None and v > 0]
    if not positives:
        return None
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value >= 1000:
            return "%.0f" % value
        if value >= 1:
            return "%.2f" % value
        return "%.4f" % value
    return str(value)


def format_table(rows: List[Dict[str, object]], columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render rows as a fixed-width text table (the benchmarks print these)."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: len(col) for col in columns}
    rendered_rows = []
    for row in rows:
        rendered = {col: _format_value(row.get(col)) for col in columns}
        rendered_rows.append(rendered)
        for col in columns:
            widths[col] = max(widths[col], len(rendered[col]))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for rendered in rendered_rows:
        lines.append(" | ".join(rendered[col].ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def summarise_speedups(rows: List[Dict[str, object]], baseline_col: str, improved_col: str) -> Dict[str, object]:
    """Average/max speedup across rows, counting OT baselines as wins."""
    ratios = []
    ot_wins = 0
    for row in rows:
        baseline = row.get(baseline_col)
        improved = row.get(improved_col)
        if baseline == OT and improved != OT:
            ot_wins += 1
            continue
        if isinstance(baseline, (int, float)) and isinstance(improved, (int, float)):
            ratio = speedup(baseline, improved)
            if ratio is not None:
                ratios.append(ratio)
    return {
        "count": len(ratios),
        "geo_mean_speedup": geometric_mean(ratios),
        "max_speedup": max(ratios) if ratios else None,
        "baseline_ot_count": ot_wins,
    }


# -- Fig. 9(a)/(b): LDBC comprehensive experiments ------------------------------------

def ldbc_experiment(
    graph: PropertyGraph,
    backend_kind: str = "neo4j",
    query_names: Optional[Sequence[str]] = None,
    backend: Optional[Backend] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """IC/BI workloads: Neo4j-plan vs GOpt-plan on one backend (Fig. 9(a)/(b))."""
    backend = backend or GraphService.make_backend(backend_kind, graph, BUDGETS)
    glogue = glogue or Glogue.from_graph(graph)
    gopt = build_optimizer(graph, "gopt", profile=backend.profile(), glogue=glogue)
    neo4j_planner = build_optimizer(graph, "neo4j", glogue=glogue)
    rows = []
    for query in select_queries(list(ic_queries()) + list(bi_queries()), query_names):
        plan = query.logical_plan()
        neo4j_run = optimize_and_run(neo4j_planner, backend, plan)
        gopt_run = optimize_and_run(gopt, backend, plan)
        rows.append({
            "query": query.name,
            "neo4j_plan": neo4j_run["runtime"],
            "gopt_plan": gopt_run["runtime"],
            "neo4j_plan_work": neo4j_run["work"],
            "gopt_plan_work": gopt_run["work"],
        })
    return rows


# -- engine comparison: row vs vectorized interpreter ---------------------------------

def engine_comparison_experiment(
    graph: PropertyGraph,
    query_names: Optional[Sequence[str]] = None,
    backend_kind: str = "graphscope",
    backend: Optional[Backend] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """Row vs vectorized engine on identical physical plans (IC + BI workload).

    Each query is optimized once; the same plan is then interpreted by both
    engines -- the one batch pipeline at one row per batch and at the
    backend's ``batch_size`` -- so the measured difference is purely the
    per-batch interpreter overhead.  The
    ``rows_match`` column double-checks result equivalence inside the
    benchmark itself.
    """
    backend = backend or GraphService.make_backend(backend_kind, graph, BUDGETS)
    glogue = glogue or Glogue.from_graph(graph)
    optimizer = build_optimizer(graph, "gopt", profile=backend.profile(), glogue=glogue)
    rows = []
    for query in select_queries(list(ic_queries()) + list(bi_queries()), query_names):
        report = optimizer.optimize(query.logical_plan())
        row_result = backend.execute(report.physical_plan, engine="row")
        vec_result = backend.execute(report.physical_plan, engine="vectorized")
        row_seconds = row_result.metrics.elapsed_seconds
        vec_seconds = vec_result.metrics.elapsed_seconds
        rows.append({
            "query": query.name,
            "row_seconds": runtime_or_ot(row_seconds, row_result.timed_out),
            "vectorized_seconds": runtime_or_ot(vec_seconds, vec_result.timed_out),
            "speedup": (row_seconds / vec_seconds
                        if vec_seconds > 0 and not (row_result.timed_out or vec_result.timed_out)
                        else None),
            "rows_match": row_result.rows == vec_result.rows,
            "work": row_result.metrics.total_work,
        })
    return rows
