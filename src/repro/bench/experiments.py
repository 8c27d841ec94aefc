"""One entry point per experiment of the paper's evaluation section.

Every function returns a list of row dictionaries (one per query/plan/scale
combination) suitable for :func:`repro.bench.reporting.format_table`.  The
functions accept the data graph(s) so the test suite can exercise them at a
reduced scale while the ``benchmarks/`` targets run the full configuration.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.backend import Backend
from repro.bench.pipelines import build_optimizer
from repro.bench.reporting import OT, runtime_or_ot
from repro.datasets import finance_graph, ldbc_snb_graph
from repro.gir.operators import AggregateFunction
from repro.gir.plan import LogicalPlan
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.baselines import RandomPlanner
from repro.optimizer.cardinality import GlogueQuery
from repro.optimizer.cost_model import CostModel
from repro.optimizer.glogue import Glogue
from repro.optimizer.physical_plan import Aggregate, PhysicalPlan
from repro.optimizer.physical_spec import graphscope_profile
from repro.optimizer.planner import GOptimizer, OptimizerConfig
from repro.optimizer.search import PatternSearcher, build_pattern_physical
from repro.service import GraphService
from repro.workloads import bi_queries, ic_queries, qc_queries, qr_queries, qt_queries
from repro.workloads.base import Query
from repro.workloads.st_paths import (
    join_position,
    single_direction_plan,
    split_plan,
    st_path_pattern,
)

#: execution budgets of every experiment's backend: generous enough for good
#: plans, small enough that pathological plans register as OT in seconds
BUDGETS = {"timeout_seconds": 20.0, "max_intermediate_results": 400_000}


# -- shared helpers ----------------------------------------------------------------------

def _execute(optimizer: GOptimizer, backend: Backend, plan: LogicalPlan) -> Dict[str, object]:
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


def _select_queries(query_set, names: Optional[Sequence[str]]) -> List[Query]:
    queries = list(query_set)
    if names is None:
        return queries
    wanted = set(names)
    return [q for q in queries if q.name in wanted]


# -- Table 1 and Table 3 ------------------------------------------------------------------

def feature_matrix() -> List[Dict[str, object]]:
    """Table 1: capability matrix of the compared systems.

    The GOpt row is verified against this reproduction's actual capabilities
    (multi-language parsing, both optimization modes, worst-case-optimal
    expansion, high-order statistics and type inference).
    """
    from repro.lang import cypher_to_gir, gremlin_to_gir  # noqa: F401 - capability witness
    from repro.optimizer.physical_spec import ExpandIntersectSpec  # noqa: F401
    from repro.optimizer.type_inference import infer_types  # noqa: F401

    return [
        {"database": "Neo4j", "languages": "Cypher", "optimization": "RBO/CBO",
         "wco_join": False, "high_order_stats": False, "type_inference": False},
        {"database": "GraphScope", "languages": "Gremlin", "optimization": "RBO",
         "wco_join": True, "high_order_stats": False, "type_inference": False},
        {"database": "GLogS", "languages": "Gremlin", "optimization": "CBO",
         "wco_join": True, "high_order_stats": True, "type_inference": False},
        {"database": "GOpt (this repo)", "languages": "Cypher, Gremlin", "optimization": "RBO/CBO",
         "wco_join": True, "high_order_stats": True, "type_inference": True},
    ]


def dataset_statistics(scales: Sequence[str] = ("G30", "G100", "G300", "G1000"),
                       seed: int = 42) -> List[Dict[str, object]]:
    """Table 3: |V|, |E| and statistics-collection cost per generated dataset."""
    rows = []
    for scale in scales:
        start = time.perf_counter()
        graph = ldbc_snb_graph(scale, seed=seed)
        generation = time.perf_counter() - start
        start = time.perf_counter()
        glogue = Glogue.from_graph(graph)
        stats_time = time.perf_counter() - start
        rows.append({
            "graph": scale,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "generation_seconds": generation,
            "glogue_motifs": glogue.num_motifs,
            "glogue_seconds": stats_time,
        })
    return rows


# -- Fig. 8(a): heuristic rules --------------------------------------------------------------

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
    for query in _select_queries(qr_queries(), query_names):
        plan = query.logical_plan()
        with_opt = _execute(with_rules, backend, plan)
        without_opt = _execute(without_rules, backend, plan)
        rows.append({
            "query": query.name,
            "rule": query.tests,
            "with_opt": with_opt["runtime"],
            "without_opt": without_opt["runtime"],
            "with_opt_work": with_opt["work"],
            "without_opt_work": without_opt["work"],
        })
    return rows


# -- Fig. 8(b): type inference -----------------------------------------------------------------

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
    for query in _select_queries(qt_queries(), query_names):
        plan = query.logical_plan()
        enabled = _execute(with_inference, backend, plan)
        disabled = _execute(without_inference, backend, plan)
        rows.append({
            "query": query.name,
            "with_opt": enabled["runtime"],
            "without_opt": disabled["runtime"],
            "with_opt_work": enabled["work"],
            "without_opt_work": disabled["work"],
        })
    return rows


# -- Fig. 8(c): cost-based optimization -----------------------------------------------------------

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
    for query in _select_queries(qc_queries(), query_names):
        plan = query.logical_plan()
        rows.append({"query": query.name, "plan": "GOpt-Plan",
                     **_strip(_execute(gopt, backend, plan))})
        rows.append({"query": query.name, "plan": "GOpt-Neo-Plan",
                     **_strip(_execute(gopt_neo, backend, plan))})
        for index in range(num_random_plans):
            random_planner = RandomPlanner(gq, profile, seed=index + 1)
            random_optimizer = GOptimizer.for_graph(
                graph, profile=profile, glogue=glogue, pattern_planner=random_planner,
                config=OptimizerConfig(enable_type_inference=True))
            rows.append({"query": query.name, "plan": "Random-%d" % (index + 1),
                         **_strip(_execute(random_optimizer, backend, plan))})
    return rows


def _strip(outcome: Dict[str, object]) -> Dict[str, object]:
    return {"runtime": outcome["runtime"], "work": outcome["work"],
            "estimated_cost": outcome["estimated_cost"]}


# -- Fig. 8(d): cardinality estimation --------------------------------------------------------------

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
    for query in _select_queries(qc_queries(), query_names):
        plan = query.logical_plan()
        high = _execute(high_order, backend, plan)
        low = _execute(low_order, backend, plan)
        rows.append({
            "query": query.name,
            "high_order": high["runtime"],
            "low_order": low["runtime"],
            "high_order_work": high["work"],
            "low_order_work": low["work"],
        })
    return rows


# -- Fig. 8(e): optimizing Gremlin queries ------------------------------------------------------------

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
    if query_names is not None:
        queries = [q for q in queries if q.name in set(query_names)]
    rows = []
    for query in queries:
        plan = query.logical_plan(language="gremlin")
        gopt_run = _execute(gopt, backend, plan)
        gs_run = _execute(gs_native, backend, plan)
        rows.append({
            "query": query.name,
            "gopt_plan": gopt_run["runtime"],
            "gs_plan": gs_run["runtime"],
            "gopt_plan_work": gopt_run["work"],
            "gs_plan_work": gs_run["work"],
        })
    return rows


# -- Fig. 9(a)/(b): LDBC comprehensive experiments -----------------------------------------------------

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
    queries = list(ic_queries()) + list(bi_queries())
    if query_names is not None:
        wanted = set(query_names)
        queries = [q for q in queries if q.name in wanted]
    rows = []
    for query in queries:
        plan = query.logical_plan()
        neo4j_run = _execute(neo4j_planner, backend, plan)
        gopt_run = _execute(gopt, backend, plan)
        rows.append({
            "query": query.name,
            "neo4j_plan": neo4j_run["runtime"],
            "gopt_plan": gopt_run["runtime"],
            "neo4j_plan_work": neo4j_run["work"],
            "gopt_plan_work": gopt_run["work"],
        })
    return rows


# -- Fig. 10: data-scale experiments -------------------------------------------------------------------

def scaling_experiment(
    scales: Sequence[str] = ("G30", "G100", "G300", "G1000"),
    query_names: Optional[Sequence[str]] = None,
    workload: str = "IC",
    seed: int = 42,
    timeout_seconds: float = 30.0,
    engine: str = "row",
) -> List[Dict[str, object]]:
    """GOpt-on-GraphScope runtimes across dataset scales (Fig. 10(a)/(b)).

    ``engine`` selects the plan interpreter (``"row"`` or ``"vectorized"``);
    the engine-comparison benchmark sweeps both on the same plans.
    """
    queries = _select_queries(ic_queries() if workload == "IC" else bi_queries(), query_names)
    rows = []
    for scale in scales:
        graph = ldbc_snb_graph(scale, seed=seed)
        backend = GraphService.make_backend("graphscope", graph, {
            **BUDGETS, "timeout_seconds": timeout_seconds, "engine": engine})
        glogue = Glogue.from_graph(graph)
        optimizer = build_optimizer(graph, "gopt", profile=backend.profile(), glogue=glogue)
        for query in queries:
            outcome = _execute(optimizer, backend, query.logical_plan())
            rows.append({
                "workload": workload,
                "query": query.name,
                "scale": scale,
                "engine": engine,
                "runtime": outcome["runtime"],
                "work": outcome["work"],
            })
    return rows


# -- engine comparison: row vs vectorized interpreter -------------------------------------------------

def engine_comparison_experiment(
    graph: PropertyGraph,
    query_names: Optional[Sequence[str]] = None,
    backend_kind: str = "graphscope",
    backend: Optional[Backend] = None,
    glogue: Optional[Glogue] = None,
) -> List[Dict[str, object]]:
    """Row vs vectorized engine on identical physical plans (IC + BI workload).

    Each query is optimized once; the same plan is then interpreted by both
    engines, so the measured difference is purely interpreter overhead.  The
    ``rows_match`` column double-checks result equivalence inside the
    benchmark itself.
    """
    backend = backend or GraphService.make_backend(backend_kind, graph, BUDGETS)
    glogue = glogue or Glogue.from_graph(graph)
    optimizer = build_optimizer(graph, "gopt", profile=backend.profile(), glogue=glogue)
    queries = list(ic_queries()) + list(bi_queries())
    if query_names is not None:
        wanted = set(query_names)
        queries = [q for q in queries if q.name in wanted]
    rows = []
    for query in queries:
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


# -- concurrent serving: sessions + prepared statements under load -----------------------------------

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
    from repro.service import ConcurrentExecutor, QueryRequest

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


# -- Fig. 11: s-t path case study --------------------------------------------------------------------

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
    from repro.gir.operators import AggregateCall

    op = build_pattern_physical(pattern_plan, profile)
    count = Aggregate(
        keys=(),
        aggregations=(AggregateCall(AggregateFunction.COUNT, None, "paths"),),
        mode=profile.aggregate_mode,
        inputs=(op,),
    )
    return PhysicalPlan(count)


# -- ablation: search-strategy variations (DESIGN.md section 5) -----------------------------------------

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
    for query in _select_queries(qc_queries(), query_names):
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
