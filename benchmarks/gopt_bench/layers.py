"""The traced pass: per-layer metrics measured from outside the program.

Single-threaded and in-process (for the HTTP workloads the server runs in a
thread of this process so ``ServerApp.handle_request`` can be called directly
on the same service).  Each op of a fixed list is replayed stage by stage
through the *public* entry points of the layers on the workload's own path,
one span ``{name, op_id, parent, start, end}`` per call; the metrics of layers
the workload never crosses read 0.  Spans inside the program are a later
issue (ROADMAP item 5).

A span flagged ``replay`` ran after its parent ended: it repeats, on its own,
work the parent did inside one opaque call, so the parent's self time is its
duration minus its children's durations, not an interval subtraction.  A
span flagged ``probe`` measures a layer on an op whose path does not cross
it (e.g. ``Session.prepare`` on a parameterless query); probes feed the layer
table but not the stage-sum reconciliation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional

import harness
import ops as opsmod
from ops import Op, Workload

from repro.backend.base import available_engines
from repro.client import GraphClient
from repro.gir.expressions import ExpressionEvaluator, parse_expression
from repro.optimizer.glogue import Glogue
from repro.optimizer.planner import GOptimizer, OptimizerConfig
from repro.optimizer.rules import DEFAULT_RULES, HepPlanner
from repro.optimizer.search import PatternSearcher
from repro.optimizer.type_inference import infer_types
from repro.server.wire import QueryResultWire
from repro.service import GraphService
from repro.service.admission import AdmissionController

OUT_DIR = os.path.join(harness.HERE, "out")

#: the span that is the op as its user feels it, and the independently
#: measured stages whose sum must reconcile with it, per workload
END_TO_END_STAGE = {
    "serve_http_mix": ("client.roundtrip",
                       ("client.null_roundtrip", "server.app", "client.decode")),
    "serve_inproc_mix": ("service.run",
                         ("service.prepare", "plan_cache.lookup", "backend.exec")),
    "analytic_exec": ("service.run",
                      ("service.prepare", "plan_cache.lookup", "backend.exec")),
    "cold_plan": ("compile",
                  ("lang.cypher_parse", "lang.gremlin_parse", "lang.plan_factory",
                   "optimizer.rbo",
                   "optimizer.type_inference", "optimizer.cbo_search")),
    "stream_cursor": ("client.cursor_op",
                      ("client.cursor_open", "client.fetch_roundtrip",
                       "client.cursor_close")),
}

#: user-order plans can be orders of magnitude worse; a deterministic work cap
#: (not a wall-clock one) keeps the plan-quality ratio exact and the pass short
USER_ORDER_WORK_CAP = 400_000

_TRACE_HEADERS = {"X-Tenant": "trace", "Content-Type": "application/json"}


class Tracer:
    """Spans kept in memory and written out when the pass ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, op_id: str, parent: Optional[int] = None,
             **flags: bool):
        record = {"name": name, "op_id": op_id, "parent": parent,
                  "start": time.perf_counter(), "end": None, **flags}
        self.spans.append(record)
        index = len(self.spans) - 1
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()

    def add(self, name: str, op_id: str, parent: Optional[int], start: float,
            end: float) -> None:
        self.spans.append({"name": name, "op_id": op_id, "parent": parent,
                           "start": start, "end": end})

    def durations(self, name: str, include_probes: bool = True) -> List[float]:
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name
                and (include_probes or not span.get("probe"))]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}) + "\n")


class TracedPass:
    """State of one traced run: the tracer, the service and what was counted."""

    def __init__(self, workload: Workload, quick: bool):
        self.workload = workload
        self.quick = quick
        self.http = workload.transport == "http"
        self.tracer = Tracer()
        self.counts: Dict[str, List[float]] = {}
        self.failures: Dict[str, int] = {}
        self.attempted = 0
        self.ops = opsmod.trace_ops(workload, quick)
        #: what ``replay_serve`` replays: the workload's ops, or for
        #: stream_cursor its query run once without a cursor
        self.serve_ops = self.ops
        if workload.name == "stream_cursor":
            self.serve_ops = [dataclasses.replace(self.ops[0], kind="two_hop",
                                                  mode="run")]

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    # -- set-up, one span per layer entry point -----------------------------------
    def set_up(self) -> None:
        span = self.tracer.span
        with span("datasets.build", "setup"):
            self.graph = harness.build_graph(self.workload, self.quick)
        self.backend = GraphService.make_backend("graphscope", self.graph, {})
        config = OptimizerConfig()
        with span("optimizer.glogue_build", "setup"):
            glogue = Glogue.from_graph(
                self.graph, max_pattern_vertices=config.max_motif_vertices)
        optimizer = GOptimizer.for_graph(
            self.graph, profile=self.backend.profile(), config=config, glogue=glogue)
        self.service = GraphService(
            self.graph, backend=self.backend, optimizer=optimizer,
            plan_cache_size=128 if self.workload.plan_cache else None)
        self.user_order = GOptimizer(
            optimizer.glogue_query, profile=optimizer.profile,
            config=OptimizerConfig(enable_cbo=False))
        self.session = self.service.session()
        self.server = None
        if self.http:
            with span("server.start", "setup"):
                self.server = harness.start_server(self.service, 2)
            self.app = self.server.app
            self.client = GraphClient(self.server.host, self.server.port,
                                      tenant="trace")
            self.remote_session = self.client.session()

    def tear_down(self) -> None:
        if self.server is not None:
            self.client.close()
            self.server.stop()

    # -- the op as its user issues it (also the untraced baseline) -----------------
    def run_end_to_end(self, op: Op) -> None:
        name = self.workload.name
        if name == "serve_http_mix":
            self.client.run(op.text, op.language, op.parameters)
        elif name == "cold_plan":
            self.service.optimizer.optimize(self._parse(op))
        elif name == "stream_cursor":
            self._cursor_op(op)
        else:
            self.session.run(op.text, op.language, op.parameters).fetch_all()

    def _parse(self, op: Op):
        if op.plan_factory is not None:
            return op.plan_factory()
        return self.service.parse(op.text, op.language, op.parameters)

    def _cursor_op(self, op: Op) -> int:
        cursor = self.remote_session.cursor(op.text, op.language, op.parameters,
                                            fetch_size=opsmod.FETCH_SIZE)
        if op.mode == "early":
            rows = len(cursor.fetch_many(opsmod.EARLY_ROWS))
            cursor.close()
            return rows
        return sum(1 for _ in cursor)

    # -- replays ----------------------------------------------------------------------
    def replay_serve(self, op: Op, op_id: str) -> None:
        """prepare -> plan-cache lookup -> kernels for one op, inside
        socket -> server -> wire where the workload has a server."""
        span = self.tracer.span
        with span("op", op_id) as root:
            app = root
            if self.http:
                with span("client.roundtrip", op_id, root) as roundtrip:
                    self.client.run(op.text, op.language, op.parameters)
                with span("client.null_roundtrip", op_id, roundtrip, replay=True):
                    self.client.healthz()
                body = {"query": op.text, "language": op.language}
                if op.parameters:
                    body["parameters"] = op.parameters
                payload = json.dumps(body).encode("utf-8")
                with span("server.app", op_id, roundtrip, replay=True) as app:
                    response = self.app.handle_request(
                        "POST", "/v1/queries", {}, _TRACE_HEADERS, payload)
                with span("client.decode", op_id, roundtrip, replay=True):
                    QueryResultWire.from_dict(
                        json.loads(response.body.decode("utf-8")))

            with span("service.run", op_id, app, replay=self.http) as run:
                rows = self.session.run(op.text, op.language,
                                        op.parameters).fetch_all()
            on_path = bool(op.parameters)   # Session.run prepares only with $params
            with span("service.prepare", op_id, run, replay=True,
                      probe=not on_path):
                prepared = self.session.prepare(op.text, op.language)
            with span("plan_cache.lookup", op_id, run, replay=True):
                if on_path:
                    report = prepared.report(op.parameters)
                else:
                    report = self.service.optimize(
                        op.text, op.language, None, engine=self.session.engine)
            bound = op.parameters if on_path and prepared.deferred else None
            with span("backend.exec", op_id, run, replay=True) as execute:
                started = time.perf_counter()
                stream = self.backend.execute_streaming(report.physical_plan,
                                                        parameters=bound)
                first = next(stream, None)
                first_at = time.perf_counter()
                streamed = ([] if first is None else [first]) + list(stream)
            self.tracer.add("backend.first_row", op_id, execute, started, first_at)
            metrics = stream.metrics()
            if self.http:
                with span("server.wire_encode", op_id, app, replay=True):
                    encoded = json.dumps(QueryResultWire.from_rows(
                        op.text, streamed, metrics=metrics,
                        peak_held_rows=stream.peak_held_rows).to_dict())
                self.count("wire_bytes", len(encoded.encode("utf-8")))

        out_rows = max(len(rows), 1)
        self.count("rows", len(rows))
        for counter in ("vertices_scanned", "edges_traversed",
                        "intermediate_results", "cells_produced",
                        "tuples_shuffled", "operators_executed"):
            self.count("backend." + counter, getattr(metrics, counter))
        self.count("backend.examined_per_row",
                   (metrics.vertices_scanned + metrics.edges_traversed) / out_rows)
        self.count("examined_per_row:" + op.kind,
                   (metrics.vertices_scanned + metrics.edges_traversed) / out_rows)
        self.count("total_work", metrics.total_work)
        self.count("backend.peak_held_rows", stream.peak_held_rows)
        self.count("backend.timed_out", 1 if metrics.timed_out else 0)

    def replay_compile(self, op: Op, op_id: str) -> None:
        """parse -> RBO -> type inference -> CBO search -> lowering, for one op."""
        span = self.tracer.span
        optimizer = self.service.optimizer
        with span("compile", op_id) as root:
            parse = ("lang.plan_factory" if op.plan_factory is not None
                     else "lang.%s_parse" % op.language)
            with span(parse, op_id, root):
                plan = self._parse(op)
            with span("optimizer.optimize", op_id, root) as optimize:
                report = optimizer.optimize(plan)
        with span("optimizer.rbo", op_id, optimize, replay=True):
            HepPlanner(DEFAULT_RULES).optimize(plan)
        schema = optimizer.glogue_query.schema
        for match in report.optimized_logical_plan.patterns():
            with span("optimizer.type_inference", op_id, optimize, replay=True):
                infer_types(match.pattern, schema)
        for info in report.pattern_searches:
            if info.type_inference is not None and not info.type_inference.valid:
                continue   # the planner emitted an empty scan without searching
            with span("optimizer.cbo_search", op_id, optimize, replay=True):
                PatternSearcher(optimizer.glogue_query,
                                optimizer.profile).optimize(info.pattern)
        self.count("lang.plan_nodes", plan.size())
        self.count("optimizer.rules_applied", len(report.applied_rules))
        self.count("optimizer.estimated_cost", report.estimated_cost)

    def replay_engines(self, op: Op, op_id: str) -> None:
        """One materializing execution per engine, and the user-order plan's work."""
        plan = self._parse(op)
        report = self.service.optimizer.optimize(plan)
        for engine in available_engines():
            with self.tracer.span("backend.exec." + engine, op_id):
                result = self.backend.execute(report.physical_plan, engine=engine)
        user_plan = self.user_order.optimize(plan).physical_plan
        user = self.backend.execute(user_plan,
                                    max_intermediate_results=USER_ORDER_WORK_CAP)
        if user.timed_out or result.metrics.total_work == 0:
            self.count("user_order_skipped", 1)
        else:
            self.count("work_vs_user_order",
                       user.metrics.total_work / result.metrics.total_work)

    def replay_cursor(self, op: Op, op_id: str) -> None:
        """A server-held cursor: the op, then each of its HTTP calls on its own,
        then the server's share of each fetch without the socket."""
        span = self.tracer.span
        early = op.mode == "early"
        body = {"session_id": self.remote_session.session_id, "query": op.text,
                "language": op.language, "cursor": True}
        fetch_path = "/v1/cursors/%s/fetch"
        with span("client.cursor_op", op_id) as root:
            rows = self._cursor_op(op)
        if not early:
            self.count("cursor_rows", rows)
            self.count("cursor_seconds", self.tracer.durations("client.cursor_op")[-1])

        with span("client.cursor_open", op_id, root, replay=True):
            cursor_id = self.client.call("POST", "/v1/queries", body)["cursor_id"]
        while True:
            with span("client.fetch_roundtrip", op_id, root, replay=True):
                chunk = self.client.call("GET", (fetch_path % cursor_id)
                                         + "?n=%d" % opsmod.FETCH_SIZE)
            if chunk["exhausted"] or early:
                break
        if early and not chunk["exhausted"]:
            with span("client.cursor_close", op_id, root, replay=True):
                self.client.call("DELETE", "/v1/cursors/%s" % cursor_id)

        opened = self.app.handle_request("POST", "/v1/queries", {}, _TRACE_HEADERS,
                                         json.dumps(body).encode("utf-8"))
        cursor_id = json.loads(opened.body)["cursor_id"]
        while True:
            with span("server.fetch_chunk", op_id, root, replay=True):
                response = self.app.handle_request(
                    "GET", fetch_path % cursor_id, {"n": str(opsmod.FETCH_SIZE)},
                    _TRACE_HEADERS, b"")
            if json.loads(response.body)["exhausted"] or early:
                break
        if early:
            self.app.handle_request("DELETE", "/v1/cursors/%s" % cursor_id, {},
                                    _TRACE_HEADERS, b"")

    # -- micro-probes -------------------------------------------------------------------
    def probe_graph(self) -> Dict[str, float]:
        """Storage cost alone: what a scan or an expansion costs with no
        predicate interpretation on top."""
        graph = self.graph
        started = time.perf_counter()
        vertices = 0
        for vertex in graph.vertices_of_type("Person"):
            graph.vertex_property(vertex, "id")
            vertices += 1
        scan = time.perf_counter() - started
        started = time.perf_counter()
        edges = 0
        for vertex in graph.vertices_of_type("Person"):
            edges += len(graph.out_edges(vertex))
        expand = time.perf_counter() - started
        return {"graph.scan_ns_per_vertex": scan / vertices * 1e9,
                "graph.expand_ns_per_edge": expand / max(edges, 1) * 1e9}

    @staticmethod
    def probe_expression(iterations: int = 20_000) -> float:
        evaluator = ExpressionEvaluator(
            resolve_tag=lambda tag, binding: binding[tag],
            resolve_property=lambda tag, key, binding: binding[tag][key])
        expr = parse_expression("p.id = 7 AND p.age > 3")
        binding = {"p": {"id": 7, "age": 30}}
        started = time.perf_counter()
        for _ in range(iterations):
            evaluator.evaluate(expr, binding)
        return (time.perf_counter() - started) / iterations * 1e6

    @staticmethod
    def probe_admission(iterations: int = 5_000) -> float:
        controller = AdmissionController(max_concurrent=2, max_queue_depth=8)
        started = time.perf_counter()
        for _ in range(iterations):
            ticket = controller.admit("probe")
            controller.begin(ticket)
            controller.finish(ticket)
        return (time.perf_counter() - started) / iterations * 1e3

    # -- the pass -------------------------------------------------------------------------
    def guarded(self, replay, ops: Iterable[Op], prefix: str) -> None:
        for index, op in enumerate(ops):
            self.attempted += 1
            try:
                replay(op, "%s:%s#%d" % (prefix, op.kind, index))
            except Exception as exc:  # noqa: BLE001 - counted by type
                name = type(exc).__name__
                self.failures[name] = self.failures.get(name, 0) + 1

    def run(self) -> Dict[str, float]:
        workload = self.workload
        # the social mixes' ops take ~1 ms in process, 45 ms over HTTP: several
        # passes steady their means
        passes = 1
        if workload.graph == "social" and not self.quick:
            passes = 5 if self.http else 25
        stage, parts = END_TO_END_STAGE[workload.name]
        on_backend_path = workload.name != "cold_plan"

        if workload.plan_cache:
            # warm the plan cache like the untraced run
            for op in self.serve_ops:
                self.session.run(op.text, op.language, op.parameters).fetch_all()
        untraced = []
        for op in self.ops * passes:
            started = time.perf_counter()
            self.run_end_to_end(op)
            untraced.append(time.perf_counter() - started)

        # only the layers on the workload's own path are replayed
        cache_before = self.service.cache_info()
        if on_backend_path:
            self.guarded(self.replay_serve, self.serve_ops * passes, "serve")
        else:
            self.guarded(self.replay_compile, self.ops, "compile")
        cache_after = self.service.cache_info()
        if workload.name == "analytic_exec":
            self.guarded(self.replay_engines,
                         {op.kind: op for op in self.ops}.values(), "engines")
        if workload.name == "stream_cursor":
            self.guarded(self.replay_cursor, self.ops, "cursor")

        tracer = self.tracer

        def total(name: str, include_probes: bool = True) -> float:
            return sum(tracer.durations(name, include_probes))

        def mean_ms(name: str) -> float:
            values = tracer.durations(name)
            return statistics.fmean(values) * 1e3 if values else 0.0

        def per_op_ms(name: str, ops_name: str) -> float:
            """Total of a stage that runs 0..n times per op, per op of ``ops_name``."""
            return total(name) / max(len(tracer.durations(ops_name)), 1) * 1e3

        def mean_count(name: str) -> float:
            values = self.counts.get(name)
            return statistics.fmean(values) if values else 0.0

        lookups = ((cache_after.hits + cache_after.misses)
                   - (cache_before.hits + cache_before.misses))
        hits = cache_after.hits - cache_before.hits
        traced = tracer.durations(stage)
        stage_total = total(stage)
        parts_total = sum(total(part, include_probes=False) for part in parts)
        ratios = self.counts.get("work_vs_user_order", [])
        exec_total = total("backend.exec")
        optimize_children = (per_op_ms("optimizer.rbo", "optimizer.optimize")
                             + per_op_ms("optimizer.type_inference",
                                         "optimizer.optimize")
                             + per_op_ms("optimizer.cbo_search",
                                         "optimizer.optimize"))
        run_children = (total("service.prepare", include_probes=False)
                        + total("plan_cache.lookup") + exec_total)

        metrics = {
            "datasets.build_s": total("datasets.build"),
            "optimizer.glogue_build_s": total("optimizer.glogue_build"),
            "server.start_s": total("server.start"),
            "client.roundtrip_ms": mean_ms("client.roundtrip"),
            "client.null_roundtrip_ms": mean_ms("client.null_roundtrip"),
            "client.decode_ms": mean_ms("client.decode"),
            "client.rows_per_s": (sum(self.counts.get("cursor_rows", [0]))
                                  / max(sum(self.counts.get("cursor_seconds", [0])),
                                        1e-9)),
            "server.app_ms": mean_ms("server.app"),
            "server.http_overhead_ms": (mean_ms("client.roundtrip")
                                        - mean_ms("server.app")),
            "server.app_self_ms": (mean_ms("server.app") - mean_ms("service.run")
                                   if self.http else 0.0),
            "server.wire_encode_ms": mean_ms("server.wire_encode"),
            "server.wire_bytes_per_row": (sum(self.counts.get("wire_bytes", [0]))
                                          / max(sum(self.counts.get("rows", [0])), 1)),
            "server.fetch_chunk_ms": mean_ms("server.fetch_chunk"),
            "service.run_ms": mean_ms("service.run"),
            "service.prepare_ms": mean_ms("service.prepare"),
            "service.admission_ms": self.probe_admission() if self.http else 0.0,
            "service.admission_rejected": (
                float(self.app.admission.stats().rejected) if self.http else 0.0),
            "service.self_ms": ((total("service.run") - run_children)
                                / max(len(tracer.durations("service.run")), 1) * 1e3),
            "plan_cache.lookup_ms": mean_ms("plan_cache.lookup"),
            "plan_cache.hit_rate": hits / lookups if lookups else 0.0,
            "plan_cache.evictions": float(cache_after.evictions
                                          - cache_before.evictions),
            "lang.cypher_parse_ms": mean_ms("lang.cypher_parse"),
            "lang.gremlin_parse_ms": mean_ms("lang.gremlin_parse"),
            "lang.plan_nodes": mean_count("lang.plan_nodes"),
            "optimizer.optimize_ms": mean_ms("optimizer.optimize"),
            "optimizer.rbo_ms": mean_ms("optimizer.rbo"),
            "optimizer.type_inference_ms": per_op_ms("optimizer.type_inference",
                                                     "optimizer.optimize"),
            "optimizer.cbo_search_ms": per_op_ms("optimizer.cbo_search",
                                                 "optimizer.optimize"),
            "optimizer.lowering_self_ms": (mean_ms("optimizer.optimize")
                                           - optimize_children),
            "optimizer.rules_applied": mean_count("optimizer.rules_applied"),
            "optimizer.estimated_cost": mean_count("optimizer.estimated_cost"),
            "optimizer.work_vs_user_order_geomean": (
                math.exp(statistics.fmean(math.log(ratio) for ratio in ratios))
                if ratios else 0.0),
            "backend.exec_ms": mean_ms("backend.exec"),
            "backend.first_row_ms": mean_ms("backend.first_row"),
            "backend.us_per_work_unit": (exec_total * 1e6
                                         / max(sum(self.counts.get("total_work",
                                                                   [0])), 1)),
            "backend.peak_held_rows": float(max(
                self.counts.get("backend.peak_held_rows", [0]))),
            "backend.timed_out": float(sum(self.counts.get("backend.timed_out",
                                                           [0]))),
            "gir.expr_eval_us": (self.probe_expression() if on_backend_path
                                 else 0.0),
            "bench.trace_overhead_share": (statistics.fmean(traced)
                                           / statistics.fmean(untraced) - 1.0),
            "bench.stage_residual_share": 1.0 - parts_total / stage_total,
        }
        for counter in ("vertices_scanned", "edges_traversed",
                        "intermediate_results", "cells_produced", "tuples_shuffled",
                        "operators_executed", "examined_per_row"):
            metrics["backend." + counter] = mean_count("backend." + counter)
        for engine in available_engines():
            metrics["backend.exec_ms." + engine] = mean_ms("backend.exec." + engine)
        metrics.update(self.probe_graph() if on_backend_path else
                       {"graph.scan_ns_per_vertex": 0.0,
                        "graph.expand_ns_per_edge": 0.0})
        return metrics

    def detail(self) -> Dict[str, object]:
        """Per-kind readings the re-anchor table is reproduced from."""
        examined = {name.split(":", 1)[1]: statistics.fmean(values)
                    for name, values in sorted(self.counts.items())
                    if name.startswith("examined_per_row:")}
        compile_ms: Dict[str, Dict[str, float]] = {}
        for span in self.tracer.spans:
            if span["op_id"].startswith("compile:") and span["name"] in (
                    "optimizer.optimize", "optimizer.cbo_search"):
                kind = span["op_id"].split(":", 1)[1].rsplit("#", 1)[0]
                entry = compile_ms.setdefault(kind, {})
                entry[span["name"]] = (entry.get(span["name"], 0.0)
                                       + (span["end"] - span["start"]) * 1e3)
        slowest = sorted(compile_ms.items(),
                         key=lambda item: -item[1].get("optimizer.optimize", 0.0))[:5]
        return {"examined_per_row_by_kind": examined,
                "slowest_compiles_ms": dict(slowest),
                "user_order_plans_skipped": int(sum(
                    self.counts.get("user_order_skipped", [0])))}


def run_traced(workload: Workload, quick: bool) -> Dict[str, object]:
    traced = TracedPass(workload, quick)
    traced.set_up()
    try:
        values = traced.run()
    finally:
        traced.tear_down()
    trace_path = os.path.join(OUT_DIR, "trace-%s.jsonl" % workload.name)
    traced.tracer.write(trace_path)
    stage, parts = END_TO_END_STAGE[workload.name]
    residual = values["bench.stage_residual_share"]
    failed = sum(traced.failures.values())
    return {
        "workload": workload.name,
        "trace": 1,
        "graph": harness.graph_name(workload, quick),
        "client_threads": 1,
        "correct": failed == 0,
        "attempted": traced.attempted,
        "failed": failed,
        "failed_share": failed / max(traced.attempted, 1),
        "failures": traced.failures,
        "values": values,
        "reconciliation": {"stage": stage, "parts": list(parts),
                           "residual_share": residual,
                           "within_10_percent": abs(residual) <= 0.10},
        "detail": traced.detail(),
        "spans": len(traced.tracer.spans),
        "trace_file": os.path.relpath(trace_path, harness.HERE),
    }
