"""The untraced run of one workload: set-up, check pass, warm-up, timed window.

Load is closed-loop from this one process: every client sends its next op
only after the previous one completed.  End-to-end numbers are taken here
with tracing off; ``layers.py`` is the separate traced pass.
"""

from __future__ import annotations

import collections
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import digests
import ops as opsmod
from ops import Op, Workload

from repro.backend.base import ExecutionMetrics, available_engines
from repro.client import GraphClient
from repro.datasets import ldbc_snb_graph, social_commerce_graph
from repro.errors import ServiceOverloadedError
from repro.server import GraphHTTPServer
from repro.service import GraphService

HERE = os.path.dirname(os.path.abspath(__file__))

#: a 429 is retried (honoring Retry-After) this many times, then it is a failure
MAX_OVERLOAD_RETRIES = 3

#: seeded ops of the serve mixes verified by cross-path agreement, because
#: their parameter values are not among the checked-in digests
CROSS_PATH_OPS = 16

#: slices of a window that does not run whole cycles; throughput and p50 are
#: medians over slices, so a burst of machine noise moves one slice
SLICES = 5


def client_threads(workload: Workload) -> int:
    if not workload.multi_client:
        return 1
    return min(os.cpu_count() or 1, opsmod.MAX_CLIENT_THREADS)


def graph_name(workload: Workload, quick: bool) -> str:
    if workload.graph == "social":
        return "social%d" % opsmod.SOCIAL_PERSONS
    return opsmod.QUICK_SCALE if quick else opsmod.FULL_SCALE


def build_graph(workload: Workload, quick: bool):
    """Dataset seeds stay fixed so a graph name keeps meaning one graph."""
    if workload.graph == "social":
        return social_commerce_graph(num_persons=opsmod.SOCIAL_PERSONS,
                                     num_products=80, num_places=15, seed=9)
    return ldbc_snb_graph(graph_name(workload, quick))


def build_service(workload: Workload, graph) -> GraphService:
    return GraphService(graph, backend="graphscope",
                        plan_cache_size=128 if workload.plan_cache else None)


def start_server(service: GraphService, threads: int) -> GraphHTTPServer:
    """Start serving and return once ``/healthz`` answers 200."""
    server = GraphHTTPServer(service, max_concurrent=max(threads, 2),
                             max_queue_depth=512, per_tenant_limit=None).start()
    with GraphClient(server.host, server.port) as probe:
        probe.healthz()
    return server


def peak_rss_mb() -> float:
    """``VmHWM`` of this process (the one hosting the GraphService)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def total_work(metrics: Dict[str, object]) -> int:
    """``ExecutionMetrics.total_work`` from the counters' dict form (what the
    wire carries), by the program's own formula."""
    return ExecutionMetrics(**metrics).total_work


# -- executing one op -----------------------------------------------------------------

@dataclass
class Outcome:
    rows: Optional[List[dict]] = None
    first_s: Optional[float] = None        # op start -> first row, cursor ops only
    metrics: Optional[Dict[str, object]] = None
    report: object = None                  # compile ops: the OptimizationReport


class InprocTarget:
    """Ops through one in-process ``Session`` (no server)."""

    def __init__(self, service: GraphService, engine: Optional[str] = None):
        self.service = service
        self.session = service.session(engine=engine)
        self.retries = 0

    def run(self, op: Op, want_metrics: bool = False) -> Outcome:
        if op.mode == "compile":
            plan = (op.plan_factory() if op.plan_factory is not None
                    else self.service.parse(op.text, op.language, op.parameters))
            return Outcome(report=self.service.optimizer.optimize(plan))
        query = op.plan_factory() if op.plan_factory is not None else op.text
        cursor = self.session.run(query, op.language, op.parameters)
        if op.mode == "early":
            rows = cursor.fetch_many(opsmod.EARLY_ROWS)
        else:
            rows = cursor.fetch_all()
        metrics = cursor.consume().as_dict() if want_metrics else None
        cursor.close()
        return Outcome(rows=rows, metrics=metrics)

    def execute_report(self, report) -> Outcome:
        """Run a plan a compile op produced (cold_plan's row verification)."""
        stream = self.service.backend.execute_streaming(report.physical_plan)
        rows = list(stream)
        return Outcome(rows=rows, metrics=stream.metrics().as_dict())

    def close(self) -> None:
        self.session.close()


class HttpTarget:
    """Ops through one ``GraphClient`` keep-alive connection."""

    def __init__(self, host: str, port: int, tenant: str):
        self.client = GraphClient(host, port, tenant=tenant)
        self._session = None
        self.retries = 0

    def _with_retries(self, call):
        for attempt in range(MAX_OVERLOAD_RETRIES + 1):
            try:
                return call()
            except ServiceOverloadedError as exc:
                if attempt == MAX_OVERLOAD_RETRIES:
                    raise
                self.retries += 1
                time.sleep(exc.retry_after_seconds)
        raise AssertionError("unreachable")

    def run(self, op: Op, want_metrics: bool = False) -> Outcome:
        if op.mode == "run":
            wire = self._with_retries(lambda: self.client.run(
                op.text, op.language, op.parameters))
            return Outcome(rows=wire.rows, metrics=wire.metrics)
        started = time.perf_counter()
        if self._session is None:
            self._session = self._with_retries(self.client.session)
        cursor = self._with_retries(lambda: self._session.cursor(
            op.text, op.language, op.parameters, fetch_size=opsmod.FETCH_SIZE))
        rows = [next(cursor)]
        first_s = time.perf_counter() - started
        if op.mode == "early":
            rows.extend(cursor.fetch_many(opsmod.EARLY_ROWS - 1))
            cursor.close()
        else:
            rows.extend(cursor)
        return Outcome(rows=rows, first_s=first_s, metrics=cursor.metrics)

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
        self.client.close()


# -- the server child ------------------------------------------------------------------

class ServerChild:
    """``server_child.py`` hosting the GraphService behind GraphHTTPServer."""

    def __init__(self, workload: Workload, quick: bool, threads: int,
                 setup_reps: int):
        command = [sys.executable, os.path.join(HERE, "server_child.py"),
                   "--workload", workload.name, "--threads", str(threads),
                   "--setup-reps", str(setup_reps)]
        if quick:
            command.append("--quick")
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        try:
            ready = self._read_message()
        except BaseException:
            self.kill()
            raise
        self.port = ready["port"]

    def _read_message(self) -> Dict[str, object]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server child exited without a message (code %s)"
                               % (self.process.poll(),))
        return json.loads(line)

    def stop(self) -> Dict[str, object]:
        """Ask the child to stop; returns its final report (set-up times,
        VmHWM at the end of the workload, plan-cache and admission counters)."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            report = self._read_message()
            self.process.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()


# -- check pass ------------------------------------------------------------------------

@dataclass
class CheckResult:
    ops: int
    work_per_op: float
    #: op keys whose digest differs from (or is missing in) ``expected/``
    mismatches: Tuple[str, ...]


def verify_against_expected(check_ops: Sequence[Op], outcomes: Sequence[Outcome],
                            expected: Dict[str, str]) -> CheckResult:
    mismatches = []
    work = []
    drained = {op.text: outcome.rows
               for op, outcome in zip(check_ops, outcomes) if op.mode == "drain"}
    for op, outcome in zip(check_ops, outcomes):
        want = expected.get(op.key)
        if op.mode == "early":
            # the query has no ORDER BY, so which rows come first is the
            # engine's choice: an early close is right when it hands over
            # EARLY_ROWS rows of the drained bag
            if (len(outcome.rows) != opsmod.EARLY_ROWS
                    or not digests.is_sub_bag(outcome.rows, drained[op.text])):
                mismatches.append("%s: not %d rows of the drained result"
                                  % (op.key, opsmod.EARLY_ROWS))
        elif want is None:
            mismatches.append("%s: no expected digest (run --bless)" % op.key)
        elif digests.bag_digest(outcome.rows) != want:
            mismatches.append("%s: digest differs from expected/" % op.key)
        if outcome.metrics is not None:
            work.append(total_work(outcome.metrics))
    return CheckResult(ops=len(check_ops), mismatches=tuple(mismatches),
                       work_per_op=statistics.fmean(work) if work else 0.0)


def cross_path_mismatches(check_ops: Sequence[Op],
                          paths: Dict[str, object]) -> List[str]:
    """Ops on which the named execution paths return different row bags."""
    mismatches = []
    for op in check_ops:
        if op.mode == "early":
            continue   # any EARLY_ROWS rows of the drain are right; see the check pass
        by_path = {name: digests.bag_digest(target.run(op).rows)
                   for name, target in paths.items()}
        first, reference = next(iter(by_path.items()))
        differing = [name for name, digest in by_path.items() if digest != reference]
        if differing:
            mismatches.append("%s: %s disagree with %s"
                              % (op.key, ", ".join(differing), first))
    return mismatches


def engine_paths(service: GraphService) -> Dict[str, InprocTarget]:
    return {"engine:" + engine: InprocTarget(service, engine)
            for engine in available_engines()}


# -- timed window ----------------------------------------------------------------------

#: kind, latency s, first-row s, rows, completion time in s since the window began
Sample = Tuple[str, float, float, int, float]


@dataclass
class Window:
    samples: List[Sample]
    #: (seconds, samples) of each cycle of a whole-cycle window, otherwise of
    #: each of SLICES runs of equally many ops
    slices: List[Tuple[float, List[Sample]]]
    failures: Dict[str, int]
    attempted: int
    elapsed_s: float
    reports: Dict[str, object]     # compile ops: last report per op key


def _closed_loop(target, sequence: Sequence[Op], start: int, step: int,
                 window_started: float, seconds: float, min_samples: int,
                 whole_cycles: bool, samples: List[Sample],
                 boundaries: List[Tuple[float, int]],
                 failures: collections.Counter, reports: Dict[str, object]) -> int:
    attempted = 0
    count = len(sequence)
    index = start
    while True:
        op = sequence[index % count]
        index += step
        attempted += 1
        started = time.perf_counter()
        try:
            outcome = target.run(op)
        except Exception as exc:  # noqa: BLE001 - counted by type, never hidden
            failures[type(exc).__name__] += 1
            now = time.perf_counter()
        else:
            now = time.perf_counter()
            latency = now - started
            rows = 0 if outcome.rows is None else len(outcome.rows)
            first = latency if outcome.first_s is None else outcome.first_s
            samples.append((op.kind, latency, first, rows, now - window_started))
            if outcome.report is not None:
                reports[op.key] = outcome.report
        if whole_cycles:
            if index % count != start:
                continue
            boundaries.append((now - window_started, len(samples)))
        if now - window_started >= seconds and len(samples) >= min_samples:
            return attempted


def timed_window(targets: Sequence[object], sequence: Sequence[Op], seconds: float,
                 whole_cycles: bool, min_samples: int = 0) -> Window:
    """One closed-loop window over ``len(targets)`` clients.

    Client ``i`` of ``n`` takes ops ``i, i+n, ...`` of the seeded sequence,
    cyclically, until the window's time is up (and, with ``whole_cycles``, its
    current cycle is complete and ``min_samples`` ops have been timed).
    """
    clients = len(targets)
    if whole_cycles and clients != 1:
        raise ValueError("a whole-cycle window has one client")
    samples: List[List[Sample]] = [[] for _ in targets]
    failures = [collections.Counter() for _ in targets]
    attempted = [0] * clients
    boundaries: List[Tuple[float, int]] = [(0.0, 0)]
    reports: Dict[str, object] = {}
    gc.collect()
    started = time.perf_counter()

    def client(slot: int) -> None:
        attempted[slot] = _closed_loop(
            targets[slot], sequence, slot, clients, started, seconds, min_samples,
            whole_cycles, samples[slot], boundaries, failures[slot], reports)

    if clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(slot,),
                                    name="gopt-bench-client-%d" % slot)
                   for slot in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - started
    merged_failures: collections.Counter = collections.Counter()
    for counter in failures:
        merged_failures.update(counter)
    merged = [s for per_client in samples for s in per_client]
    if whole_cycles:
        slices = [(end_s - begin_s, merged[begin:end])
                  for (begin_s, begin), (end_s, end) in zip(boundaries, boundaries[1:])]
    else:
        # equal op counts in completion order; a slice lasts from the previous
        # slice's last completion to its own
        merged.sort(key=lambda sample: sample[4])
        cuts = [len(merged) * i // SLICES for i in range(SLICES + 1)]
        slices = []
        begin_s = 0.0
        for begin, end in zip(cuts, cuts[1:]):
            if end > begin:
                end_s = merged[end - 1][4]
                slices.append((end_s - begin_s, merged[begin:end]))
                begin_s = end_s
    return Window(samples=merged, slices=slices, failures=dict(merged_failures),
                  attempted=sum(attempted), elapsed_s=elapsed, reports=reports)


# -- end-to-end metrics ---------------------------------------------------------------

def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def per_kind_medians(samples: Sequence[Sample]) -> Dict[str, Tuple[int, float]]:
    by_kind: Dict[str, List[float]] = collections.defaultdict(list)
    for sample in samples:
        by_kind[sample[0]].append(sample[1])
    return {kind: (len(values), statistics.median(values))
            for kind, values in sorted(by_kind.items())}


def end_to_end_metrics(window: Window, setup_s: float, work_per_op: float,
                       rss_mb: float) -> Dict[str, Dict[str, object]]:
    """Throughput and the two p50s are medians over the window's slices (each
    slice times the same op mix); p95 and the per-kind medians behind the
    geometric mean need every sample of the window."""
    slices = [(seconds, samples) for seconds, samples in window.slices if samples]

    def slice_median(field: int) -> float:
        return statistics.median(
            statistics.median(sample[field] for sample in samples)
            for _, samples in slices)

    kinds = per_kind_medians(window.samples)
    geomean = math.exp(statistics.fmean(math.log(median)
                                        for _, median in kinds.values()))
    values = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (statistics.median(
            len(samples) / seconds for seconds, samples in slices), "ops/s"),
        "latency_p50_ms": (slice_median(1) * 1e3, "ms"),
        "latency_p95_ms": (percentile(sorted(
            sample[1] for sample in window.samples), 0.95) * 1e3, "ms"),
        "latency_geomean_ms": (geomean * 1e3, "ms"),
        "first_rows_p50_ms": (slice_median(2) * 1e3, "ms"),
        "work_per_op": (work_per_op, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


# -- the run ---------------------------------------------------------------------------

def run_untraced(workload: Workload, seed: int, seconds: float, quick: bool,
                 setup_reps: int) -> Dict[str, object]:
    """Set-up -> check pass -> warm-up -> one timed window; returns the result."""
    threads = client_threads(workload)
    name = graph_name(workload, quick)
    expected = digests.load_expected(workload.name, name)
    check_ops = opsmod.check_ops(workload, quick)
    sequence = opsmod.cycle(workload, seed, quick)
    setup_times: List[float] = []
    child: Optional[ServerChild] = None
    service: Optional[GraphService] = None
    targets: List[object] = []
    try:
        if workload.transport == "http":
            child = ServerChild(workload, quick, threads, setup_reps)
            targets = [HttpTarget("127.0.0.1", child.port, "bench-%d" % slot)
                       for slot in range(threads)]
        else:
            started = time.perf_counter()
            service = build_service(workload, build_graph(workload, quick))
            setup_times.append(time.perf_counter() - started)
            targets = [InprocTarget(service)]
        primary = targets[0]

        mismatches: List[str] = []
        cross_checked = 0
        if workload.plan_cache:
            check = verify_against_expected(
                check_ops, [primary.run(op, want_metrics=True) for op in check_ops],
                expected)
            mismatches.extend(check.mismatches)
        if workload.graph == "social":
            # seeded parameter values are not in expected/: the transport under
            # test must agree with every engine of an in-process service
            reference = service or build_service(workload,
                                                 build_graph(workload, quick))
            paths = {workload.transport: primary, **engine_paths(reference)}
            cross_ops = sequence[:CROSS_PATH_OPS]
            mismatches.extend(cross_path_mismatches(cross_ops, paths))
            cross_checked = len(cross_ops)
        if workload.plan_cache:
            # warm-up: every distinct text the check pass has not already run,
            # once, so the window sees plan-cache hits only
            seen = {(op.text, op.language) for op in check_ops}
            for op in sequence:
                if (op.text, op.language) not in seen:
                    seen.add((op.text, op.language))
                    primary.run(op)

        window = timed_window(targets, sequence, seconds, workload.whole_cycles,
                              0 if quick else workload.min_samples)

        if not workload.plan_cache:
            # cold_plan: verify the plans the window itself compiled, by running them
            reports = [window.reports.get(op.key) or primary.run(op).report
                       for op in check_ops]
            check = verify_against_expected(
                check_ops, [primary.execute_report(report) for report in reports],
                expected)
            mismatches.extend(check.mismatches)

        retries = sum(target.retries for target in targets)
        for target in targets:
            target.close()
        targets = []
        if child is not None:
            report = child.stop()
            child = None
            setup_times = list(report["setup_s"])
            rss_mb = report["peak_rss_mb"]
            plan_cache = report["plan_cache"]
            admission = report["admission"]
        else:
            rss_mb = peak_rss_mb()
            plan_cache = service.cache_info().to_dict()
            admission = None
            for _ in range(setup_reps - 1):
                started = time.perf_counter()
                build_service(workload, build_graph(workload, quick))
                setup_times.append(time.perf_counter() - started)
    finally:
        for target in targets:
            target.close()
        if child is not None:
            child.kill()

    failed = sum(window.failures.values()) + len(mismatches)
    failures = dict(window.failures)
    if mismatches:
        failures["DigestMismatch"] = len(mismatches)
    attempted = window.attempted + check.ops + cross_checked
    rows = sum(sample[3] for sample in window.samples)
    kinds = per_kind_medians(window.samples)
    return {
        "workload": workload.name,
        "trace": 0,
        "graph": name,
        "client_threads": threads,
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures,
        "retries": retries,
        "samples": len(window.samples),
        "window_s": window.elapsed_s,
        "slices": len(window.slices),
        "setup_runs_s": setup_times,
        "metrics": end_to_end_metrics(window, statistics.median(setup_times),
                                      check.work_per_op, rss_mb),
        "extra": {"rows_per_s": {"value": rows / window.elapsed_s, "unit": "rows/s"}},
        "per_kind": {kind: {"samples": count, "p50_ms": median * 1e3}
                     for kind, (count, median) in kinds.items()},
        "check": {"ops": check.ops, "cross_path_ops": cross_checked,
                  "mismatches": mismatches,
                  "expected": "checked-in digests for graph %s" % name},
        "plan_cache": plan_cache,
        "admission": admission,
    }
