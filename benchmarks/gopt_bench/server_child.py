"""Child process of the HTTP workloads: hosts the GraphService behind a
GraphHTTPServer so the benchmark's clients do not share an interpreter lock
with the server they load.

Protocol (JSON lines on stdout, commands on stdin):

1. build dataset + GraphService + server, wait for ``/healthz`` 200, print
   ``{"event": "ready", "port": ...}``;
2. on ``stop`` (or EOF): snapshot ``VmHWM`` and the service counters, stop the
   server, repeat the whole set-up ``--setup-reps - 1`` more times so the
   parent can report a median ``setup_s``, print ``{"event": "done", ...}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

import harness  # noqa: E402
from ops import WORKLOAD_BY_NAME  # noqa: E402


def timed_setup(workload, quick: bool, threads: int):
    started = time.perf_counter()
    service = harness.build_service(workload, harness.build_graph(workload, quick))
    server = harness.start_server(service, threads)
    return time.perf_counter() - started, service, server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--setup-reps", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    workload = WORKLOAD_BY_NAME[args.workload]

    elapsed, service, server = timed_setup(workload, args.quick, args.threads)
    setup_times = [elapsed]
    try:
        print(json.dumps({"event": "ready", "port": server.port}), flush=True)
        sys.stdin.readline()
        rss_mb = harness.peak_rss_mb()
        plan_cache = service.cache_info().to_dict()
        admission = server.app.admission.stats().to_dict()
    finally:
        server.stop()
    for _ in range(args.setup_reps - 1):
        elapsed, _, server = timed_setup(workload, args.quick, args.threads)
        server.stop()
        setup_times.append(elapsed)
    print(json.dumps({"event": "done", "setup_s": setup_times,
                      "peak_rss_mb": rss_mb, "plan_cache": plan_cache,
                      "admission": admission}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
