"""gopt_bench: one command, five workloads, an end-to-end scoreboard and a
per-layer latency budget.

    python benchmarks/gopt_bench/run.py --seed N               # all five workloads
    python benchmarks/gopt_bench/run.py --quick                # <=30 s smoke (G30, 2 s windows)
    python benchmarks/gopt_bench/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/gopt_bench/run.py --compare A.json B.json
    python benchmarks/gopt_bench/run.py --bless                # regenerate expected/

Without ``--workload`` every workload runs in a fresh subprocess, untraced
for the end-to-end metrics and then traced for the per-layer metrics; the
summary is written to ``out/summary.json`` (``--out`` to change) and ends
with ``"claim": null`` -- this benchmark measures, it claims nothing.  With
``--workload`` (how the regression driver calls it) one run is made and its
last stdout line is the result object.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
OUT_DIR = os.path.join(HERE, "out")

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("gopt_bench: %s has no src/repro -- run from a checkout of the "
             "repository" % ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import digests  # noqa: E402
import harness  # noqa: E402
import ops as opsmod  # noqa: E402

QUICK_SECONDS = 2
#: set-ups per untraced run (setup_s is their median); the social graph's
#: 0.2 s set-up is cheap enough, and noisy enough, for five
SETUP_REPS = {"social": 5, "ldbc": 3}


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def environment(seed: int, threads: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc / 2:
        print("gopt_bench: WARNING 1-minute load average %.2f exceeds nproc/2 "
              "(%d cpus); timings will be noisy" % (load, nproc), file=sys.stderr)
    return {"nproc": nproc, "python": platform.python_version(),
            "git_commit": commit, "client_threads": threads, "seed": seed,
            "load_average_1m": load,
            "python_hash_seed": os.environ.get("PYTHONHASHSEED", "random")}


# -- one run of one workload (the regression driver's entry point) --------------------

def run_one(args) -> int:
    contract = load_contract()
    workload = opsmod.WORKLOAD_BY_NAME[args.workload]
    env = environment(args.seed, harness.client_threads(workload))
    if args.trace:
        import layers
        result = layers.run_traced(workload, args.quick)
        declared = contract["per_layer"]
        result["metrics"] = {
            entry["name"]: {"value": result["values"][entry["name"]],
                            "unit": entry["unit"]} for entry in declared}
        del result["values"]
    else:
        result = harness.run_untraced(
            workload, args.seed, args.seconds, args.quick,
            setup_reps=1 if args.quick else SETUP_REPS[workload.graph])
        declared = contract["end_to_end"]
        result["metrics"] = {entry["name"]: result["metrics"][entry["name"]]
                             for entry in declared}
    result.update(seed=args.seed, seconds=args.seconds, quick=args.quick,
                  environment=env)
    os.makedirs(OUT_DIR, exist_ok=True)
    detail_path = os.path.join(
        OUT_DIR, "result-%s-trace%d.json" % (workload.name, args.trace))
    with open(detail_path, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")

    print("%s  trace=%d  graph=%s  seed=%d  closed loop, %d client thread(s)"
          % (workload.name, args.trace, result["graph"], args.seed,
             result["client_threads"]))
    for name, metric in result["metrics"].items():
        print("  %-38s %14.4f %s" % (name, metric["value"], metric["unit"]))
    if not args.trace:
        print("  %-38s %14d (p95 leaves %d samples beyond it)"
              % ("samples", result["samples"], result["samples"] // 20))
        for mismatch in result["check"]["mismatches"]:
            print("  MISMATCH %s" % mismatch)
    else:
        print("  stage sum vs %s: residual %.1f%% (%s)"
              % (result["reconciliation"]["stage"],
                 100 * result["reconciliation"]["residual_share"],
                 "within 10%" if result["reconciliation"]["within_10_percent"]
                 else "NOT within 10%"))
    print("  failed %d of %d attempted  %s"
          % (result["failed"], result["attempted"], result["failures"] or ""))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and result["failed"] == 0 else 1


# -- all workloads --------------------------------------------------------------------

def child_run(workload_name: str, trace: int, seed: int, args):
    """One run in a fresh subprocess -> (detailed result or None, its output)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload_name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    detail_path = os.path.join(
        OUT_DIR, "result-%s-trace%d.json" % (workload_name, trace))
    # a run that crashes must not be read as the previous invocation's result
    with contextlib.suppress(FileNotFoundError):
        os.remove(detail_path)
    started = time.time()
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    output = "".join(line + "\n" for line in completed.stdout.splitlines()[:-1])
    output += "  run took %.1f s\n" % (time.time() - started)
    if completed.returncode not in (0, 1) or not os.path.exists(detail_path):
        return None, output + "gopt_bench: %s trace=%d crashed (exit %d)\n" % (
            workload_name, trace, completed.returncode)
    with open(detail_path) as handle:
        return json.load(handle), output


def run_all(args) -> int:
    started = time.time()
    contract = load_contract()
    summary: Dict[str, object] = {
        "benchmark": "gopt_bench", "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "repeat": args.repeat, "load_model": "closed loop, one benchmark process, "
        "at most min(nproc, %d) client threads" % opsmod.MAX_CLIENT_THREADS,
        "workloads": {},
    }
    ok = True
    for workload in opsmod.WORKLOADS:
        entry: Dict[str, object] = {"why": workload.why}
        runs = ([(0, "end_to_end", args.seed), (1, "per_layer", args.seed)]
                + [(0, None, args.seed + extra) for extra in range(1, args.repeat)])
        repeats: Dict[str, List[float]] = {}
        # --quick is a smoke test, not a measurement: its untraced and traced
        # pass run side by side to stay inside 30 s
        with concurrent.futures.ThreadPoolExecutor(2 if args.quick else 1) as pool:
            outcomes = list(pool.map(
                lambda run: child_run(workload.name, run[0], run[2], args), runs))
        for (trace, key, _), (result, output) in zip(runs, outcomes):
            sys.stdout.write(output)
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            summary.setdefault("environment", result["environment"])
            if key is not None:
                entry[key] = result
            if trace == 0:
                for metric, value in result["metrics"].items():
                    repeats.setdefault(metric, []).append(value["value"])
        if args.repeat > 1:
            entry["repeats"] = repeats
        summary["workloads"][workload.name] = entry
    summary["wall_seconds"] = time.time() - started

    print("\n== end-to-end scoreboard (untraced; bounds from BENCHMARK.json) ==")
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    for name, entry in summary["workloads"].items():
        result = entry.get("end_to_end")
        if result is None:
            continue
        print("%s  (%d samples, %d client thread(s), failed_share %.4f %s)"
              % (name, result["samples"], result["client_threads"],
                 result["failed_share"], result["failures"] or ""))
        for metric, value in {**result["metrics"], **result["extra"]}.items():
            bound = ("bound %.1f%%" % (100 * bounds[metric])
                     if metric in bounds else "unguarded")
            print("  %-22s %14.4f %-7s %s"
                  % (metric, value["value"], value["unit"], bound))
    summary["claim"] = None
    out_path = args.out or os.path.join(
        OUT_DIR, "summary-quick.json" if args.quick else "summary.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    print("\nwrote %s in %.0f s; correct=%s" % (out_path, summary["wall_seconds"], ok))
    print('"claim": null')
    return 0 if ok else 1


# -- blessing ---------------------------------------------------------------------------

def bless(args) -> int:
    """Regenerate ``expected/``; refuses unless every execution path agrees."""
    refused = False
    for quick in (False, True):
        for workload in opsmod.WORKLOADS:
            if workload.graph == "social" and quick:
                continue   # the social graph is the same at both scales
            service = harness.build_service(
                workload, harness.build_graph(workload, quick))
            paths: Dict[str, object] = {"inproc": harness.InprocTarget(service),
                                        **harness.engine_paths(service)}
            server = None
            if workload.transport == "http":
                server = harness.start_server(service, 1)
                paths["http"] = harness.HttpTarget(server.host, server.port, "bless")
            try:
                check_ops = opsmod.check_ops(workload, quick)
                run_ops = [op if op.mode != "compile"
                           else opsmod.Op(op.kind, op.language, op.text,
                                          op.parameters, "run", op.plan_factory)
                           for op in check_ops]
                mismatches = harness.cross_path_mismatches(run_ops, paths)
                blessed = {
                    op.key: digests.bag_digest(paths["inproc"].run(run_op).rows)
                    for op, run_op in zip(check_ops, run_ops)
                    if op.mode != "early"}   # checked against the drain instead
            finally:
                for target in paths.values():
                    target.close()
                if server is not None:
                    server.stop()
            name = harness.graph_name(workload, quick)
            if mismatches:
                refused = True
                print("REFUSED %s on %s:" % (workload.name, name))
                for mismatch in mismatches:
                    print("  " + mismatch)
                continue
            digests.save_expected(workload.name, name, blessed)
            print("blessed %s on %s: %d digests (%s agree)"
                  % (workload.name, name, len(blessed), ", ".join(paths)))
    return 1 if refused else 0


# -- command line -------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(opsmod.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="<=30 s smoke: G30, 2 s windows, one set-up")
    parser.add_argument("--out", help="summary path (all-workloads mode)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload, on seeds N, N+1, ...; "
                        "--compare needs >=4 to judge run-to-run spread")
    parser.add_argument("--bless", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1],
                            load_contract()["end_to_end"])
    if args.bless:
        return bless(args)
    if args.seconds is None:
        args.seconds = (QUICK_SECONDS if args.quick
                        else load_contract()["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        # set and str-keyed dict layouts, and with them timings, differ between
        # hash seeds: measure under one, unless the caller chose another
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
