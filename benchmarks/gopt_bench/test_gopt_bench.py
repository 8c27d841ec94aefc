"""Self-test of gopt_bench, collected by the tier-1 command (<30 s).

Validates the shape of ``BENCHMARK.json`` and ``layer_metrics.json``, runs
the ``--quick`` mode end to end under a ``PYTHONHASHSEED`` other than the one
``expected/`` was blessed under, and checks that a corrupted digest, a missing
``src/`` or a crashed run makes the command exit non-zero.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load(*parts):
    with open(os.path.join(*parts)) as handle:
        return json.load(handle)


def test_benchmark_json_meets_the_contract():
    contract = load(ROOT, "BENCHMARK.json")
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/gopt_bench"]
    assert 1 <= contract["run_seconds"] <= 60
    workloads = contract["workloads"]
    assert 2 <= len(workloads) <= 8
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    end_to_end, per_layer = contract["end_to_end"], contract["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for entry in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    for entry in workloads + end_to_end + per_layer:
        assert NAME.match(entry["name"]), entry["name"]
    for metric in end_to_end + per_layer:
        assert metric["unit"] and metric["better"] in ("lower", "higher")
    setup = [metric for metric in end_to_end if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in end_to_end)


def test_every_layer_metric_predicts_what_it_should_move():
    contract = load(ROOT, "BENCHMARK.json")
    layer_metrics = load(HERE, "layer_metrics.json")
    assert list(layer_metrics) == [metric["name"] for metric in contract["per_layer"]]
    end_to_end = {metric["name"] for metric in contract["end_to_end"]}
    workloads = {workload["name"] for workload in contract["workloads"]} | {"all"}
    for name, metric in layer_metrics.items():
        assert set(metric) == {"layer", "measures", "moves"}, name
        assert metric["layer"] and metric["measures"] and metric["moves"], name
        for move in metric["moves"]:
            moved, _, workload = move.partition("@")
            assert moved in end_to_end and workload in workloads, (name, move)


def test_quick_mode_runs_every_workload_correctly(tmp_path):
    contract = load(ROOT, "BENCHMARK.json")
    out = tmp_path / "summary.json"
    completed = subprocess.run(
        [sys.executable, RUN, "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED="4242"))
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    assert completed.stdout.rstrip().endswith('"claim": null')
    summary = load(str(out))
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    for key in ("nproc", "python", "git_commit", "client_threads", "seed",
                "load_average_1m"):
        assert key in summary["environment"]
    for workload in contract["workloads"]:
        entry = summary["workloads"][workload["name"]]
        untraced, traced = entry["end_to_end"], entry["per_layer"]
        assert untraced["correct"] and untraced["failed"] == 0
        assert untraced["failed_share"] == 0 and untraced["failures"] == {}
        assert untraced["check"]["mismatches"] == []
        assert set(untraced["metrics"]) == {m["name"] for m in contract["end_to_end"]}
        for name, metric in untraced["metrics"].items():
            assert metric["value"] > 0, (workload["name"], name)
        assert traced["correct"] and traced["failed"] == 0
        assert set(traced["metrics"]) == {m["name"] for m in contract["per_layer"]}
        assert os.path.exists(os.path.join(HERE, traced["trace_file"]))


def _copy_benchmark(tmp_path, with_src):
    """A checkout-shaped copy: BENCHMARK.json, the benchmark, optionally src/."""
    tmp_path.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "gopt_bench"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return target


def test_corrupted_digest_and_missing_source_exit_non_zero(tmp_path):
    bare = _copy_benchmark(tmp_path / "bare", with_src=False)
    completed = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "serve_inproc_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0 and completed.stdout == ""

    copy = _copy_benchmark(tmp_path / "corrupt", with_src=True)
    expected_path = copy / "expected" / "serve_inproc_mix.json"
    expected = json.loads(expected_path.read_text())
    key = sorted(expected["social300"])[0]
    expected["social300"][key] = "1:" + "0" * 64
    expected_path.write_text(json.dumps(expected))
    completed = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "serve_inproc_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=180)
    assert completed.returncode == 1
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1

    # a run that crashes (here: on an unparsable expected file) after an earlier
    # invocation left its result in out/ is a crash, not that earlier result
    expected_path.write_text("{not json")
    stale = copy / "out" / "result-serve_inproc_mix-trace0.json"
    assert stale.exists()
    script = ("import sys, types; sys.path.insert(0, %r); import run; "
              "result, output = run.child_run('serve_inproc_mix', 0, 1, "
              "types.SimpleNamespace(seconds=1, quick=True)); "
              "sys.exit(0 if result is None and 'crashed' in output else 3)"
              % str(copy))
    completed = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert not stale.exists()


def test_early_close_rows_are_checked_as_a_sub_bag_of_the_drain():
    sys.path.insert(0, HERE)
    try:
        import digests
    finally:
        sys.path.remove(HERE)
    drain = [{"p": 1, "f": 2}, {"p": 1, "f": 2}, {"f": 3, "p": 1}]
    assert digests.is_sub_bag([{"f": 2, "p": 1}, {"p": 1, "f": 3}], drain)
    assert not digests.is_sub_bag([{"p": 1, "f": 3}] * 2, drain)
    assert not digests.is_sub_bag([{"p": 9, "f": 9}], drain)
    assert digests.bag_digest(drain) == digests.bag_digest(drain[::-1])
