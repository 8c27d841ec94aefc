"""Tests for the benchmark harness: every experiment runs at reduced scale."""

import pytest

from repro.bench import experiments, format_table, geometric_mean, speedup
from repro.bench.pipelines import build_optimizer
from repro.bench.reporting import OT, runtime_or_ot, summarise_speedups


class TestReporting:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(None, 2.0) is None
        assert speedup(10.0, 0.0) is None

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) is None

    def test_runtime_or_ot(self):
        assert runtime_or_ot(1.5, False) == 1.5
        assert runtime_or_ot(1.5, True) == OT

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": None}], title="demo")
        assert "demo" in text and "a" in text and "-" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([])

    def test_summarise_speedups(self):
        rows = [
            {"base": 10.0, "new": 1.0},
            {"base": OT, "new": 2.0},
            {"base": 4.0, "new": 4.0},
        ]
        summary = summarise_speedups(rows, "base", "new")
        assert summary["count"] == 2
        assert summary["baseline_ot_count"] == 1
        assert summary["max_speedup"] == pytest.approx(10.0)


class TestPipelines:
    def test_build_optimizer_flavors(self, ldbc_graph, ldbc_glogue):
        for flavor in ("gopt", "gopt-neo-cost", "gopt-low-order", "neo4j", "gs",
                       "no-rbo", "no-type-inference", "no-cbo"):
            optimizer = build_optimizer(ldbc_graph, flavor, glogue=ldbc_glogue)
            assert optimizer is not None
        with pytest.raises(ValueError):
            build_optimizer(ldbc_graph, "mystery", glogue=ldbc_glogue)


class TestExperiments:
    def test_feature_matrix(self):
        rows = experiments.feature_matrix()
        gopt_row = [r for r in rows if "GOpt" in r["database"]][0]
        assert gopt_row["wco_join"] and gopt_row["type_inference"] and gopt_row["high_order_stats"]
        assert len(rows) == 4

    def test_dataset_statistics_single_scale(self):
        rows = experiments.dataset_statistics(scales=("G30",))
        assert rows[0]["graph"] == "G30"
        assert rows[0]["vertices"] > 0 and rows[0]["edges"] > rows[0]["vertices"]

    def test_heuristic_rules_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.heuristic_rules_experiment(
            ldbc_graph, query_names=["QR1", "QR5"], glogue=ldbc_glogue)
        assert {row["query"] for row in rows} == {"QR1", "QR5"}
        for row in rows:
            if row["with_opt"] != OT and row["without_opt"] != OT:
                assert row["with_opt_work"] <= row["without_opt_work"]

    def test_type_inference_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.type_inference_experiment(
            ldbc_graph, query_names=["QT2"], glogue=ldbc_glogue)
        assert rows[0]["with_opt_work"] <= rows[0]["without_opt_work"]

    def test_cbo_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.cbo_experiment(
            ldbc_graph, query_names=["QC3a"], num_random_plans=2, glogue=ldbc_glogue)
        plans = {row["plan"] for row in rows}
        assert "GOpt-Plan" in plans and "GOpt-Neo-Plan" in plans and "Random-1" in plans

    def test_cardinality_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.cardinality_experiment(
            ldbc_graph, query_names=["QC1a"], glogue=ldbc_glogue)
        assert rows and "high_order" in rows[0] and "low_order" in rows[0]

    def test_gremlin_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.gremlin_experiment(
            ldbc_graph, query_names=["QC3a", "QR1"], glogue=ldbc_glogue)
        assert {row["query"] for row in rows} == {"QC3a", "QR1"}

    def test_ldbc_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.ldbc_experiment(
            ldbc_graph, backend_kind="graphscope", query_names=["IC5", "BI11"], glogue=ldbc_glogue)
        assert {row["query"] for row in rows} == {"IC5", "BI11"}
        for row in rows:
            assert "neo4j_plan" in row and "gopt_plan" in row

    def test_intra_query_parallelism_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.intra_query_parallelism_experiment(
            graph=ldbc_graph, glogue=ldbc_glogue,
            query_names=("knows-2hop", "friend-messages"),
            workers_list=(1, 2), num_partitions=4)
        assert {row["query"] for row in rows} == {"knows-2hop", "friend-messages"}
        assert {row["workers"] for row in rows} == {1, 2}
        for row in rows:
            assert row["rows_match"]
            assert row["shuffled"] is not None and row["shuffled"] >= 0
            assert row["partition_skew"] > 0
            # per-thread CPU accounting is always present, even at 1 worker
            assert row["speedup"] is None or row["speedup"] >= 1.0

    def test_intra_query_parallelism_ic_workload(self, ldbc_graph, ldbc_glogue):
        rows = experiments.intra_query_parallelism_experiment(
            graph=ldbc_graph, glogue=ldbc_glogue, workload="IC",
            query_names=("IC1",), workers_list=(2,), num_partitions=2)
        assert [row["query"] for row in rows] == ["IC1"]
        assert rows[0]["rows_match"]

    def test_st_path_experiment_small(self, finance):
        graph, id_sets = finance
        rows = experiments.st_path_experiment(graph, id_sets, hops=3, query_names=["ST1"])
        plans = {row["plan"] for row in rows}
        assert plans == {"GOpt-plan", "Neo4j-plan", "Alt-plan1", "Alt-plan2"}
        gopt_row = [r for r in rows if r["plan"] == "GOpt-plan"][0]
        assert gopt_row["join_position"].startswith("(")

    def test_concurrent_serving_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.concurrent_serving_experiment(
            ldbc_graph, num_clients=4, requests_per_client=4,
            engines=("row", "vectorized"), glogue=ldbc_glogue)
        assert {row["engine"] for row in rows} == {"row", "vectorized"}
        for row in rows:
            assert row["errors"] == 0
            assert row["rows_match"] is True
            # prepared plans key on types: one cache entry per template
            assert row["cache_entries"] <= len(experiments.SERVING_TEMPLATES)
            assert row["cache_hit_rate"] is not None and row["cache_hit_rate"] > 0.5

    def test_search_ablation_experiment(self, ldbc_graph, ldbc_glogue):
        rows = experiments.search_ablation_experiment(
            ldbc_graph, query_names=["QC1a"], glogue=ldbc_glogue)
        variants = {row["variant"] for row in rows}
        assert {"full", "no-pruning", "no-greedy-bound", "no-join"} <= variants
        by_variant = {row["variant"]: row for row in rows}
        assert by_variant["full"]["plan_cost"] == pytest.approx(
            by_variant["no-pruning"]["plan_cost"])
