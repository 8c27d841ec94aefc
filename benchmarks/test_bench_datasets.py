"""Table 3: the LDBC-like datasets (vertex/edge counts per scale factor)."""

import time
from typing import Dict, List, Sequence

from repro.datasets import ldbc_snb_graph
from repro.optimizer.glogue import Glogue

from bench_utils import format_table, run_once


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


def test_bench_dataset_statistics(benchmark):
    rows = run_once(benchmark, dataset_statistics)
    print()
    print(format_table(rows, title="Table 3: the LDBC-like datasets (scaled down for laptop execution)"))
    sizes = {row["graph"]: row["edges"] for row in rows}
    assert sizes["G30"] < sizes["G100"] < sizes["G300"] < sizes["G1000"]


def test_dataset_statistics_reduced():
    rows = dataset_statistics(scales=("G30",))
    assert rows[0]["graph"] == "G30"
    assert rows[0]["vertices"] > 0 and rows[0]["edges"] > rows[0]["vertices"]
