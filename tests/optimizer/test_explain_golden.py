"""Golden explain-plan regression tests.

``OptimizationReport.explain()`` output (optimized logical plan + physical plan + estimated
cost) is snapshotted for a fixed set of micro and LDBC queries on both
backend profiles.  Optimizer refactors that silently change the chosen plan
for any of these queries fail here with a readable diff.

To intentionally re-bless the snapshots after a deliberate optimizer change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/optimizer/test_explain_golden.py

The snapshots are deterministic: the test graph is generated from a fixed
seed and plan text never depends on hash ordering (verified across
``PYTHONHASHSEED`` values when the suite was introduced).
"""

import os
import pathlib

import pytest

from repro.backend import GraphScopeLikeBackend, Neo4jLikeBackend
from repro.optimizer.planner import build_optimizer
from repro.workloads import bi_queries, ic_queries, qc_queries, qr_queries, qt_queries

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden" / "explain"

#: (query set name, query name) pairs pinned by the snapshots -- one per
#: optimizer technique plus representative LDBC reads and aggregations
PINNED_QUERIES = [
    ("QR", "QR1"),   # FilterIntoPattern
    ("QR", "QR3"),   # FieldTrim
    ("QR", "QR5"),   # JoinToPattern
    ("QT", "QT4"),   # type inference on an untyped message
    ("QC", "QC1a"),  # CBO triangle
    ("QC", "QC2a"),  # CBO square
    ("IC", "IC1"),
    ("IC", "IC5"),
    ("BI", "BI2"),
    ("BI", "BI9"),
    # the plans that lean hardest on the estimation cache's canonical key
    ("QC", "QC3b"),  # 5-vertex pattern
    ("QC", "QC4a"),  # 6 vertices, 8 edges: 1 716 estimator lookups
    ("QC", "QC4b"),
    ("IC", "IC12"),  # variable-length path edge
]

BACKENDS = ["graphscope", "neo4j"]


@pytest.fixture(scope="module")
def query_sets():
    return {qs.name: qs for qs in
            (qr_queries(), qt_queries(), qc_queries(), ic_queries(), bi_queries())}


@pytest.fixture(scope="module")
def optimizers(ldbc_graph, ldbc_glogue):
    profiles = {
        "graphscope": GraphScopeLikeBackend(ldbc_graph).profile(),
        "neo4j": Neo4jLikeBackend(ldbc_graph).profile(),
    }
    return {kind: build_optimizer(ldbc_graph, "gopt", profile=profile, glogue=ldbc_glogue)
            for kind, profile in profiles.items()}


def _golden_path(backend_kind: str, query_name: str) -> pathlib.Path:
    return GOLDEN_DIR / ("%s__%s.txt" % (backend_kind, query_name))


@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("set_name,query_name", PINNED_QUERIES)
def test_explain_matches_golden(backend_kind, set_name, query_name,
                                query_sets, optimizers):
    query = query_sets[set_name].get(query_name)
    explained = optimizers[backend_kind].optimize(query.logical_plan()).explain() + "\n"
    path = _golden_path(backend_kind, query_name)
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(explained)
        return
    assert path.exists(), (
        "missing golden snapshot %s -- run with REGEN_GOLDEN=1 to create it" % path)
    expected = path.read_text()
    assert explained == expected, (
        "explain output for %s on %s changed; if the plan change is intentional, "
        "re-bless with REGEN_GOLDEN=1" % (query_name, backend_kind))
