"""Reproduction of "A Modular Graph-Native Query Optimization Framework" (GOpt).

The package implements, in pure Python, the full GOpt stack described in the
paper (SIGMOD 2025 / arXiv 2401.17786):

* :mod:`repro.graph` -- a typed property-graph substrate with schema support.
* :mod:`repro.datasets` -- synthetic LDBC-SNB-like data generators.
* :mod:`repro.gir` -- the unified Graph Intermediate Representation (GIR),
  including pattern graphs, logical operators, and the ``GraphIrBuilder``.
* :mod:`repro.lang` -- Cypher and Gremlin front-ends that lower queries to GIR.
* :mod:`repro.optimizer` -- the graph-native optimizer: heuristic rules (RBO),
  automatic type inference, GLogue high-order statistics, cardinality
  estimation, registerable ``PhysicalSpec`` cost models, and the top-down
  branch-and-bound plan search.
* :mod:`repro.backend` -- two simulated execution backends standing in for
  Neo4j (single machine) and GraphScope (partitioned dataflow).
* :mod:`repro.service` -- the session-based serving layer: ``GraphService``,
  sessions, prepared statements, streaming cursors, concurrent execution.
* :mod:`repro.workloads` -- the paper's query suites (IC, BI, QR, QT, QC, ST).

The experiments regenerating the paper's figures live beside the benchmarks
that run them, in ``benchmarks/test_bench_*.py``.

Quickstart::

    from repro import GraphService
    from repro.datasets import social_commerce_graph

    graph = social_commerce_graph()
    service = GraphService(graph, backend="graphscope")
    with service.session() as session:
        for row in session.run(
                "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name LIMIT 5"):
            print(row)
"""

from repro.backend.base import available_engines
from repro.client import GraphClient
from repro.server import GraphHTTPServer
from repro.backend.runtime.context import CancellationToken
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import GraphSchema
from repro.graph.types import AllType, BasicType, Direction, UnionType
from repro.service import (
    AdmissionController,
    ConcurrentExecutor,
    GraphService,
    PreparedQuery,
    QueryOutcome,
    QueryRequest,
    ResultCursor,
    Session,
)

__version__ = "1.1.0"

__all__ = [
    "available_engines",
    "GraphService",
    "Session",
    "PreparedQuery",
    "ResultCursor",
    "ConcurrentExecutor",
    "AdmissionController",
    "CancellationToken",
    "GraphHTTPServer",
    "GraphClient",
    "QueryRequest",
    "QueryOutcome",
    "PropertyGraph",
    "GraphSchema",
    "BasicType",
    "UnionType",
    "AllType",
    "Direction",
    "__version__",
]
