"""Shared fixtures for the benchmark suite.

The benchmarks regenerate the paper's tables and figures on the synthetic
LDBC-like datasets.  Graph generation and GLogue statistics collection are
session fixtures so that each figure's benchmark measures plan quality, not
setup cost.  Every benchmark prints its result table, so the captured output
(``pytest benchmarks/ --benchmark-only | tee bench_output.txt``) contains the
reproduced figures.  The ``tiny_*`` fixtures run each experiment at reduced
scale in a few seconds (the ``*_reduced`` tests).
"""

import pytest

from repro.datasets import finance_graph, ldbc_snb_graph
from repro.datasets.ldbc import LdbcGraphGenerator
from repro.optimizer.glogue import Glogue


@pytest.fixture(scope="session")
def g30():
    """The micro-benchmark dataset (paper: G30, Section 8.2)."""
    graph = ldbc_snb_graph("G30")
    return graph, Glogue.from_graph(graph)


@pytest.fixture(scope="session")
def g100():
    """The comprehensive-experiment dataset (paper: G100, Section 8.3)."""
    graph = ldbc_snb_graph("G100")
    return graph, Glogue.from_graph(graph)


@pytest.fixture(scope="session")
def finance():
    """The transfer graph for the s-t path case study (Section 8.5)."""
    return finance_graph()


@pytest.fixture(scope="session")
def tiny_ldbc():
    """A 60-person LDBC-like graph for the reduced-scale experiment tests."""
    graph = LdbcGraphGenerator(num_persons=60, seed=5, posts_per_person=2.0,
                               comments_per_post=1.0, num_tags=20,
                               num_organisations=10).generate()
    return graph, Glogue.from_graph(graph)


@pytest.fixture(scope="session")
def tiny_finance():
    """A 300-person transfer graph plus id sets for the reduced s-t path test."""
    return finance_graph(num_persons=300, mean_transfers=3.0, seed=2)
