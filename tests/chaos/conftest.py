"""Chaos-suite fixtures: seeded injectors over a small partitioned backend.

Every test in this directory runs under one fixed injection seed, taken
from ``REPRO_CHAOS_SEED`` (the CI chaos job runs the suite once per seed in
{11, 23, 47}).  The seed feeds the :class:`~repro.testing.faults.FaultInjector`
RNG, so the *set* of injection decisions is reproducible per seed even
though thread interleavings are not.
"""

import os

import pytest

from repro import GraphService

#: the three seeds the CI chaos job pins (documentation; the job sets the env)
CHAOS_SEEDS = (11, 23, 47)


@pytest.fixture(scope="session")
def chaos_seed():
    return int(os.environ.get("REPRO_CHAOS_SEED", str(CHAOS_SEEDS[0])))


@pytest.fixture(scope="module")
def gopt(ldbc_graph):
    """Optimizer + partitioned backend shared by the chaos tests."""
    return GraphService(ldbc_graph, backend="graphscope", num_partitions=4,
                        max_intermediate_results=500_000, timeout_seconds=30.0,
                        plan_cache_size=None)
