"""Unit tests for the graph builder, partitioner and random generators."""

import random

import pytest

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import (
    dedupe_edges,
    preferential_edges,
    sample_degree_power_law,
    uniform_edges,
)
from repro.graph.partition import GraphPartitioner


class TestGraphBuilder:
    def test_natural_keys(self):
        builder = GraphBuilder()
        builder.add_vertex(("Person", 1), "Person", {"name": "x"})
        builder.add_vertex(("Person", 2), "Person")
        builder.add_edge(("Person", 1), ("Person", 2), "Knows")
        graph = builder.build()
        assert graph.num_vertices == 2
        assert graph.num_edges == 1

    def test_duplicate_key_rejected(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "T")
        with pytest.raises(GraphError):
            builder.add_vertex("a", "T")

    def test_edge_with_unknown_key_rejected(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "T")
        with pytest.raises(GraphError):
            builder.add_edge("a", "missing", "E")

    def test_vertex_id_lookup(self):
        builder = GraphBuilder()
        vid = builder.add_vertex("a", "T")
        assert builder.vertex_id("a") == vid
        assert builder.has_vertex("a")
        with pytest.raises(GraphError):
            builder.vertex_id("missing")


class TestPartitioner:
    def test_partition_in_range(self):
        partitioner = GraphPartitioner(4)
        for vid in range(200):
            assert 0 <= partitioner.partition_of(vid) < 4

    def test_deterministic(self):
        a = GraphPartitioner(8)
        b = GraphPartitioner(8)
        assert [a.partition_of(i) for i in range(50)] == [b.partition_of(i) for i in range(50)]

    def test_roughly_balanced(self):
        partitioner = GraphPartitioner(4)
        balance = partitioner.balance(range(2000))
        assert len(balance) == 4
        assert min(balance.values()) > 2000 / 4 * 0.5

    def test_is_local(self):
        partitioner = GraphPartitioner(1)
        assert partitioner.is_local(1, 999)

    def test_group_by_partition_covers_all(self):
        partitioner = GraphPartitioner(3)
        groups = partitioner.group_by_partition(range(30))
        assert sum(len(v) for v in groups.values()) == 30

    def test_group_by_partition_include_empty_is_stable(self):
        partitioner = GraphPartitioner(4)
        # an empty input still yields one (empty) bucket per partition, in
        # partition order, so "one task per partition" loops are stable
        groups = partitioner.group_by_partition([], include_empty=True)
        assert list(groups) == [0, 1, 2, 3]
        assert all(ids == [] for ids in groups.values())
        # default shape is unchanged: only populated partitions appear
        assert partitioner.group_by_partition([]) == {}
        some = partitioner.group_by_partition([7], include_empty=True)
        assert list(some) == [0, 1, 2, 3]
        assert sum(len(ids) for ids in some.values()) == 1

    def test_skew_reports_max_over_mean(self):
        partitioner = GraphPartitioner(4)
        assert partitioner.skew([]) == 0.0
        # large id range hashes roughly uniformly: skew near 1
        assert 1.0 <= partitioner.skew(range(4000)) < 1.3
        # every id on one partition: skew equals the partition count
        lopsided = [vid for vid in range(400) if partitioner.partition_of(vid) == 2]
        assert partitioner.skew(lopsided) == pytest.approx(4.0)

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            GraphPartitioner(0)


class TestGenerators:
    def test_power_law_degree_bounds(self):
        rng = random.Random(0)
        degrees = [sample_degree_power_law(rng, 5.0, max_degree=50) for _ in range(500)]
        assert all(0 <= d <= 50 for d in degrees)
        assert sum(degrees) > 0

    def test_power_law_zero_mean(self):
        assert sample_degree_power_law(random.Random(0), 0.0) == 0

    def test_uniform_edges_no_self_loops(self):
        rng = random.Random(1)
        edges = uniform_edges(rng, range(20), range(20), 3.0)
        assert all(src != dst for src, dst in edges)

    def test_uniform_edges_empty_inputs(self):
        assert uniform_edges(random.Random(0), [], [1], 2.0) == []
        assert uniform_edges(random.Random(0), [1], [], 2.0) == []

    def test_preferential_edges_skewed(self):
        rng = random.Random(2)
        edges = preferential_edges(rng, range(200), range(200), 4.0)
        in_degree = {}
        for _, dst in edges:
            in_degree[dst] = in_degree.get(dst, 0) + 1
        # early targets should be much more popular than late ones
        early = sum(in_degree.get(i, 0) for i in range(20))
        late = sum(in_degree.get(i, 0) for i in range(180, 200))
        assert early > late

    def test_dedupe_edges(self):
        assert dedupe_edges([(1, 2), (1, 2), (2, 3)]) == [(1, 2), (2, 3)]
