"""The serial batch pipeline: lists of dict rows, cut at ``batch_size``.

``stream_batches`` at batch size 7 moves the very rows it yields at batch
size 1 (the ``row`` engine), in lists.  Locked down here are the properties
of those lists themselves -- where they are cut (scans, breaker outputs,
an expand's fan-out, a shared subtree's replay), that none is empty, that a
Limit slices rather than overshoots, and that the list filters (Dedup,
distinct Union) see duplicates across batch boundaries -- plus the
``RowListSink`` the pipeline hands to the per-row kernels.
"""

import pytest

from repro.backend.runtime.context import ExecutionContext, ExecutionOptions
from repro.backend.runtime.kernels.sinks import RowListSink
from repro.backend.runtime.streaming import stream_batches
from repro.gir.expressions import parse_expression
from repro.gir.operators import AggregateCall, AggregateFunction, ProjectItem, SortKey
from repro.graph.types import BasicType, Direction, TypeConstraint
from repro.optimizer.physical_plan import (
    Aggregate,
    Dedup,
    ExpandEdge,
    Filter,
    Limit,
    ScanVertex,
    Sort,
    Union,
)

BATCH = 7


def _ctx(graph, batch_size=BATCH):
    return ExecutionContext(graph, options=ExecutionOptions(
        engine="vectorized", batch_size=batch_size))


def _persons(tag="a"):
    return ScanVertex(tag=tag, constraint=BasicType("Person"))


def _knows(scan):
    return ExpandEdge(
        anchor_tag=scan.tag, edge_tag="e", target_tag="b",
        direction=Direction.OUT,
        edge_constraint=TypeConstraint.basic("Knows"),
        target_constraint=TypeConstraint.all_types(),
        inputs=(scan,),
    )


def _batches(op, graph, batch_size=BATCH):
    return list(stream_batches(op, _ctx(graph, batch_size)))


def _rows(op, graph):
    """The reference: the rows of the same plan one row per batch."""
    return [row for batch in _batches(op, graph, batch_size=1) for row in batch]


@pytest.fixture(scope="module")
def person_count(social_graph):
    count = social_graph.vertex_count("Person")
    assert count > 2 * BATCH  # every test below spans several batches
    return count


class TestBatchShape:
    def test_scan_is_cut_at_batch_size(self, social_graph, person_count):
        batches = _batches(_persons(), social_graph)
        assert len(batches) == -(-person_count // BATCH)
        assert [len(b) for b in batches[:-1]] == [BATCH] * (len(batches) - 1)
        assert sum(map(len, batches)) == person_count

    def test_batches_are_lists_of_the_one_row_batches_dict_rows(self, social_graph):
        plan = _knows(_persons())
        batches = _batches(plan, social_graph)
        assert all(type(batch) is list for batch in batches)
        assert all(type(row) is dict for batch in batches for row in batch)
        assert [row for batch in batches for row in batch] == _rows(plan, social_graph)

    def test_no_empty_batch_reaches_the_consumer(self, social_graph):
        # a selective filter empties most input batches of the per-row kernel
        plan = Filter(predicate=parse_expression("a.id = 3"), inputs=(_persons(),))
        batches = _batches(plan, social_graph)
        assert all(batches)
        assert [row for batch in batches for row in batch] == _rows(plan, social_graph)

    def test_breaker_output_is_rebatched(self, social_graph, person_count):
        plan = Sort(keys=(SortKey(parse_expression("a.id"), ascending=False),),
                    inputs=(_persons(),))
        batches = _batches(plan, social_graph)
        assert len(batches) == -(-person_count // BATCH)
        assert [len(b) for b in batches[:-1]] == [BATCH] * (len(batches) - 1)
        ids = [row["a"].id for batch in batches for row in batch]
        assert len(ids) == person_count
        assert [row["a"].id for row in _rows(plan, social_graph)] == ids

    def test_expand_fan_out_is_cut_at_batch_size(self, social_graph):
        plan = _knows(_persons())
        reference = _rows(plan, social_graph)
        batches = _batches(plan, social_graph, batch_size=3)
        assert max(map(len, batches)) == 3  # a 3-person batch fans out wider
        assert [row for batch in batches for row in batch] == reference
        # one row per batch: pulling the first Knows row of a person with
        # several charges that one row, not the person's whole fan-out
        ctx = _ctx(social_graph, batch_size=1)
        first = next(stream_batches(plan, ctx))
        assert len(first) == 1
        assert sum(row["a"] == first[0]["a"] for row in reference) > 1
        assert ctx.counters.intermediate_results == ctx.counters.vertices_scanned + 1

    def test_aggregate_groups_are_rebatched(self, social_graph):
        plan = Aggregate(keys=(ProjectItem(parse_expression("a"), "a"),),
                         aggregations=(AggregateCall(AggregateFunction.COUNT, None, "cnt"),),
                         inputs=(_knows(_persons()),))
        batches = _batches(plan, social_graph)
        assert len(batches) > 1
        assert max(map(len, batches)) == BATCH
        assert [row for batch in batches for row in batch] == _rows(plan, social_graph)


class TestListKernels:
    def test_limit_slices_across_a_batch_boundary_and_stops_pulling(
            self, social_graph, person_count):
        ctx = _ctx(social_graph)
        batches = list(stream_batches(Limit(count=BATCH + 3, inputs=(_persons(),)), ctx))
        assert [len(b) for b in batches] == [BATCH, 3]
        # the scan was pulled for two batches, not drained
        assert ctx.counters.vertices_scanned == 2 * BATCH < person_count

    def test_limit_zero_pulls_nothing(self, social_graph):
        ctx = _ctx(social_graph)
        assert list(stream_batches(Limit(count=0, inputs=(_persons(),)), ctx)) == []
        assert ctx.counters.vertices_scanned == 0

    def test_dedup_drops_duplicates_across_batches(self, social_graph):
        plan = Dedup(tags=("b",), inputs=(_knows(_persons()),))
        targets = [row["b"] for batch in _batches(plan, social_graph) for row in batch]
        assert len(targets) == len(set(targets))
        every = {row["b"] for row in _rows(_knows(_persons()), social_graph)}
        assert set(targets) == every
        assert targets == [row["b"] for row in _rows(plan, social_graph)]

    def test_union_distinct_filters_the_second_branch(self, social_graph, person_count):
        both = (_persons(), _persons())
        rows = [row for batch in _batches(Union(distinct=True, inputs=both), social_graph)
                for row in batch]
        assert len(rows) == person_count
        rows = [row for batch in _batches(Union(distinct=False, inputs=both), social_graph)
                for row in batch]
        assert len(rows) == 2 * person_count

    def test_shared_subtree_replay_is_cut_at_batch_size(self, social_graph, person_count):
        scan = _persons()
        ctx = _ctx(social_graph)
        ctx.shared_op_ids = frozenset({id(scan)})
        first = list(stream_batches(scan, ctx))
        second = list(stream_batches(scan, ctx))
        assert first == second
        assert len(first) == -(-person_count // BATCH)
        assert [len(b) for b in first[:-1]] == [BATCH] * (len(first) - 1)
        assert sum(map(len, first)) == person_count
        assert ctx.counters.operators_executed == 1


class TestRowListSink:
    def test_emit_extends_a_copy_of_the_base(self):
        sink = RowListSink()
        base = {"a": 1}
        sink.base = base
        sink.emit({"b": 2})
        assert sink.rows == [{"a": 1, "b": 2}]
        assert base == {"a": 1}

    def test_empty_delta_passes_the_base_row_through(self):
        sink = RowListSink()
        base = {"a": 1}
        sink.base = base
        sink.emit({})
        sink.emit_row({"c": 3})
        assert sink.rows[0] is base
        assert sink.drain() == [{"a": 1}, {"c": 3}]
        assert sink.rows == [] and sink.drain() == []
