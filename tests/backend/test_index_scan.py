"""Index seeks against the full scan they replace.

A ``ScanVertex`` with a ``lookup`` probes only the vertices
``PropertyGraph.vertices_with`` returns for the looked-up value, and still
tests every predicate on each of them.  The oracle is the same plan with
``lookup=None``: on every engine the seek must return the same rows in the
same order and charge the same counters, except ``vertices_scanned``, which
may only fall.  All three engines draw their candidates from one helper
(``kernels.common.scan_candidates``), so they must also agree on all six
counters of the seek.

The property values are chosen to break a naive index: ``1`` / ``1.0`` /
``True`` are equal under ``=``, a missing key reads as ``None``, NaN is
unequal to itself (an index may return the *same* NaN object; the
predicate must still reject it), and a ``list`` is unhashable whether it
is stored or looked up.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import GraphService
from repro.backend import GraphScopeLikeBackend
from repro.gir.expressions import BinaryOp, Literal, Parameter, Property, conjoin
from repro.graph.property_graph import PropertyGraph
from repro.graph.types import Direction, TypeConstraint
from repro.optimizer.physical_plan import ExpandEdge, PhysicalPlan, ScanVertex

COUNTERS = (
    "intermediate_results",
    "edges_traversed",
    "vertices_scanned",
    "tuples_shuffled",
    "operators_executed",
    "cells_produced",
)

LABELS = ["A", "B", "C"]
NAN = float("nan")
#: hashable stored values; ``NAN`` is one shared object on purpose
VALUES = [0, 1, 1.0, True, False, 2, "1", "a", (1, 2), (1.0, 2), None, NAN]
#: looked-up values: also a NaN that is not ``NAN``, and an unhashable list
LOOKUPS = VALUES + [float("nan"), [1, 2]]
ABSENT = object()  # "the vertex has no such key"

CONSTRAINTS = [
    TypeConstraint.basic("A"),
    TypeConstraint.basic("B"),
    TypeConstraint.union(["A", "C"]),
    TypeConstraint.union(LABELS),
    TypeConstraint.all_types(),
]


@st.composite
def graphs(draw):
    graph = PropertyGraph()
    num_vertices = draw(st.integers(min_value=1, max_value=14))
    for _ in range(num_vertices):
        properties = {"j": draw(st.integers(0, 3))}
        # rare, since one stored list switches its label's index off
        unhashable = draw(st.integers(0, 9)) == 0
        value = [1, 2] if unhashable else draw(st.sampled_from(VALUES + [ABSENT]))
        if value is not ABSENT:
            properties["k"] = value
        graph.add_vertex(draw(st.sampled_from(LABELS)), properties)
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        src = draw(st.integers(0, num_vertices - 1))
        dst = draw(st.integers(0, num_vertices - 1))
        graph.add_edge(src, dst, "REL")
    return graph


@st.composite
def seek_plans(draw):
    """A seek plan and the bind map it runs with."""
    value = draw(st.sampled_from(LOOKUPS))
    parameters = {}
    if draw(st.booleans()):
        parameters["x"] = value
        value_expr = Parameter("x")
    else:
        value_expr = Literal(value)
    equality = BinaryOp("=", Property("v", "k"), value_expr)
    if draw(st.booleans()):
        equality = BinaryOp("=", value_expr, Property("v", "k"))
    conjuncts = [equality]
    if draw(st.booleans()):  # the seek must not drop the other predicates
        conjuncts.append(BinaryOp(">", Property("v", "j"), Literal(1)))
    root = ScanVertex(tag="v", constraint=draw(st.sampled_from(CONSTRAINTS)),
                      predicates=(conjoin(conjuncts),), lookup=("k", value_expr))
    if draw(st.booleans()):
        root = ExpandEdge(anchor_tag="v", edge_tag="e", target_tag="w",
                          direction=Direction.OUT,
                          edge_constraint=TypeConstraint.basic("REL"),
                          target_constraint=TypeConstraint.all_types(),
                          inputs=(root,))
    return root, parameters


def _without_lookup(op):
    if isinstance(op, ScanVertex):
        return dataclasses.replace(op, lookup=None)
    return op.with_inputs([_without_lookup(child) for child in op.inputs])


def _run(backend, root, parameters, engine):
    overrides = {"workers": 2} if engine == "dataflow" else {}
    result = backend.execute(PhysicalPlan(root), parameters, engine=engine, **overrides)
    assert not result.timed_out
    metrics = result.metrics.as_dict()
    return result.rows, {counter: metrics[counter] for counter in COUNTERS}


def _brute_force(graph, constraint, value):
    return [vid for vid in graph.vertices_of_type(constraint)
            if graph.vertex_property(vid, "k") == value]


def _index_can_answer(graph, constraint, value):
    if constraint.is_all:
        return False
    try:
        hash(value)
    except TypeError:
        return False
    for vid in graph.vertices_of_type(constraint):
        try:
            hash(graph.vertex_property(vid, "k"))
        except TypeError:
            return False
    return True


class TestSeekAgainstFullScan:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), seek_plans())
    def test_every_engine_matches_the_full_scan(self, graph, case):
        seek, parameters = case
        full = _without_lookup(seek)
        backend = GraphScopeLikeBackend(graph, num_partitions=2, timeout_seconds=30.0)
        seek_counters = {}
        for engine in ("row", "vectorized", "dataflow"):
            seek_rows, seek_counters[engine] = _run(backend, seek, parameters, engine)
            full_rows, full_counters = _run(backend, full, parameters, engine)
            assert seek_rows == full_rows, engine
            for counter in COUNTERS:
                if counter == "vertices_scanned":
                    assert seek_counters[engine][counter] <= full_counters[counter], engine
                else:
                    assert seek_counters[engine][counter] == full_counters[counter], (
                        engine, counter)
        assert seek_counters["row"] == seek_counters["vectorized"] == seek_counters["dataflow"]

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.sampled_from(CONSTRAINTS), st.sampled_from(LOOKUPS))
    def test_vertices_with_is_an_ordered_superset_of_equality(self, graph, constraint, value):
        ids = graph.vertices_with(constraint, "k", value)
        if not _index_can_answer(graph, constraint, value):
            assert ids is None
            return
        order = list(graph.vertices_of_type(constraint))
        assert ids == [vid for vid in order if vid in set(ids)]
        assert set(_brute_force(graph, constraint, value)) <= set(ids)
        for vid in ids:  # beyond ==, only the very same (NaN) object
            stored = graph.vertex_property(vid, "k")
            assert stored is value or stored == value


@pytest.fixture(scope="module")
def ldbc_service(ldbc_graph):
    return GraphService(ldbc_graph, plan_cache_size=None)


class TestLowering:
    @pytest.mark.parametrize("where,lookup", [
        ("p.id = 7", ("id", Literal(7))),
        ("7 = p.id", ("id", Literal(7))),
        ("p.id = $x", ("id", Parameter("x"))),
        ("p.age > 3 AND p.firstName = 'Ann'", ("firstName", Literal("Ann"))),
        ("p.id < 7", None),
        ("p.id = p.age", None),
        ("p.id = 7 OR p.id = 8", None),
    ])
    def test_first_equality_conjunct_becomes_the_lookup(self, ldbc_service, where, lookup):
        query = "MATCH (p:Person) WHERE %s RETURN p.id AS id" % where
        plan = ldbc_service.session().prepare(query).report().physical_plan
        scan, = plan.operators_of_type(ScanVertex)
        assert scan.lookup == lookup
        assert scan.describe().endswith(" via index(%s)" % lookup[0] if lookup else "filter(s)")


class TestIndexLifecycle:
    def test_add_vertex_after_the_first_seek_is_seen_by_the_next(self):
        graph = PropertyGraph()
        first = graph.add_vertex("A", {"k": 1})
        missing = graph.add_vertex("A", {"j": 2})
        assert graph.vertices_with("A", "k", 1) == [first]
        assert graph.vertices_with("A", "k", None) == [missing]
        later = graph.add_vertex("A", {"k": 1.0})
        bare = graph.add_vertex("A")
        graph.add_vertex("C", {"k": [1]})  # another label: "A" keeps its index
        assert graph.vertices_with("A", "k", True) == [first, later]
        assert graph.vertices_with("A", "k", None) == [missing, bare]
        graph.add_vertex("A", {"k": [1]})
        assert graph.vertices_with("A", "k", 1) is None  # unhashable stored now

        plan = PhysicalPlan(ScanVertex(
            tag="v", constraint=TypeConstraint.basic("B"),
            predicates=(BinaryOp("=", Property("v", "k"), Literal(3)),),
            lookup=("k", Literal(3))))
        backend = GraphScopeLikeBackend(graph, num_partitions=2)
        assert backend.execute(plan).rows == []
        graph.add_vertex("B", {"k": 3})
        assert len(backend.execute(plan).rows) == 1

    def test_concurrent_first_requests_agree(self):
        graph = PropertyGraph()
        for index in range(5_000):
            graph.add_vertex(LABELS[index % 3], {"k": index % 7})
        constraint = TypeConstraint.union(["A", "B"])
        expected = _brute_force(graph, constraint, 3)
        barrier = threading.Barrier(8)
        answers = [None] * 8

        def seek(slot):
            barrier.wait(timeout=10)
            answers[slot] = graph.vertices_with(constraint, "k", 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=seek, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(answer == expected for answer in answers)
