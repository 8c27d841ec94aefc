"""Tests for pattern graphs: construction, subpatterns, merging, canonical keys."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GirBuildError
from repro.gir.expressions import parse_expression
from repro.gir.pattern import PathConstraint, PatternGraph
from repro.graph.types import AllType, BasicType, UnionType


@pytest.fixture()
def triangle():
    pattern = PatternGraph()
    pattern.add_vertex("a", BasicType("Person"))
    pattern.add_vertex("b", BasicType("Person"))
    pattern.add_vertex("c", BasicType("Place"))
    pattern.add_edge("e1", "a", "b", BasicType("Knows"))
    pattern.add_edge("e2", "b", "c", BasicType("LocatedIn"))
    pattern.add_edge("e3", "a", "c", BasicType("LocatedIn"))
    return pattern


class TestConstruction:
    def test_vertex_and_edge_counts(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert set(triangle.vertex_names) == {"a", "b", "c"}

    def test_edge_requires_existing_vertices(self):
        pattern = PatternGraph()
        pattern.add_vertex("a")
        with pytest.raises(GirBuildError):
            pattern.add_edge("e", "a", "missing")

    def test_duplicate_edge_rejected(self, triangle):
        with pytest.raises(GirBuildError):
            triangle.add_edge("e1", "a", "b")

    def test_invalid_hop_range_rejected(self):
        pattern = PatternGraph()
        pattern.add_vertex("a")
        pattern.add_vertex("b")
        with pytest.raises(GirBuildError):
            pattern.add_edge("p", "a", "b", min_hops=3, max_hops=2)

    def test_re_adding_vertex_merges_constraints(self):
        pattern = PatternGraph()
        pattern.add_vertex("a", UnionType("Post", "Comment"))
        pattern.add_vertex("a", BasicType("Post"))
        assert pattern.vertex("a").constraint == BasicType("Post")

    def test_default_constraint_is_all(self):
        pattern = PatternGraph()
        pattern.add_vertex("a")
        assert pattern.vertex("a").constraint.is_all

    def test_unknown_lookup_raises(self, triangle):
        with pytest.raises(GirBuildError):
            triangle.vertex("zzz")
        with pytest.raises(GirBuildError):
            triangle.edge("zzz")


class TestTopology:
    def test_incident_and_neighbors(self, triangle):
        assert {e.name for e in triangle.incident_edges("a")} == {"e1", "e3"}
        assert set(triangle.neighbors("a")) == {"b", "c"}
        assert triangle.degree("b") == 2

    def test_out_in_edges(self, triangle):
        assert {e.name for e in triangle.out_edges("a")} == {"e1", "e3"}
        assert {e.name for e in triangle.in_edges("c")} == {"e2", "e3"}

    def test_edge_helpers(self, triangle):
        edge = triangle.edge("e1")
        assert edge.other_endpoint("a") == "b"
        assert edge.direction_from("a").value == "out"
        assert edge.direction_from("b").value == "in"
        with pytest.raises(GirBuildError):
            edge.other_endpoint("c")

    def test_connectivity(self, triangle):
        assert triangle.is_connected()
        disconnected = PatternGraph()
        disconnected.add_vertex("x")
        disconnected.add_vertex("y")
        assert not disconnected.is_connected()

    def test_path_edges_flag(self):
        pattern = PatternGraph()
        pattern.add_vertex("a")
        pattern.add_vertex("b")
        pattern.add_edge("p", "a", "b", min_hops=1, max_hops=3,
                         path_constraint=PathConstraint.SIMPLE)
        assert pattern.has_path_edges()
        assert pattern.edge("p").is_path


class TestFunctionalUpdates:
    def test_with_vertex_constraint(self, triangle):
        updated = triangle.with_vertex_constraint("a", UnionType("Person", "Product"))
        assert updated.vertex("a").constraint == UnionType("Person", "Product")
        assert triangle.vertex("a").constraint == BasicType("Person")  # original untouched

    def test_with_edge_constraint(self, triangle):
        updated = triangle.with_edge_constraint("e1", AllType())
        assert updated.edge("e1").constraint.is_all

    def test_with_edge_cannot_change_endpoints(self, triangle):
        moved = triangle.edge("e1").__class__(
            name="e1", src="a", dst="c", constraint=AllType())
        with pytest.raises(GirBuildError):
            triangle.with_edge(moved)

    def test_predicate_attachment(self, triangle):
        predicate = parse_expression("c.name = 'China'")
        updated = triangle.with_vertex(triangle.vertex("c").with_predicate(predicate))
        assert len(updated.vertex("c").predicates) == 1
        assert len(triangle.vertex("c").predicates) == 0

    def test_columns_attachment(self, triangle):
        updated = triangle.with_vertex(triangle.vertex("c").with_columns(["name"]))
        assert updated.vertex("c").columns == frozenset({"name"})


class TestSubpatterns:
    def test_subpattern_by_edges(self, triangle):
        sub = triangle.subpattern_by_edges(["e1"])
        assert set(sub.vertex_names) == {"a", "b"}
        assert set(sub.edge_names) == {"e1"}

    def test_subpattern_preserves_constraints(self, triangle):
        sub = triangle.subpattern_by_edges(["e2"])
        assert sub.vertex("c").constraint == BasicType("Place")

    def test_single_vertex_pattern(self, triangle):
        single = triangle.single_vertex_pattern("a")
        assert single.num_vertices == 1
        assert single.num_edges == 0

    def test_common_vertices_and_edges(self, triangle):
        other = triangle.subpattern_by_edges(["e1", "e2"])
        assert triangle.common_vertices(other) == frozenset({"a", "b", "c"})
        assert triangle.common_edges(other) == frozenset({"e1", "e2"})

    def test_merge_joins_on_shared_names(self):
        left = PatternGraph()
        left.add_vertex("a", BasicType("Person"))
        left.add_vertex("b", AllType())
        left.add_edge("e1", "a", "b")
        right = PatternGraph()
        right.add_vertex("b", BasicType("Product"))
        right.add_vertex("c", BasicType("Place"))
        right.add_edge("e2", "b", "c")
        merged = left.merge(right)
        assert merged.num_vertices == 3
        assert merged.num_edges == 2
        assert merged.vertex("b").constraint == BasicType("Product")

    def test_merge_conflicting_edge_endpoints_rejected(self):
        left = PatternGraph()
        left.add_vertex("a")
        left.add_vertex("b")
        left.add_edge("e", "a", "b")
        right = PatternGraph()
        right.add_vertex("a")
        right.add_vertex("b")
        right.add_edge("e", "b", "a")
        with pytest.raises(GirBuildError):
            left.merge(right)


class TestCanonicalKeys:
    def test_key_invariant_under_renaming(self):
        p1 = PatternGraph()
        p1.add_vertex("x", BasicType("Person"))
        p1.add_vertex("y", BasicType("Place"))
        p1.add_edge("e", "x", "y", BasicType("LocatedIn"))
        p2 = PatternGraph()
        p2.add_vertex("first", BasicType("Person"))
        p2.add_vertex("second", BasicType("Place"))
        p2.add_edge("edge", "first", "second", BasicType("LocatedIn"))
        assert p1.canonical_key() == p2.canonical_key()

    def test_key_distinguishes_direction(self):
        p1 = PatternGraph()
        p1.add_vertex("x", BasicType("A"))
        p1.add_vertex("y", BasicType("B"))
        p1.add_edge("e", "x", "y", BasicType("E"))
        p2 = PatternGraph()
        p2.add_vertex("x", BasicType("A"))
        p2.add_vertex("y", BasicType("B"))
        p2.add_edge("e", "y", "x", BasicType("E"))
        assert p1.canonical_key() != p2.canonical_key()

    def test_key_distinguishes_types(self, triangle):
        other = triangle.with_vertex_constraint("c", BasicType("Product"))
        assert triangle.canonical_key() != other.canonical_key()

    def test_triangle_vs_wedge(self):
        wedge = _pattern(["Person"] * 3, [(0, 1, "Knows"), (1, 2, "Knows")])
        triangle = _pattern(["Person"] * 3, [(0, 1, "Knows"), (1, 2, "Knows"), (0, 2, "Knows")])
        cycle = _pattern(["Person"] * 3, [(0, 1, "Knows"), (1, 2, "Knows"), (2, 0, "Knows")])
        keys = {p.canonical_key() for p in (wedge, triangle, cycle)}
        assert len(keys) == 3
        # the transitive triangle again, wired from another corner
        assert _pattern(["Person"] * 3, [(2, 0, "Knows"), (0, 1, "Knows"), (2, 1, "Knows")],
                        names="zyx").canonical_key() == triangle.canonical_key()

    def test_star_leaves_are_interchangeable(self):
        star = _pattern(["Person", "Post", "Post", "Post"],
                        [(0, 1, "Likes"), (0, 2, "Likes"), (0, 3, "Likes")])
        reordered = _pattern(["Post", "Post", "Person", "Post"],
                             [(2, 3, "Likes"), (2, 0, "Likes"), (2, 1, "Likes")], names="qrst")
        one_reversed = _pattern(["Person", "Post", "Post", "Post"],
                                [(0, 1, "Likes"), (0, 2, "Likes"), (3, 0, "Likes")])
        assert star.canonical_key() == reordered.canonical_key()
        assert star.canonical_key() != one_reversed.canonical_key()

    def test_same_labels_different_wiring(self):
        labels = ["Person", "Person", "Post", "Post"]
        each_likes_one = _pattern(labels, [(0, 1, "Knows"), (0, 2, "Likes"), (1, 3, "Likes")])
        one_likes_both = _pattern(labels, [(0, 1, "Knows"), (0, 2, "Likes"), (0, 3, "Likes")])
        assert each_likes_one.canonical_key() != one_likes_both.canonical_key()

    def test_refinement_alone_cannot_split_regular_patterns(self):
        # every vertex has one Knows in and one out in both patterns, so all six
        # stay one colour class: only the minimum within the class tells them apart
        hexagon = _pattern(["Person"] * 6, [(i, (i + 1) % 6, "Knows") for i in range(6)])
        two_triangles = _pattern(["Person"] * 6,
                                 [(0, 1, "Knows"), (1, 2, "Knows"), (2, 0, "Knows"),
                                  (3, 4, "Knows"), (4, 5, "Knows"), (5, 3, "Knows")])
        rotated = _pattern(["Person"] * 6, [(i, (i + 5) % 6, "Knows") for i in range(6)],
                           names="fedcba")
        assert hexagon.canonical_key() != two_triangles.canonical_key()
        assert hexagon.canonical_key() == rotated.canonical_key()

    def test_mutation_after_key_changes_key(self, triangle):
        before = triangle.canonical_key()
        assert triangle.with_vertex_constraint("c", BasicType("Product")).canonical_key() != before
        assert triangle.with_edge_constraint("e1", AllType()).canonical_key() != before
        extra = PatternGraph().add_vertex("c", BasicType("Place")).add_vertex("d", BasicType("Tag"))
        extra.add_edge("e4", "c", "d", BasicType("HasTag"))
        assert triangle.merge(extra).canonical_key() != before
        assert triangle.canonical_key() == before
        triangle.add_vertex("d", BasicType("Tag"))
        with_vertex = triangle.canonical_key()
        triangle.add_edge("e4", "c", "d", BasicType("HasTag"))
        assert len({before, with_vertex, triangle.canonical_key()}) == 3

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_same_classes_as_brute_force(self, data):
        """new_key(a) == new_key(b)  <=>  brute(a) == brute(b), on related and unrelated pairs."""
        labels, edges = data.draw(_shapes())
        first = _pattern(labels, edges)
        # an isomorphic copy: vertices permuted and renamed, edges inserted in another order
        order = data.draw(st.permutations(range(len(labels))))
        slot = {old: new for new, old in enumerate(order)}
        moved = [(slot[e[0]], slot[e[1]]) + e[2:] for e in data.draw(st.permutations(edges))]
        copy = _pattern([labels[old] for old in order], moved, names="zyxwvu")
        assert copy.canonical_key() == first.canonical_key()
        assert _brute_force_key(copy) == _brute_force_key(first)
        # a near miss (one edge reversed, which may or may not be an automorphism)
        # and an unrelated pattern: the two keys must agree on which are equal
        others = [data.draw(_shapes())]
        if edges:
            index = data.draw(st.integers(0, len(edges) - 1))
            flipped = (moved[index][1], moved[index][0]) + moved[index][2:]
            others.append(([labels[old] for old in order],
                           moved[:index] + [flipped] + moved[index + 1:]))
        for other_labels, other_edges in others:
            other = _pattern(other_labels, other_edges)
            assert (other.canonical_key() == first.canonical_key()) == \
                (_brute_force_key(other) == _brute_force_key(first))

    def test_describe_mentions_all_elements(self, triangle):
        text = triangle.describe()
        for name in ("a", "b", "c", "e1", "e2", "e3"):
            assert name in text


# -- canonical-key oracle -----------------------------------------------------------

def _brute_force_key(pattern):
    """Reference canonical form: the minimum (types, edges) code over all n! vertex orderings.

    This was ``PatternGraph._exact_canonical_key`` until the refinement-based
    key replaced it; it stays here as the oracle the fast key is checked against.
    """
    names = sorted(pattern.vertex_names)
    best = None
    for perm in itertools.permutations(range(len(names))):
        mapping = {name: perm[i] for i, name in enumerate(names)}
        vertex_code = tuple(
            label for _, label in sorted(
                (mapping[name], pattern.vertex(name).constraint.label()) for name in names
            )
        )
        edge_code = tuple(sorted(
            (mapping[e.src], mapping[e.dst], e.constraint.label(), e.min_hops, e.max_hops)
            for e in pattern.edges
        ))
        code = (vertex_code, edge_code)
        if best is None or code < best:
            best = code
    return ("exact",) + (best if best is not None else ((), ()))


def _pattern(labels, edges, names="abcdef"):
    """Pattern with vertex ``names[i]`` typed ``labels[i]``; edges are
    ``(src index, dst index, constraint[, min_hops, max_hops])``."""
    pattern = PatternGraph()
    for name, label in zip(names, labels):
        pattern.add_vertex(name, label)
    for number, (src, dst, constraint, *hops) in enumerate(edges):
        min_hops, max_hops = hops or (1, 1)
        pattern.add_edge("%s%d" % (names[-1], number), names[src], names[dst], constraint,
                         min_hops=min_hops, max_hops=max_hops)
    return pattern


# few distinct labels, so repeated labels, parallel edges and symmetric vertices are
# common; (1, 1) is listed twice to keep plain edges the usual case
_vertex_constraints = st.sampled_from(
    [BasicType("Person"), BasicType("Post"), UnionType("Post", "Comment"), AllType()])
_edge_constraints = st.sampled_from([BasicType("Knows"), UnionType("Likes", "Knows"), AllType()])
_hop_ranges = st.sampled_from([(1, 1), (1, 1), (1, 3), (0, 2)])


@st.composite
def _shapes(draw):
    labels = draw(st.lists(_vertex_constraints, min_size=1, max_size=6))
    vertex = st.integers(0, len(labels) - 1)
    edges = draw(st.lists(
        st.tuples(vertex, vertex, _edge_constraints, _hop_ranges).map(
            lambda e: e[:3] + e[3]),
        max_size=8))
    return labels, edges
