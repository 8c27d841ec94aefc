"""Prepared statements: type-only plan keying, fallback, validation."""

import pytest

from repro import GraphService
from repro.errors import GOptError
from repro.plan_cache import freeze_type, parameter_type_signature

TEMPLATE = "MATCH (p:Person) WHERE p.id IN $ids RETURN p.name AS name"


def inlined_rows(graph, query, parameters):
    """Rows of ``query`` on a fresh service, values inlined, run to completion."""
    reference = GraphService(graph, backend="graphscope", num_partitions=2)
    report = reference.optimize(query, "cypher", parameters)
    return reference.backend.execute(report.physical_plan).rows


@pytest.fixture()
def service(social_graph):
    return GraphService(social_graph, backend="graphscope", num_partitions=2,
                        plan_cache_size=32)


class TestTypeOnlyKeying:
    def test_n_distinct_values_one_entry(self, service):
        """Regression: parameter *values* must not fan out cache entries.

        ``GraphService.optimize`` keys inlined plans on full value signatures, so a
        parameterized workload re-optimizes per value; prepared statements
        must collapse N distinct value sets to one entry with N-1 hits.
        """
        n = 100
        with service.session() as session:
            prepared = session.prepare(TEMPLATE)
            assert prepared.deferred
            for index in range(n):
                rows = prepared.run({"ids": [index % 40]}).fetch_all()
                assert len(rows) == 1
        info = service.cache_info()
        assert info.size == 1
        assert info.misses == 1
        assert info.hits == n - 1

    def test_shared_across_prepares_and_sessions(self, service):
        with service.session() as first:
            first.prepare(TEMPLATE).run({"ids": [1]}).fetch_all()
        with service.session() as second:
            second.prepare(TEMPLATE).run({"ids": [2, 3]}).fetch_all()
        info = service.cache_info()
        assert (info.size, info.misses, info.hits) == (1, 1, 1)

    def test_session_run_with_parameters_uses_prepared_path(self, service):
        with service.session() as session:
            for index in range(5):
                session.run(TEMPLATE, parameters={"ids": [index]}).fetch_all()
        info = service.cache_info()
        assert (info.size, info.misses, info.hits) == (1, 1, 4)

    def test_type_change_is_a_new_entry(self, service):
        query = "MATCH (p:Person) WHERE p.id = $x RETURN count(p) AS c"
        with service.session() as session:
            prepared = session.prepare(query)
            prepared.run({"x": 1}).fetch_all()
            prepared.run({"x": 2}).fetch_all()       # same type: hit
            prepared.run({"x": "one"}).fetch_all()   # str: new entry
        info = service.cache_info()
        assert (info.size, info.misses, info.hits) == (2, 2, 1)

    def test_results_match_inlined_execution(self, service, social_graph):
        with service.session() as session:
            prepared = session.prepare(TEMPLATE)
            for ids in ([0, 1], [5, 6, 7], [39]):
                assert (prepared.run({"ids": ids}).fetch_all()
                        == inlined_rows(social_graph, TEMPLATE, {"ids": ids}))

    def test_prepared_without_shared_cache_still_reuses_plan(self, social_graph, monkeypatch):
        service = GraphService(social_graph, backend="neo4j", plan_cache_size=None)
        calls = []
        original = service.optimizer.optimize
        monkeypatch.setattr(service.optimizer, "optimize",
                            lambda plan: calls.append(1) or original(plan))
        with service.session() as session:
            prepared = session.prepare(TEMPLATE)
            for index in range(10):
                prepared.run({"ids": [index]}).fetch_all()
        assert len(calls) == 1  # optimized once, memoized locally


class TestDeferredSemantics:
    def test_missing_parameter_raises(self, service):
        with service.session() as session:
            prepared = session.prepare(TEMPLATE)
            assert prepared.parameter_names == {"ids"}
            with pytest.raises(GOptError, match=r"\$ids"):
                prepared.run({})

    def test_unreferenced_parameters_do_not_fragment_cache(self, service):
        """Extra keys (e.g. a shared context dict) must not split entries."""
        with service.session() as session:
            prepared = session.prepare(TEMPLATE)
            prepared.run({"ids": [1]}).fetch_all()
            prepared.run({"ids": [2], "junk": "a"}).fetch_all()
            prepared.run({"ids": [3], "junk": 7, "more": None}).fetch_all()
        info = service.cache_info()
        assert (info.size, info.misses, info.hits) == (1, 1, 2)

    def test_explain_needs_no_values(self, service):
        """Deferred plans are symbolic: explain() works without parameters."""
        with service.session() as session:
            text = session.prepare(TEMPLATE).explain()
        assert "physical plan" in text

    def test_template_parse_is_cached(self, service, monkeypatch):
        """Session.run with parameters must not re-parse a hot template."""
        parses = []
        original = type(service).parse
        monkeypatch.setattr(type(service), "parse",
                            lambda self, *a, **kw: parses.append(1) or original(self, *a, **kw))
        query = "MATCH (p:Person) WHERE p.name = $name RETURN p.id AS id"
        with service.session() as session:
            for index in range(10):
                session.run(query, parameters={"name": "Ada %d" % index}).fetch_all()
        assert len(parses) == 1

    def test_explain_shows_symbolic_parameter(self, service):
        # a parameter in a projection expression survives into the plan text
        # (pattern-pushed predicates are summarized, not printed)
        with service.session() as session:
            text = session.prepare(
                "MATCH (p:Person) RETURN p.age + $delta AS a").explain({"delta": 1})
        assert "$delta" in text

    def test_graph_mutation_bypasses_stale_prepared_plan(self):
        from repro.datasets import social_commerce_graph

        graph = social_commerce_graph(num_persons=20, num_products=5,
                                      num_places=3, seed=11)
        service = GraphService(graph, backend="neo4j")
        query = "MATCH (p:Person) WHERE p.age > $min RETURN count(p) AS c"
        with service.session() as session:
            prepared = session.prepare(query)
            before = prepared.run({"min": -1}).fetch_all()[0]["c"]
            graph.add_vertex("Person", {"id": 10_000, "name": "new", "age": 99})
            after = prepared.run({"min": -1}).fetch_all()[0]["c"]
        assert after == before + 1
        assert service.cache_info().size == 2  # one entry per environment

    def test_gremlin_prepare(self, service):
        with service.session() as session:
            prepared = session.prepare("g.V().hasLabel('Person').count()",
                                       language="gremlin")
            assert prepared.deferred and not prepared.parameter_names
            first = prepared.run().fetch_all()
            second = prepared.run().fetch_all()
        assert first == second
        assert service.cache_info().hits == 1


class TestInlineFallback:
    def test_structural_parameter_falls_back(self, service):
        with service.session() as session:
            prepared = session.prepare(
                "MATCH (p:Person) RETURN p.name AS n LIMIT $n")
            assert not prepared.deferred
            assert len(prepared.run({"n": 4}).fetch_all()) == 4
            assert len(prepared.run({"n": 2}).fetch_all()) == 2
        # inline plans are value-keyed: one entry per distinct value set
        assert service.cache_info().size == 2

    def test_fallback_matches_inlined_execution(self, service, social_graph):
        query = "MATCH (p:Person) RETURN p.name AS n LIMIT $n"
        with service.session() as session:
            prepared = session.prepare(query)
            assert (prepared.run({"n": 7}).fetch_all()
                    == inlined_rows(social_graph, query, {"n": 7}))

    @pytest.mark.parametrize("value", ['O\'Brien "x"', 1e16, 1.5e-07])
    @pytest.mark.parametrize("query", [
        "MATCH (p:Person) WHERE p.name = $n RETURN $v AS v LIMIT $k",
        "MATCH (p:Person {name: $n}) RETURN $v AS v LIMIT $k",
    ])
    def test_inline_binds_the_deferred_value(self, service, social_graph, query, value):
        """Inlined values reach the plan as given, not as query text: a string
        holding both quote kinds and a float whose repr has an exponent bind
        exactly what the deferred path binds."""
        person = next(iter(social_graph.vertices_of_type("Person")))
        parameters = {"n": social_graph.vertex_property(person, "name"), "v": value, "k": 1}
        with service.session() as session:
            deferred = session.prepare("MATCH (p:Person) WHERE p.name = $n RETURN $v AS v LIMIT 1")
            inline = session.prepare(query)
            assert deferred.deferred and not inline.deferred
            assert deferred.run(parameters).fetch_all() == [{"v": value}]
            assert inline.run(parameters).fetch_all() == [{"v": value}]


class TestTypeSignatures:
    def test_freeze_type_ignores_values(self):
        assert freeze_type([1, 2]) == freeze_type([7, 8, 9])
        assert freeze_type("a") == freeze_type("zzz")
        assert freeze_type({"k": 1}) == freeze_type({"k": 99})

    def test_freeze_type_distinguishes_types(self):
        assert freeze_type(1) != freeze_type(1.0)
        assert freeze_type(1) != freeze_type(True)
        assert freeze_type([1]) != freeze_type(["a"])
        assert freeze_type([1]) != freeze_type((1,))
        assert freeze_type({"k": 1}) != freeze_type({"j": 1})

    def test_signature_order_insensitive_and_value_free(self):
        assert (parameter_type_signature({"a": 1, "b": "x"})
                == parameter_type_signature({"b": "y", "a": 2}))
        assert parameter_type_signature(None) == ()
        assert parameter_type_signature({}) == ()
