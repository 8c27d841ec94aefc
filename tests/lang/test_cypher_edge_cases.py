"""Additional Cypher front-end edge cases."""

import pytest

from repro.errors import ParseError
from repro.gir.operators import MatchPatternOp, OrderOp, ProjectOp
from repro.lang.cypher import cypher_to_gir, parse_cypher


class TestParserEdgeCases:
    def test_anonymous_nodes_and_relationships(self):
        plan = cypher_to_gir("MATCH (:Person)-[]->(:Post) RETURN count(*) AS cnt")
        pattern = plan.patterns()[0].pattern
        assert pattern.num_vertices == 2 and pattern.num_edges == 1
        assert all(name.startswith("_") for name in pattern.vertex_names)

    def test_bare_arrow_relationships(self):
        ast = parse_cypher("MATCH (a)-->(b)<--(c) RETURN a")
        rels = ast.parts[0].clauses[0].patterns[0].relationships
        assert rels[0].direction == "out"
        assert rels[1].direction == "in"

    def test_undirected_relationship_treated_as_outgoing(self):
        ast = parse_cypher("MATCH (a)-[e:KNOWS]-(b) RETURN a")
        assert ast.parts[0].clauses[0].patterns[0].relationships[0].direction == "both"
        plan = cypher_to_gir("MATCH (a)-[e:KNOWS]-(b) RETURN a")
        edge = plan.patterns()[0].pattern.edge("e")
        assert edge.src == "a" and edge.dst == "b"

    def test_relationship_property_map(self):
        plan = cypher_to_gir("MATCH (a)-[e:KNOWS {since: 2020}]->(b) RETURN a")
        assert len(plan.patterns()[0].pattern.edge("e").predicates) == 1

    def test_skip_clause_is_accepted(self):
        plan = cypher_to_gir("MATCH (a:Person) RETURN a.id AS id ORDER BY id SKIP 5 LIMIT 3")
        orders = [n for n in plan.nodes() if isinstance(n, OrderOp)]
        assert orders[0].limit == 3

    def test_keyword_case_insensitivity(self):
        plan = cypher_to_gir("match (a:Person) where a.id = 1 return a.id as x limit 1")
        assert any(isinstance(n, ProjectOp) for n in plan.nodes())

    def test_string_parameter_escaping(self):
        plan = cypher_to_gir("MATCH (a:Person) WHERE a.firstName = $name RETURN a",
                             parameters={"name": "O'Hara"})
        assert plan.patterns()

    def test_property_map_parameters_bind_as_given(self):
        ast = parse_cypher("MATCH (a {score: $f, name: $s})-[e:KNOWS {w: $g}]->(b) RETURN a",
                           parameters={"f": 1e16, "s": 'O\'Brien "x"', "g": 1.5e-07})
        pattern = ast.parts[0].clauses[0].patterns[0]
        assert pattern.nodes[0].properties == (("score", 1e16), ("name", 'O\'Brien "x"'))
        assert pattern.relationships[0].properties == (("w", 1.5e-07),)

    def test_hop_range_parameters_inlined(self):
        ast = parse_cypher("MATCH (a)-[p:KNOWS*$lo..$hi]->(b) RETURN a",
                           parameters={"lo": 2, "hi": 3})
        rel = ast.parts[0].clauses[0].patterns[0].relationships[0]
        assert (rel.min_hops, rel.max_hops) == (2, 3)
        ast = parse_cypher("MATCH (a)-[p:KNOWS*$h]->(b) RETURN a", parameters={"h": 2})
        rel = ast.parts[0].clauses[0].patterns[0].relationships[0]
        assert (rel.min_hops, rel.max_hops) == (2, 2)

    @pytest.mark.parametrize("value", [2.5, "3", True])
    def test_structural_parameter_must_be_an_integer(self, value):
        with pytest.raises(ParseError, match="LIMIT expects a number"):
            parse_cypher("MATCH (a) RETURN a LIMIT $k", parameters={"k": value})
        with pytest.raises(ParseError, match="a hop range expects a number"):
            parse_cypher("MATCH (a)-[p:KNOWS*1..$h]->(b) RETURN a", parameters={"h": value})

    @pytest.mark.parametrize("query", [
        "MATCH (a) RETURN a LIMIT $k",
        "MATCH (a)-[p:KNOWS*1..$h]->(b) RETURN a",
        "MATCH (a {name: $n}) RETURN a",
    ])
    def test_structural_parameters_cannot_be_deferred(self, query):
        # the prepared-query path relies on this error to fall back to inlining
        with pytest.raises(ParseError):
            parse_cypher(query, defer_parameters=True)

    def test_open_ended_star(self):
        ast = parse_cypher("MATCH (a)-[p:KNOWS*]->(b) RETURN a")
        rel = ast.parts[0].clauses[0].patterns[0].relationships[0]
        assert rel.is_path and rel.max_hops >= rel.min_hops

    def test_star_with_upper_bound_only(self):
        ast = parse_cypher("MATCH (a)-[p:KNOWS*..3]->(b) RETURN a")
        rel = ast.parts[0].clauses[0].patterns[0].relationships[0]
        assert rel.min_hops == 1 and rel.max_hops == 3

    def test_missing_return_is_allowed_for_match_only(self):
        # a dangling query without RETURN parses but cannot be lowered
        ast = parse_cypher("MATCH (a:Person) RETURN a")
        assert len(ast.parts[0].clauses) == 2

    def test_empty_query_rejected(self):
        with pytest.raises(ParseError):
            parse_cypher("")

    def test_union_distinct_flag(self):
        ast = parse_cypher("MATCH (a:Person) RETURN a.id AS id "
                           "UNION MATCH (b:Product) RETURN b.id AS id")
        assert ast.union_all is False

    def test_multiple_with_stages(self):
        plan = cypher_to_gir("""
            MATCH (a:Person)-[:KNOWS]->(b:Person)
            WITH b, count(a) AS fans
            MATCH (b)-[:HAS_INTEREST]->(t:Tag)
            RETURN t.name AS tag, sum(fans) AS total
            ORDER BY total DESC
            LIMIT 5
        """)
        matches = [n for n in plan.nodes() if isinstance(n, MatchPatternOp)]
        assert len(matches) == 2
