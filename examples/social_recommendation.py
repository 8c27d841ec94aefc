"""Friend recommendation on the LDBC-like social network (IC10-style CGP).

The example demonstrates the optimizer's individual techniques on a realistic
social-network workload: recommending friends-of-friends who share interests
with a person.  It runs the same query

* with the full GOpt pipeline, and
* with type inference / CBO disabled (the query's untyped variant then has to
  scan and expand far more of the graph),

and prints the measured work so the benefit of each technique is visible.

Run with::

    python examples/social_recommendation.py
"""

from repro import GraphService
from repro.datasets import ldbc_snb_graph
from repro.optimizer.planner import OptimizerConfig

RECOMMENDATION_QUERY = """
MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(fof:Person)-[:HAS_INTEREST]->(t:Tag)<-[:HAS_INTEREST]-(p)
WHERE p.id = 1
RETURN fof.id AS candidate, count(t) AS commonInterests
ORDER BY commonInterests DESC, candidate ASC
LIMIT 10
"""

UNTYPED_VARIANT = """
MATCH (m)-[:HAS_CREATOR]->(p:Person), (m)-[:HAS_TAG]->(t:Tag)-[:HAS_TYPE]->(tc:TagClass)
WHERE tc.name = 'Music'
RETURN p.id AS person, count(m) AS posts
ORDER BY posts DESC
LIMIT 10
"""


def run(service: GraphService, query: str, label: str) -> None:
    with service.session() as session:
        cursor = session.run(query)
        rows = cursor.fetch_all()
        metrics = cursor.consume()
    status = "OT" if metrics.timed_out else "%.4fs" % metrics.elapsed_seconds
    print("%-28s runtime=%-10s work=%-10d rows=%d"
          % (label, status, metrics.total_work, len(rows)))


def main() -> None:
    graph = ldbc_snb_graph("G100")
    print("social network:", graph)

    full = GraphService(graph, backend="graphscope")
    no_cbo = GraphService(graph, backend="graphscope",
                          config=OptimizerConfig(enable_cbo=False))
    no_inference = GraphService(graph, backend="graphscope",
                                config=OptimizerConfig(enable_type_inference=False,
                                                       enable_cbo=False))

    print("\n-- friend recommendation (cyclic pattern, explicit types) --")
    run(full, RECOMMENDATION_QUERY, "GOpt (full)")
    run(no_cbo, RECOMMENDATION_QUERY, "without CBO")

    print("\n-- expert search with an untyped message vertex --")
    run(full, UNTYPED_VARIANT, "GOpt (full)")
    run(no_inference, UNTYPED_VARIANT, "without type inference")

    print("\ntop recommendations for person 1:")
    with full.session() as session:
        recommendations = session.run(RECOMMENDATION_QUERY).fetch_all()
    for row in recommendations:
        print("  person %-4s shares %d interests" % (row["candidate"], row["commonInterests"]))


if __name__ == "__main__":
    main()
