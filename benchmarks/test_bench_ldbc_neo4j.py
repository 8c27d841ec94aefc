"""Fig. 9(a): LDBC IC/BI — Neo4j-plan vs GOpt-plan executed on the Neo4j-like backend."""

from bench_utils import format_table, ldbc_experiment, run_once, summarise_speedups


def test_bench_ldbc_on_neo4j(benchmark, g100):
    graph, glogue = g100
    rows = run_once(benchmark, ldbc_experiment, graph,
                    backend_kind="neo4j", glogue=glogue)
    print()
    print(format_table(rows, title="Fig. 9(a): LDBC queries on the Neo4j-like backend (seconds)"))
    summary = summarise_speedups(rows, "neo4j_plan", "gopt_plan")
    print("speedup summary:", summary)
    wins = sum(1 for row in rows
               if (row["neo4j_plan"] == "OT" and row["gopt_plan"] != "OT")
               or (isinstance(row["neo4j_plan_work"], (int, float))
                   and isinstance(row["gopt_plan_work"], (int, float))
                   and row["gopt_plan_work"] <= row["neo4j_plan_work"] * 1.05))
    print("GOpt wins or ties on %d / %d queries" % (wins, len(rows)))
    assert wins >= len(rows) * 0.5
