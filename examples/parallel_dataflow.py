"""Observed communication: one query run over partitioned pipelines.

The companion of ``concurrent_serving.py``: where that example fans *many*
queries over a thread pool, this one runs a *single* traversal on the
``engine="dataflow"`` runtime -- the plan is compiled into per-partition
pipelines connected by hash-shuffle exchanges over the graph
partitioner's shards, and morsels are pushed through them on the caller's
thread.

Two things to look at in the output, at every partition count:

* the dataflow rows are identical to the serial row engine's;
* the rows the exchanges *observed* crossing partitions equal the
  ``tuples_shuffled`` the cost model *simulates* on the row engine.

Run with::

    python examples/parallel_dataflow.py
"""

from repro import GraphService
from repro.datasets import social_commerce_graph

TRAVERSAL = ("MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person) "
             "RETURN a.id AS a, b.id AS b, c.id AS c")


def main() -> None:
    graph = social_commerce_graph(num_persons=250, num_products=50,
                                  num_places=10, seed=9)
    for num_partitions in (2, 4, 8):
        service = GraphService(graph, backend="graphscope",
                               num_partitions=num_partitions)
        # serial reference: the row engine's answer and simulated shuffles
        with service.session(engine="row") as session:
            cursor = session.run(TRAVERSAL)
            reference = cursor.fetch_all()
            simulated = cursor.consume().tuples_shuffled
        with service.session(engine="dataflow") as session:
            cursor = session.run(TRAVERSAL)
            rows = cursor.fetch_all()
            observed = cursor.exchange_stats
        print("%d partitions: %d rows, identical to row engine: %s | "
              "shuffled: simulated %d, observed %d | local %d, gathered %d"
              % (num_partitions, len(rows), rows == reference, simulated,
                 observed["shuffled"], observed["local"], observed["gathered"]))
        if rows != reference or observed["shuffled"] != simulated:
            raise SystemExit("dataflow run disagrees with the row engine")

    # streaming cursors work too: the execution starts on the first pull,
    # and a close from another thread would cancel it at its next checkpoint
    with service.session(engine="dataflow") as session:
        cursor = session.run(TRAVERSAL)
        first = cursor.fetch_one()
        cursor.close()
        print("streamed first row then closed early:", first == reference[0])


if __name__ == "__main__":
    main()
