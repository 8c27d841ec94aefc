"""Intra-query parallelism: one query spread over partitioned worker pipelines.

The companion of ``concurrent_serving.py``: where that example fans *many*
queries over a thread pool, this one runs a *single* heavy traversal on the
``engine="dataflow"`` runtime -- the plan is compiled into per-partition
pipelines connected by hash-shuffle exchanges, executed by a pool of worker
threads over the graph partitioner's shards.

Three things to look at in the output:

* the dataflow rows are identical to the serial row engine's, at every
  worker count (scheduling never changes results);
* the exchange stats report the communication the runtime *observed* --
  the same number the cost model *simulates* as ``tuples_shuffled``;
* effective parallelism (total worker busy time / busiest worker) grows
  with the worker count, while raw wall clock on a GIL build does not.

Run with::

    python examples/parallel_dataflow.py
"""

from repro import GraphService
from repro.datasets import social_commerce_graph

TRAVERSAL = ("MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person) "
             "RETURN a.id AS a, b.id AS b, c.id AS c")


def main() -> None:
    graph = social_commerce_graph(num_persons=400, num_products=80,
                                  num_places=15, seed=9)
    service = GraphService(graph, backend="graphscope", num_partitions=8)
    print("running on %s, 8 partitions" % (service,))

    # serial reference: the row engine's answer is the ground truth
    with service.session(engine="row") as session:
        reference = session.run(TRAVERSAL).fetch_all()
    print("row engine: %d result rows" % len(reference))

    for workers in (1, 2, 4):
        # per-session override: same service, same plan cache, own parallelism
        with service.session(engine="dataflow", workers=workers) as session:
            cursor = session.run(TRAVERSAL)
            rows = cursor.fetch_all()
            metrics = cursor.consume()
            observed = cursor.exchange_stats or {}
            busy = cursor.worker_busy or [0.0]
        effective = sum(busy) / max(busy) if max(busy) > 0 else 1.0
        print("workers=%d: identical rows: %s | shuffled %d tuples "
              "(observed %s) | effective parallelism %.2fx"
              % (workers, rows == reference, metrics.tuples_shuffled,
                 observed.get("shuffled"), effective))

    # streaming cursors work too: the execution starts on the first pull,
    # and a close from another thread would cancel its in-flight workers
    with service.session(engine="dataflow") as session:
        cursor = session.run(TRAVERSAL)
        first = cursor.fetch_one()
        cursor.close()
        print("streamed first row then closed early:", first == reference[0])


if __name__ == "__main__":
    main()
