"""Engine-ratio smoke benchmark: the batch pipeline must not cost more than
the row pipeline.

Both serial engines are generator pipelines over the shared operator-kernel
layer (``backend/runtime/kernels``) and the same dict rows; the vectorized
one moves them in lists.  This smoke run re-executes the row/vectorized
engine comparison (``bench_utils.engine_comparison_experiment``) on a query
subset and asserts that the vectorized engine is not slower in aggregate.

Measured on this suite (G30, IC+BI subset, ``Backend.execute`` = drained
stream, 2 vCPU shared with other load, 6 runs): vectorized/row runtime
ratio 0.68-0.85, median 0.82; the larger scaling suite
(``test_bench_scaling_engines``) read 0.80 and 0.87 in two runs.  Each query
is a single sample of <= 40 ms, so the comparison runs with the cyclic GC
paused (``bench_utils.gc_paused``): with it on, one full collection moved
the scaling ratio anywhere between 0.63 and 2.05 depending on what ran
earlier in the process.  The asserted bound leaves headroom for loaded CI
runners, not for a structural regression.
"""

from bench_utils import engine_comparison_experiment, format_table, gc_paused, run_once

SMOKE_QUERIES = ("IC1", "IC2", "IC5", "IC9", "BI2", "BI9")

#: measured vectorized/row ratio on this subset (~0.82) plus generous CI
#: noise allowance -- a batch-pipeline overhead regression shows up far above
RATIO_BOUND = 1.25


def test_bench_kernel_layer_keeps_engine_ratio(benchmark, g30):
    graph, glogue = g30
    with gc_paused():
        rows = run_once(benchmark, engine_comparison_experiment,
                        graph, query_names=SMOKE_QUERIES, glogue=glogue)
    print()
    print(format_table(rows, title="Kernel-layer smoke: row vs vectorized (G30)"))
    assert all(row["rows_match"] for row in rows)
    completed = [r for r in rows if isinstance(r["row_seconds"], float)
                 and isinstance(r["vectorized_seconds"], float)]
    assert completed, "every smoke query timed out"
    row_total = sum(r["row_seconds"] for r in completed)
    vec_total = sum(r["vectorized_seconds"] for r in completed)
    ratio = vec_total / row_total if row_total else 1.0
    print("kernel-layer vectorized/row ratio: %.3f (bound %.2f)"
          % (ratio, RATIO_BOUND))
    assert ratio <= RATIO_BOUND, (
        "vectorized engine slower than the row engine beyond noise "
        "(ratio %.3f)" % ratio)
