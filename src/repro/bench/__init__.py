"""Benchmark harness regenerating the paper's tables and figures.

:mod:`repro.bench.experiments` has one entry point per experiment (Table 1,
Table 3, Fig. 8(a)-(e), Fig. 9(a)/(b), Fig. 10, Fig. 11); each returns a list
of row dictionaries that :mod:`repro.bench.reporting` can render as a text
table.  The ``benchmarks/`` directory wires these entry points into
pytest-benchmark targets; the same functions run at reduced scale inside the
test suite.
"""

from repro.bench.pipelines import build_optimizer
from repro.bench.reporting import format_table, geometric_mean, speedup
from repro.bench import experiments

__all__ = [
    "build_optimizer",
    "format_table",
    "geometric_mean",
    "speedup",
    "experiments",
]
