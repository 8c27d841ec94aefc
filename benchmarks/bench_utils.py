"""Helpers shared by the benchmark modules."""

import contextlib
import gc


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments already iterate over whole query suites, so a single
    timed round is representative and keeps the full benchmark run short.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@contextlib.contextmanager
def gc_paused():
    """Keep the cyclic collector out of a short timed comparison.

    The engine-ratio guards sum single samples of <= 40 ms; late in a long
    pytest process one full collection of the heap (cached graphs, GLogues)
    takes ~130 ms, and whichever engine it lands in loses the comparison.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
