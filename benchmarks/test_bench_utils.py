"""The reporting helpers every benchmark prints its table with."""

import pytest

from bench_utils import (
    OT,
    format_table,
    geometric_mean,
    runtime_or_ot,
    speedup,
    summarise_speedups,
)


def test_speedup():
    assert speedup(10.0, 2.0) == 5.0
    assert speedup(None, 2.0) is None
    assert speedup(10.0, 0.0) is None


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) is None


def test_runtime_or_ot():
    assert runtime_or_ot(1.5, False) == 1.5
    assert runtime_or_ot(1.5, True) == OT


def test_format_table():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": None}], title="demo")
    assert "demo" in text and "a" in text and "-" in text


def test_format_empty():
    assert "(no rows)" in format_table([])


def test_summarise_speedups():
    rows = [
        {"base": 10.0, "new": 1.0},
        {"base": OT, "new": 2.0},
        {"base": 4.0, "new": 4.0},
    ]
    summary = summarise_speedups(rows, "base", "new")
    assert summary["count"] == 2
    assert summary["baseline_ot_count"] == 1
    assert summary["max_speedup"] == pytest.approx(10.0)
