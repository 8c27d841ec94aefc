"""The operator-kernel layer: registry completeness and shared value semantics.

Two contracts are locked down here:

* **registry completeness** -- every concrete PhysicalOperator subclass must
  have a registered kernel (or an explicitly declared fallback) for every
  execution mode, so adding an operator without wiring all engines fails in
  CI instead of at query time;
* **value-semantics parity** -- sorting and deduplication of mixed-type
  values (None, bools, ints, floats, strings) behave identically in every
  engine and streaming pipeline, because they all route through the single
  ``sort_key`` / ``row_key`` implementations in ``kernels.common``.

It also covers ``OverlayBinding``, the copy-free probe binding the element
matchers evaluate predicates against.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro import GraphService
from repro.backend.runtime.context import ExecutionContext
from repro.backend.runtime.kernels import registry
from repro.backend.runtime.kernels.common import OverlayBinding
from repro.backend.runtime.kernels.state import TopKState, sort_permutation
from repro.gir.expressions import TagRef
from repro.gir.operators import SortKey
from repro.graph.property_graph import PropertyGraph
from repro.optimizer.physical_plan import PhysicalOperator, Sort


class TestRegistryCompleteness:
    def test_every_operator_covered_in_every_mode(self):
        """No (mode, operator) pair without a kernel or a declared fallback."""
        assert registry.missing_registrations() == []

    def test_one_mode_per_engine(self):
        from repro.backend import ENGINES

        assert len(registry.MODES) == 3
        assert set(registry.MODES) == set(ENGINES)

    def test_dataflow_breakers_have_declared_fallbacks(self):
        from repro.optimizer.physical_plan import (
            Aggregate, Dedup, HashJoin, Limit, Sort, Union,
        )

        for op_type in (Sort, Aggregate, HashJoin, Limit, Dedup, Union):
            assert not registry.has_kernel(registry.MODE_DATAFLOW, op_type)
            reason = registry.fallback_reason(registry.MODE_DATAFLOW, op_type)
            assert reason and "driver" in reason

    def test_serial_modes_have_no_fallbacks(self):
        """Both serial pipelines stream every operator incrementally."""
        for mode in (registry.MODE_STREAM_ROWS, registry.MODE_STREAM_BATCHES):
            for op_type in registry.all_physical_operator_types():
                assert registry.has_kernel(mode, op_type), (
                    "%s lacks a %s kernel" % (op_type.__name__, mode))

    def test_new_operator_without_kernels_is_reported(self):
        """A freshly added PhysicalOperator subclass shows up as missing."""

        class PhantomOp(PhysicalOperator):
            pass

        try:
            missing = registry.missing_registrations()
            for mode in registry.MODES:
                assert (mode, "PhantomOp") in missing
        finally:
            del PhantomOp
            gc.collect()  # drop the subclass so later completeness checks pass

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            registry.kernel_for("interpreted", Sort)


# -- mixed-type sort/dedup parity ---------------------------------------------------

MIXED_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.text(alphabet="abxy", max_size=3),
)

ENGINES = ("row", "vectorized", "dataflow")


def _mixed_graph(values):
    graph = PropertyGraph()
    for index, value in enumerate(values):
        graph.add_vertex("Thing", {"score": value, "id": index})
    # a couple of edges so the optimizer has non-trivial statistics
    for index in range(len(values) - 1):
        graph.add_edge(index, index + 1, "NEXT")
    return graph


class TestMixedTypeValueParity:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(MIXED_VALUES, min_size=1, max_size=12))
    def test_all_engines_sort_and_dedup_identically(self, values):
        graph = _mixed_graph(values)
        gopt = GraphService(graph, backend="graphscope", num_partitions=2,
                            timeout_seconds=30.0, plan_cache_size=None)
        for query in (
            "MATCH (a:Thing) RETURN a.score AS s ORDER BY s",
            "MATCH (a:Thing) RETURN a.score AS s ORDER BY s DESC LIMIT 3",
            "MATCH (a:Thing) RETURN DISTINCT a.score AS s",
        ):
            plan = gopt.optimize(query).physical_plan
            reference = gopt.backend.execute(plan, engine="row").rows
            for engine in ENGINES:
                result = gopt.backend.execute(plan, engine=engine)
                assert result.rows == reference, (query, engine)
            for engine in ("row", "vectorized"):
                streamed = list(gopt.backend.execute_streaming(plan, engine=engine))
                assert streamed == reference, (query, engine)


class TestTopKKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(MIXED_VALUES, min_size=0, max_size=30),
           st.integers(min_value=0, max_value=8),
           st.booleans())
    def test_topk_equals_stable_sort_prefix(self, values, k, ascending):
        """The bounded heap reproduces the full stable sort's first k rows."""
        op = Sort(keys=(SortKey(expr=TagRef("s"), ascending=ascending),), limit=k)
        rows = [{"s": value, "i": index} for index, value in enumerate(values)]
        ctx = ExecutionContext(PropertyGraph())
        full_order = sort_permutation(op, ctx, len(rows), rows.__getitem__)
        expected = [rows[index] for index in full_order]

        state = TopKState(op, ctx)
        for row in rows:
            state.add(row)
        assert state.finish() == expected
        assert ctx.peak_held_rows <= k


class TestOverlayBinding:
    def test_overlay_prefers_extra(self):
        overlay = OverlayBinding({"a": 1}, {"a": 99, "x": 7})
        assert overlay.get("a") == 99
        assert overlay.get("x") == 7
        assert overlay.get("missing", "dflt") == "dflt"

    def test_overlay_without_base(self):
        overlay = OverlayBinding(None, {"t": 3})
        assert overlay.get("t") == 3
        assert overlay.get("u") is None
