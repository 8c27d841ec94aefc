"""The public surface: what the three ``__all__`` lists promise, and the
names this repo no longer has."""

import importlib
import inspect

import pytest

import repro
from repro import GraphService, ResultCursor
from repro.backend import (
    ExecutionMetrics, ExecutionOptions, ExecutionResult, Neo4jLikeBackend)
from repro.backend.runtime.context import ExecutionContext, WorkCounters
from repro.client import GraphClient
from repro.optimizer.planner import OptimizerConfig
from repro.server.wire import QueryResultWire
from repro.service import ConcurrentExecutor, QueryOutcome, Session

QUERY = "MATCH (p:Person) RETURN p.name AS name"


@pytest.mark.parametrize("module_name", ["repro", "repro.service", "repro.backend"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_removed_names_are_gone(social_graph):
    import repro.backend
    import repro.errors
    import repro.backend.runtime.dataflow as dataflow

    assert not hasattr(repro, "GOpt")
    assert not hasattr(repro, "OptimizedQuery")
    assert not hasattr(repro.backend, "StreamingResult")
    assert not hasattr(repro.backend.base, "StreamingResult")
    for module_name in ("repro.api", "repro.bench",
                        "repro.backend.runtime.columnar"):
        with pytest.raises(ImportError):
            importlib.import_module(module_name)
    # one row format for every engine: no column batches, cursors or sinks
    import repro.backend.runtime as runtime
    import repro.backend.runtime.kernels.common as common
    import repro.backend.runtime.kernels.sinks as sinks
    for name in ("ColumnBatch", "RowCursor", "MISSING"):
        assert not hasattr(runtime, name), name
    assert not hasattr(sinks, "BatchSink")
    assert not hasattr(common, "normalized_column")
    # the search switches live on PatternSearcher only
    config = OptimizerConfig()
    for name in ("enable_pruning", "enable_join_transform", "enable_greedy_bound"):
        assert not hasattr(config, name), name
        with pytest.raises(TypeError):
            OptimizerConfig(**{name: False})
    for alias in ("for_graph", "executor"):
        assert not hasattr(GraphService, alias), alias
    for name in ("BROADCAST_THRESHOLD", "DataflowRowStream",
                 "open_dataflow_stream", "Morsel", "morselize",
                 "recover_on_row_engine"):
        assert not hasattr(dataflow, name), name
    # one failure policy for every engine: no row-engine fallback, no
    # degraded results, no opt-out knob, no retry loop on top
    assert not hasattr(repro.errors, "WorkerFailure")
    assert not hasattr(dataflow.DataflowExecutor, "_wrap_failure")
    for owner in (ExecutionMetrics, QueryOutcome, QueryResultWire):
        assert not hasattr(owner, "degraded"), owner
    assert not hasattr(ExecutionMetrics, "degraded_reason")
    ctx = ExecutionContext(social_graph)
    for name in ("degraded", "simulate_shuffles"):
        assert not hasattr(ctx, name), name
    assert "engine" not in inspect.signature(
        GraphService.optimize_deferred).parameters
    with pytest.raises(TypeError):
        Neo4jLikeBackend(social_graph, fallback_on_fault=False)
    service = GraphService(social_graph, backend="neo4j")
    for keyword in ("max_retries", "retry_backoff_seconds"):
        with pytest.raises(TypeError):
            ConcurrentExecutor(service, **{keyword: 1})


def test_the_dataflow_engine_has_no_threads_to_configure(social_graph):
    """No ``workers`` knob at any layer, no per-worker busy time, no context
    forks, no channels: the dataflow engine runs on the caller's thread."""
    import repro.backend.runtime.dataflow as dataflow

    with pytest.raises(TypeError):
        Neo4jLikeBackend(social_graph, workers=2)
    with pytest.raises(TypeError):
        ExecutionOptions(workers=2)
    with pytest.raises(TypeError):
        ExecutionOptions().override(workers=2)
    with pytest.raises(TypeError):
        GraphService(social_graph, backend="neo4j").session(workers=2)
    assert "workers" not in inspect.signature(GraphClient.session).parameters
    assert not hasattr(Session, "workers")
    for owner in (ResultCursor, ExecutionResult):
        assert not hasattr(owner, "worker_busy"), owner
    assert not hasattr(ExecutionContext, "fork")
    assert not hasattr(WorkCounters, "merge")
    assert not hasattr(dataflow, "Channel")
    with pytest.raises(ImportError):
        importlib.import_module("repro.backend.runtime.dataflow.channel")


def test_one_result_handle_at_every_layer(social_graph):
    service = GraphService(social_graph, backend="neo4j")
    plan = service.optimize(QUERY).physical_plan
    raw = service.backend.execute_streaming(plan)
    with service.session() as session:
        cursor = session.run(QUERY)
        assert type(raw) is type(cursor) is ResultCursor
        assert raw.report is None and cursor.report is not None
        assert raw.fetch_all() == cursor.fetch_all()
    assert repro.service.ResultCursor is repro.backend.ResultCursor is ResultCursor
