"""Wire-model tests: JSON round-trips and field parity with the in-process
result/explain objects, plus the ``to_dict`` observability satellites."""

import json

import pytest

from repro.backend.base import ExecutionMetrics
from repro.plan_cache import PlanCache, PlanCacheInfo
from repro.server.wire import (
    CursorChunkWire,
    CursorWire,
    ErrorWire,
    ExplainPlanWire,
    PreparedWire,
    QueryResultWire,
    SessionWire,
    columns_of,
)
from repro.service import GraphService
from repro.service.admission import AdmissionController


def roundtrip(model):
    """to_dict -> json -> from_dict must reproduce the model exactly."""
    payload = json.loads(json.dumps(model.to_dict()))
    return type(model).from_dict(payload)


METRICS = ExecutionMetrics(
    elapsed_seconds=0.25, intermediate_results=10, edges_traversed=20,
    vertices_scanned=30, tuples_shuffled=5, operators_executed=4,
    cells_produced=8)


def test_query_result_roundtrip():
    model = QueryResultWire(
        query="MATCH (p) RETURN p.name AS n", rows=[{"n": "ann"}, {"n": "bob"}],
        row_count=2, columns=["n"], execution_time_ms=1.5, truncated=True,
        warning="truncated", metrics=METRICS.as_dict(), peak_held_rows=7)
    assert roundtrip(model) == model


def test_query_result_field_parity_with_execution_metrics():
    """Every counter of ExecutionMetrics.as_dict() must survive the wire."""
    model = QueryResultWire.from_rows("q", [{"a": 1, "b": 2}], metrics=METRICS,
                                      peak_held_rows=3)
    assert model.row_count == 1
    assert model.columns == ["a", "b"]
    assert model.execution_time_ms == pytest.approx(250.0)
    assert model.peak_held_rows == 3
    assert set(model.metrics) == set(METRICS.as_dict())
    assert model.metrics["edges_traversed"] == 20
    back = roundtrip(model)
    assert back.metrics == METRICS.as_dict()
    assert back.column("a") == [1]
    assert not back.is_empty and back.column_count == 2


def test_columns_of_merges_heterogeneous_rows():
    assert columns_of([{"a": 1}, {"b": 2, "a": 3}, {}]) == ["a", "b"]
    assert columns_of([]) == []


def test_explain_roundtrip_and_parity(serving_service):
    report = serving_service.optimize(
        "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS n")
    model = ExplainPlanWire.from_report("q", report)
    assert model.plan == report.explain()
    assert model.estimated_cost == report.estimated_cost
    assert model.plan_json["applied_rules"] == list(report.applied_rules)
    assert "physical plan" in model.plan
    assert roundtrip(model) == model


def test_session_prepared_cursor_chunk_roundtrips():
    for model in (
        SessionWire(session_id="s-1", tenant="t", engine="vectorized",
                    ttl_seconds=12.5),
        PreparedWire(statement_id="s-1-q1", query="q", language="cypher",
                     deferred=True, parameter_names=["a", "b"]),
        CursorWire(cursor_id="c-9", session_id="s-1", query="q",
                   ttl_seconds=3.0),
        CursorChunkWire(cursor_id="c-9", rows=[{"x": None}], row_count=1,
                        exhausted=True, timed_out=False,
                        metrics=METRICS.as_dict(), peak_held_rows=0),
        ErrorWire(type="ParseError", message="boom", status=400,
                  retry_after_seconds=None),
        ErrorWire(type="ServiceOverloadedError", message="full", status=429,
                  retry_after_seconds=0.25),
    ):
        assert roundtrip(model) == model


def test_from_dict_rejects_missing_required_fields():
    with pytest.raises(ValueError, match="missing field 'rows'"):
        QueryResultWire.from_dict({"query": "q", "row_count": 0, "columns": []})
    with pytest.raises(ValueError, match="missing field 'error'"):
        ErrorWire.from_dict({})


# -- the to_dict() observability satellites ------------------------------------

def test_admission_stats_to_dict():
    controller = AdmissionController(max_concurrent=2, max_queue_depth=2)
    tickets = [controller.admit("a"), controller.admit("a")]
    controller.begin(tickets[0])
    stats = controller.stats().to_dict()
    assert stats == {"admitted": 2, "rejected": 0, "expired": 0,
                     "completed": 0, "in_flight": 2, "running": 1, "queued": 1}
    assert json.loads(json.dumps(stats)) == stats
    for ticket in tickets:
        controller.finish(ticket)


def test_plan_cache_info_to_dict_and_hit_rate():
    cache = PlanCache(4)
    cache.put("k", "v")
    cache.get("k")
    cache.get("missing")
    info = cache.info().to_dict()
    assert info["hits"] == 1 and info["misses"] == 1
    assert info["hit_rate"] == pytest.approx(0.5)
    assert info["enabled"] is True
    assert json.loads(json.dumps(info)) == info
    disabled = PlanCacheInfo.disabled()
    assert disabled.hit_rate == 0.0
    assert disabled.to_dict()["enabled"] is False


def test_service_level_to_dict_needs_no_private_access(serving_graph):
    """/metrics reads cache_info().to_dict() straight off the service."""
    service = GraphService(serving_graph, backend="neo4j", plan_cache_size=8)
    service.optimize("MATCH (p:Person) RETURN p.name")
    service.optimize("MATCH (p:Person) RETURN p.name")
    info = service.cache_info().to_dict()
    assert info["hits"] == 1 and info["misses"] == 1
    assert info["hit_rate"] == pytest.approx(0.5)
