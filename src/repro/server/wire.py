"""Wire models of the HTTP serving protocol.

Plain stdlib dataclasses with symmetric ``to_dict`` / ``from_dict``
converters (JSON-ready on both sides), modeled on the ``QueryResult`` /
``ExplainPlan`` shapes of db-connect-mcp but without the pydantic
dependency: the repo stays pure-stdlib, and field validation is the
explicit ``from_dict`` code instead of a framework.

Every model round-trips exactly through ``json.dumps(model.to_dict())`` --
the wire-format tests pin this -- and the field names ARE the protocol:
the server serializes these, :class:`repro.client.GraphClient` parses them
back into the same classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def _require(payload: Dict[str, Any], key: str, model: str) -> Any:
    if key not in payload:
        raise ValueError("wire payload for %s is missing field %r" % (model, key))
    return payload[key]


@dataclass
class QueryResultWire:
    """One executed query's rows plus its execution accounting."""

    query: str
    rows: List[Dict[str, Any]]
    row_count: int
    columns: List[str]
    execution_time_ms: Optional[float] = None
    truncated: bool = False
    warning: Optional[str] = None
    #: the executed engine's work counters (``ExecutionMetrics.as_dict()``)
    metrics: Optional[Dict[str, Any]] = None
    #: bounded-memory observability of the streaming engines
    peak_held_rows: Optional[int] = None

    @property
    def is_empty(self) -> bool:
        return self.row_count == 0

    @property
    def column_count(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "rows": self.rows,
            "row_count": self.row_count,
            "columns": self.columns,
            "execution_time_ms": self.execution_time_ms,
            "truncated": self.truncated,
            "warning": self.warning,
            "metrics": self.metrics,
            "peak_held_rows": self.peak_held_rows,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryResultWire":
        return cls(
            query=_require(payload, "query", "QueryResultWire"),
            rows=list(_require(payload, "rows", "QueryResultWire")),
            row_count=int(_require(payload, "row_count", "QueryResultWire")),
            columns=list(_require(payload, "columns", "QueryResultWire")),
            execution_time_ms=payload.get("execution_time_ms"),
            truncated=bool(payload.get("truncated", False)),
            warning=payload.get("warning"),
            metrics=payload.get("metrics"),
            peak_held_rows=payload.get("peak_held_rows"),
        )

    @classmethod
    def from_rows(cls, query: str, rows: List[Dict[str, Any]],
                  metrics=None, peak_held_rows: Optional[int] = None,
                  truncated: bool = False,
                  warning: Optional[str] = None) -> "QueryResultWire":
        """Build the wire form of an executed query.

        ``metrics`` is an :class:`~repro.backend.base.ExecutionMetrics`;
        its counters ride along verbatim so remote clients see exactly what
        an in-process ``cursor.consume()`` reports.
        """
        return cls(
            query=query,
            rows=rows,
            row_count=len(rows),
            columns=columns_of(rows),
            execution_time_ms=(None if metrics is None
                               else metrics.elapsed_seconds * 1000.0),
            truncated=truncated,
            warning=warning,
            metrics=None if metrics is None else metrics.as_dict(),
            peak_held_rows=peak_held_rows,
        )


@dataclass
class ExplainPlanWire:
    """The optimizer's plan for a query, as text plus structured fields."""

    query: str
    plan: str
    plan_json: Optional[Dict[str, Any]] = None
    estimated_cost: Optional[float] = None
    estimated_rows: Optional[int] = None
    optimization_time_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "plan": self.plan,
            "plan_json": self.plan_json,
            "estimated_cost": self.estimated_cost,
            "estimated_rows": self.estimated_rows,
            "optimization_time_ms": self.optimization_time_ms,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplainPlanWire":
        return cls(
            query=_require(payload, "query", "ExplainPlanWire"),
            plan=_require(payload, "plan", "ExplainPlanWire"),
            plan_json=payload.get("plan_json"),
            estimated_cost=payload.get("estimated_cost"),
            estimated_rows=payload.get("estimated_rows"),
            optimization_time_ms=payload.get("optimization_time_ms"),
        )

    @classmethod
    def from_report(cls, query: str, report) -> "ExplainPlanWire":
        """Build from an :class:`~repro.optimizer.planner.OptimizationReport`."""
        return cls(
            query=query,
            plan=report.explain(),
            plan_json={
                "logical_plan": report.optimized_logical_plan.explain(),
                "physical_plan": report.physical_plan.explain(),
                "applied_rules": list(report.applied_rules),
            },
            estimated_cost=report.estimated_cost,
            estimated_rows=None,
            optimization_time_ms=report.optimization_time * 1000.0,
        )


@dataclass
class SessionWire:
    """A server-side session handle returned by ``POST /v1/sessions``."""

    session_id: str
    tenant: str
    engine: Optional[str] = None
    ttl_seconds: float = 300.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "engine": self.engine,
            "ttl_seconds": self.ttl_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SessionWire":
        return cls(
            session_id=_require(payload, "session_id", "SessionWire"),
            tenant=_require(payload, "tenant", "SessionWire"),
            engine=payload.get("engine"),
            ttl_seconds=float(payload.get("ttl_seconds", 300.0)),
        )


@dataclass
class PreparedWire:
    """A prepared-statement handle returned by ``POST /v1/prepare``."""

    statement_id: str
    query: str
    language: str
    deferred: bool
    parameter_names: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "statement_id": self.statement_id,
            "query": self.query,
            "language": self.language,
            "deferred": self.deferred,
            "parameter_names": sorted(self.parameter_names),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PreparedWire":
        return cls(
            statement_id=_require(payload, "statement_id", "PreparedWire"),
            query=_require(payload, "query", "PreparedWire"),
            language=_require(payload, "language", "PreparedWire"),
            deferred=bool(_require(payload, "deferred", "PreparedWire")),
            parameter_names=list(payload.get("parameter_names", ())),
        )


@dataclass
class CursorWire:
    """A server-held cursor handle returned by a ``"cursor": true`` query."""

    cursor_id: str
    session_id: str
    query: str
    ttl_seconds: float = 60.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cursor_id": self.cursor_id,
            "session_id": self.session_id,
            "query": self.query,
            "ttl_seconds": self.ttl_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CursorWire":
        return cls(
            cursor_id=_require(payload, "cursor_id", "CursorWire"),
            session_id=_require(payload, "session_id", "CursorWire"),
            query=_require(payload, "query", "CursorWire"),
            ttl_seconds=float(payload.get("ttl_seconds", 60.0)),
        )


@dataclass
class CursorChunkWire:
    """One incremental fetch from a server-held cursor."""

    cursor_id: str
    rows: List[Dict[str, Any]]
    row_count: int
    exhausted: bool
    timed_out: bool = False
    #: populated on the final (exhausted) chunk only
    metrics: Optional[Dict[str, Any]] = None
    peak_held_rows: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cursor_id": self.cursor_id,
            "rows": self.rows,
            "row_count": self.row_count,
            "exhausted": self.exhausted,
            "timed_out": self.timed_out,
            "metrics": self.metrics,
            "peak_held_rows": self.peak_held_rows,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CursorChunkWire":
        return cls(
            cursor_id=_require(payload, "cursor_id", "CursorChunkWire"),
            rows=list(_require(payload, "rows", "CursorChunkWire")),
            row_count=int(_require(payload, "row_count", "CursorChunkWire")),
            exhausted=bool(_require(payload, "exhausted", "CursorChunkWire")),
            timed_out=bool(payload.get("timed_out", False)),
            metrics=payload.get("metrics"),
            peak_held_rows=payload.get("peak_held_rows"),
        )


@dataclass
class ErrorWire:
    """The body of every non-2xx response: a typed, client-mappable error."""

    type: str
    message: str
    status: int
    retry_after_seconds: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "error": {
                "type": self.type,
                "message": self.message,
                "status": self.status,
                "retry_after_seconds": self.retry_after_seconds,
            }
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ErrorWire":
        body = _require(payload, "error", "ErrorWire")
        return cls(
            type=_require(body, "type", "ErrorWire"),
            message=_require(body, "message", "ErrorWire"),
            status=int(_require(body, "status", "ErrorWire")),
            retry_after_seconds=body.get("retry_after_seconds"),
        )


def columns_of(rows: List[Dict[str, Any]]) -> List[str]:
    """Column names in first-seen order across the result's rows.

    Python dicts preserve insertion order, so the first row's keys give the
    projection order; later rows only contribute columns the first row
    lacked (heterogeneous rows are legal for union-style plans).
    """
    columns: List[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    return columns
