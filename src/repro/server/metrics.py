"""Text exposition of the server's operational metrics (``GET /metrics``).

Prometheus-style text format, built from plain dicts so every number here
is also reachable programmatically: plan-cache accounting comes from
``PlanCacheInfo.to_dict()``, admission counters from
``AdmissionStats.to_dict()``, session/cursor gauges from
``SessionRegistry.stats()``, and per-tenant / execution aggregates from the
:class:`ServerCounters` the request handlers feed.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional


class ServerCounters:
    """Thread-safe request/execution aggregates of one server.

    Per-tenant counters are labelled gauges in the exposition; execution
    aggregates fold in what each finished query reported (exchange traffic,
    ``peak_held_rows``).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._requests: Dict[str, Dict[str, int]] = {}
        self._rows_returned: Dict[str, int] = {}
        self._rejected: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._queries_executed = 0
        self._peak_held_rows_max = 0
        self._exchange_rows: Dict[str, int] = {}

    # -- feeding ----------------------------------------------------------------
    def record_request(self, tenant: str, endpoint: str) -> None:
        with self._lock:
            per_tenant = self._requests.setdefault(tenant, {})
            per_tenant[endpoint] = per_tenant.get(endpoint, 0) + 1

    def record_rows(self, tenant: str, count: int) -> None:
        with self._lock:
            self._rows_returned[tenant] = self._rows_returned.get(tenant, 0) + count

    def record_rejected(self, tenant: str) -> None:
        with self._lock:
            self._rejected[tenant] = self._rejected.get(tenant, 0) + 1

    def record_error(self, error_type: str) -> None:
        with self._lock:
            self._errors[error_type] = self._errors.get(error_type, 0) + 1

    def record_execution(self, peak_held_rows: Optional[int] = None,
                         exchange_stats: Optional[Dict[str, int]] = None) -> None:
        with self._lock:
            self._queries_executed += 1
            if peak_held_rows is not None:
                self._peak_held_rows_max = max(self._peak_held_rows_max,
                                               peak_held_rows)
            for kind, rows in (exchange_stats or {}).items():
                self._exchange_rows[kind] = self._exchange_rows.get(kind, 0) + rows

    # -- reading ----------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "requests": {t: dict(v) for t, v in self._requests.items()},
                "rows_returned": dict(self._rows_returned),
                "rejected": dict(self._rejected),
                "errors": dict(self._errors),
                "queries_executed": self._queries_executed,
                "peak_held_rows_max": self._peak_held_rows_max,
                "exchange_rows": dict(self._exchange_rows),
            }


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _line(lines: List[str], name: str, value, labels: Optional[Dict[str, str]] = None,
          help_text: Optional[str] = None, metric_type: str = "gauge") -> None:
    if help_text is not None:
        lines.append("# HELP %s %s" % (name, help_text))
        lines.append("# TYPE %s %s" % (name, metric_type))
    label_part = ""
    if labels:
        label_part = "{%s}" % ",".join(
            '%s="%s"' % (key, _escape_label(str(val)))
            for key, val in sorted(labels.items()))
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float):
        rendered = repr(value)
    else:
        rendered = str(value)
    lines.append("%s%s %s" % (name, label_part, rendered))


def render_metrics(cache_info: Dict[str, object],
                   admission: Optional[Dict[str, int]],
                   registry: Dict[str, int],
                   counters: Dict[str, object]) -> str:
    """Render one ``/metrics`` scrape from the four stat dicts."""
    lines: List[str] = []

    _line(lines, "repro_plan_cache_hits", cache_info["hits"],
          help_text="Plan cache lookups served from cache", metric_type="counter")
    _line(lines, "repro_plan_cache_misses", cache_info["misses"],
          help_text="Plan cache lookups that optimized fresh", metric_type="counter")
    _line(lines, "repro_plan_cache_hit_rate", cache_info["hit_rate"],
          help_text="Fraction of plan-cache lookups served from cache")
    _line(lines, "repro_plan_cache_size", cache_info["size"],
          help_text="Plans currently cached")
    _line(lines, "repro_plan_cache_evictions", cache_info["evictions"],
          help_text="Plans evicted by the LRU", metric_type="counter")

    if admission is not None:
        _line(lines, "repro_admission_admitted_total", admission["admitted"],
              help_text="Requests admitted by admission control", metric_type="counter")
        _line(lines, "repro_admission_rejected_total", admission["rejected"],
              help_text="Requests fast-rejected (queue full or quota)",
              metric_type="counter")
        _line(lines, "repro_admission_expired_total", admission["expired"],
              help_text="Requests dropped after aging out in the queue",
              metric_type="counter")
        _line(lines, "repro_admission_completed_total", admission["completed"],
              help_text="Admitted requests that finished", metric_type="counter")
        _line(lines, "repro_admission_in_flight", admission["in_flight"],
              help_text="Admitted requests currently queued or running")
        _line(lines, "repro_admission_running", admission["running"],
              help_text="Admitted requests currently executing")
        _line(lines, "repro_admission_queue_depth", admission["queued"],
              help_text="Admitted requests waiting for a worker")

    _line(lines, "repro_sessions_open", registry["sessions_open"],
          help_text="Server-side sessions currently live")
    _line(lines, "repro_cursors_open", registry["cursors_open"],
          help_text="Server-held cursors currently live")
    _line(lines, "repro_sessions_expired_total", registry["sessions_expired_total"],
          help_text="Sessions evicted by TTL", metric_type="counter")
    _line(lines, "repro_cursors_evicted_total", registry["cursors_evicted_total"],
          help_text="Cursors closed by TTL eviction or session expiry",
          metric_type="counter")

    _line(lines, "repro_queries_executed_total", counters["queries_executed"],
          help_text="Queries executed to completion", metric_type="counter")
    _line(lines, "repro_peak_held_rows_max", counters["peak_held_rows_max"],
          help_text="Largest streaming pipeline-breaker buffer observed")

    first = True
    for kind, rows in sorted(counters["exchange_rows"].items()):
        _line(lines, "repro_exchange_rows_total", rows, labels={"kind": kind},
              help_text=("Rows moved between dataflow partitions, by exchange kind"
                         if first else None),
              metric_type="counter")
        first = False

    first = True
    for tenant, per_endpoint in sorted(counters["requests"].items()):
        for endpoint, count in sorted(per_endpoint.items()):
            _line(lines, "repro_requests_total", count,
                  labels={"tenant": tenant, "endpoint": endpoint},
                  help_text=("API requests served, by tenant and endpoint"
                             if first else None),
                  metric_type="counter")
            first = False

    first = True
    for tenant, count in sorted(counters["rows_returned"].items()):
        _line(lines, "repro_rows_returned_total", count, labels={"tenant": tenant},
              help_text="Result rows returned, by tenant" if first else None,
              metric_type="counter")
        first = False

    first = True
    for tenant, count in sorted(counters["rejected"].items()):
        _line(lines, "repro_tenant_rejected_total", count, labels={"tenant": tenant},
              help_text=("Requests rejected by admission control, by tenant"
                         if first else None),
              metric_type="counter")
        first = False

    first = True
    for error_type, count in sorted(counters["errors"].items()):
        _line(lines, "repro_errors_total", count, labels={"type": error_type},
              help_text="Failed requests, by error type" if first else None,
              metric_type="counter")
        first = False

    return "\n".join(lines) + "\n"
