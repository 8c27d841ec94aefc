"""Execution context: data graph access, work counters and budgets."""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Set

from repro.backend.runtime.binding import ERef, PRef, VRef
from repro.errors import (
    CancelledError,
    ExecutionError,
    ExecutionTimeout,
    InvalidOptionError,
)
from repro.gir.expressions import ExpressionEvaluator
from repro.graph.partition import GraphPartitioner
from repro.graph.property_graph import PropertyGraph


class CancellationToken:
    """A thread-safe flag requesting cooperative cancellation of one execution.

    The token travels on the :class:`ExecutionContext` and is probed at
    every deadline checkpoint, i.e. at kernel-batch granularity in every
    engine.  ``cancel()`` can be called from any thread -- a client closing
    its cursor, the executor shutting down -- and the next checkpoint raises
    :class:`~repro.errors.CancelledError`, unwinding the execution.
    """

    __slots__ = ("_event", "reason")

    def __init__(self):
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Request cancellation (idempotent; the first reason wins)."""
        if not self._event.is_set():
            if self.reason is None:
                self.reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise CancelledError(
                "execution cancelled%s" % (
                    " (%s)" % self.reason if self.reason else ""),
                reason=self.reason)


class InFlightTokens:
    """The cancellation tokens of the executions a serving front end has in flight.

    Shared by the in-process executor and the HTTP app: each execution runs
    inside :meth:`track`, and a shutdown path cancels whatever is still
    running through :meth:`cancel_all`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tokens: Set[CancellationToken] = set()

    @contextmanager
    def track(self) -> Iterator[CancellationToken]:
        """A fresh token, registered for the duration of the ``with`` block."""
        token = CancellationToken()
        with self._lock:
            self._tokens.add(token)
        try:
            yield token
        finally:
            with self._lock:
                self._tokens.discard(token)

    def cancel_all(self, reason: str) -> int:
        """Cancel every tracked execution; returns how many were signalled."""
        with self._lock:
            tokens = list(self._tokens)
        for token in tokens:
            token.cancel(reason)
        return len(tokens)


#: execution engines understood by every backend
ENGINES = ("row", "vectorized", "dataflow")

#: "argument not given", for the two budgets whose ``None`` means "unlimited"
_UNSET = object()


def _is_int(value) -> bool:
    """An int, but not a bool: a JSON ``true`` is not a count of 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExecutionOptions:
    """The per-execution settings of one plan run, as one immutable value.

    A backend holds its defaults as one of these, a session derives its own
    with :meth:`override` once at construction, and every
    :class:`ExecutionContext` carries the value it runs under.  The field
    defaults are the bare context's: no budgets.
    """

    #: plan interpreter, one of :data:`ENGINES`
    engine: str = "row"
    #: wall-clock budget of one execution (``None``: unlimited)
    timeout_seconds: Optional[float] = None
    #: intermediate-row budget of one execution (``None``: unlimited)
    max_intermediate_results: Optional[int] = None
    #: rows per vectorized batch / dataflow morsel / kernel checkpoint interval
    batch_size: int = 1024

    def __post_init__(self):
        if not isinstance(self.engine, str) or self.engine not in ENGINES:
            raise InvalidOptionError("unknown engine %r (expected one of %s)"
                                     % (self.engine, list(ENGINES)))
        timeout = self.timeout_seconds
        if timeout is not None and not (
                (_is_int(timeout) or isinstance(timeout, float))
                and math.isfinite(timeout) and timeout >= 0):
            raise InvalidOptionError(
                "timeout_seconds must be null or a finite number >= 0, got %r"
                % (timeout,))
        budget = self.max_intermediate_results
        if budget is not None and not (_is_int(budget) and budget >= 0):
            raise InvalidOptionError(
                "max_intermediate_results must be null or an integer >= 0, "
                "got %r" % (budget,))
        if not (_is_int(self.batch_size) and self.batch_size >= 1):
            raise InvalidOptionError(
                "batch_size must be an integer >= 1, got %r" % (self.batch_size,))

    def override(
        self,
        engine: Optional[str] = None,
        timeout_seconds=_UNSET,
        max_intermediate_results=_UNSET,
        batch_size: Optional[int] = None,
    ) -> "ExecutionOptions":
        """These options with the given fields replaced (and re-validated).

        The one place that decides "not given" against an explicit ``None``:
        ``None`` keeps ``engine`` / ``batch_size`` (they have no meaningful
        null), but *sets* the two budgets to unlimited -- only omitting a
        budget keeps it.
        """
        changes: Dict[str, object] = {}
        if engine is not None:
            changes["engine"] = engine
        if timeout_seconds is not _UNSET:
            changes["timeout_seconds"] = timeout_seconds
        if max_intermediate_results is not _UNSET:
            changes["max_intermediate_results"] = max_intermediate_results
        if batch_size is not None:
            changes["batch_size"] = batch_size
        return replace(self, **changes) if changes else self


@dataclass
class WorkCounters:
    """Backend-agnostic work counters reported with every execution."""

    intermediate_results: int = 0
    edges_traversed: int = 0
    vertices_scanned: int = 0
    tuples_shuffled: int = 0
    operators_executed: int = 0
    cells_produced: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "intermediate_results": self.intermediate_results,
            "edges_traversed": self.edges_traversed,
            "vertices_scanned": self.vertices_scanned,
            "tuples_shuffled": self.tuples_shuffled,
            "operators_executed": self.operators_executed,
            "cells_produced": self.cells_produced,
        }


class ExecutionContext:
    """Everything an operator needs while interpreting a physical plan."""

    def __init__(
        self,
        graph: PropertyGraph,
        partitioner: Optional[GraphPartitioner] = None,
        options: ExecutionOptions = ExecutionOptions(),
        parameters: Optional[Dict[str, object]] = None,
        cancel_token: Optional[CancellationToken] = None,
    ):
        self.graph = graph
        self.partitioner = partitioner
        self.counters = WorkCounters()
        self.options = options
        # read on every charge / tick / deadline probe: plain attributes
        # spare the per-row hop through ``options``
        self.max_intermediate_results = options.max_intermediate_results
        self.timeout_seconds = options.timeout_seconds
        self.batch_size = options.batch_size
        # populated by the dataflow engine: observed exchange traffic
        # (None for the serial engines)
        self.exchange_stats = None
        # high-water mark of rows buffered by streaming pipeline-breaker
        # states (top-k heaps, join build sides, aggregation groups) -- the
        # observable proof that incremental breakers are bounded-memory
        self.peak_held_rows = 0
        # ids of plan operators referenced by more than one parent
        # (ComSubPattern); the serial pipelines drain these once into the
        # operator cache instead of streaming them per parent.  Populated
        # from the plan root by ``stream_result_rows`` (and from the subtree
        # it is entered at by ``execute_operator``).
        self.shared_op_ids = frozenset()
        # cooperative cancellation: probed at every deadline checkpoint, so
        # a cursor close / executor shutdown stops work within one kernel
        # batch in every engine
        self.cancel_token = cancel_token or CancellationToken()
        # cheap checkpoint counter: ``tick`` probes the deadline/cancellation
        # once every ``batch_size`` units of otherwise-unaccounted work (e.g.
        # scanned-but-rejected vertices), so long selective streams cannot
        # outrun their budget between materialization points
        self._ticks = 0
        # execute-time values for deferred $param placeholders (prepared plans)
        self.parameters: Dict[str, object] = dict(parameters or {})
        self._start_time = time.perf_counter()
        # keyed by id(op); the operator object is pinned alongside its result
        # so a recycled id() can never alias a different operator's cache slot
        self._operator_cache: Dict[int, tuple] = {}
        self.evaluator = ExpressionEvaluator(
            resolve_tag=self._resolve_tag,
            resolve_property=self._resolve_property,
            functions={
                "id": self._fn_id,
                "length": self._fn_length,
                "type": self._fn_type,
                "labels": self._fn_type,
            },
            resolve_parameter=self._resolve_parameter,
        )

    # -- budgets ---------------------------------------------------------------
    def charge_intermediate(self, count: int) -> None:
        """Account produced intermediate rows and enforce the budget."""
        self.counters.intermediate_results += count
        if (
            self.max_intermediate_results is not None
            and self.counters.intermediate_results > self.max_intermediate_results
        ):
            raise ExecutionTimeout(
                "intermediate result budget exceeded (%d rows)" % self.counters.intermediate_results,
                metrics=self.counters.snapshot(),
            )
        self.check_deadline()

    def note_held_rows(self, count: int) -> None:
        """Record the current buffered-row count of a streaming operator state."""
        if count > self.peak_held_rows:
            self.peak_held_rows = count

    def tick(self, count: int = 1) -> None:
        """Kernel-batch checkpoint for work that produces no charged rows.

        Kernels call this once per consumed input unit (a probed scan
        vertex, a replayed cached row); every ``batch_size`` ticks the full
        deadline/cancellation check runs, bounding how long a selective
        stream can run without noticing its budget or a cancel request.
        """
        self._ticks += count
        if self._ticks >= self.batch_size:
            self._ticks = 0
            self.check_deadline()

    def check_deadline(self) -> None:
        if self.cancel_token.cancelled:
            self.cancel_token.raise_if_cancelled()
        if self.timeout_seconds is not None:
            elapsed = time.perf_counter() - self._start_time
            if elapsed > self.timeout_seconds:
                raise ExecutionTimeout(
                    "execution exceeded %.1fs" % self.timeout_seconds,
                    metrics=self.counters.snapshot(),
                )

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._start_time

    # -- shuffle accounting ---------------------------------------------------------
    def charge_shuffle_between(self, src_vertex: int, dst_vertex: int, rows: int = 1) -> None:
        """Count a shuffle when two vertices live on different partitions."""
        if self.partitioner is None:
            return
        if not self.partitioner.is_local(src_vertex, dst_vertex):
            self.counters.tuples_shuffled += rows

    def charge_shuffle(self, rows: int) -> None:
        if self.partitioner is not None:
            self.counters.tuples_shuffled += rows

    # -- operator result cache (ComSubPattern sharing) ---------------------------------
    # The cache lives on the context, which is created fresh for every
    # Backend.execute() call -- memoized subtree results are therefore scoped
    # to one execution and can never leak between plans run on one backend.
    def cached_result(self, op_id: int):
        entry = self._operator_cache.get(op_id)
        return entry[1] if entry is not None else None

    def cache_result(self, op_id: int, rows, op=None) -> None:
        self._operator_cache[op_id] = (op, rows)

    # -- expression resolution ------------------------------------------------------------
    def _resolve_parameter(self, name: str):
        try:
            return self.parameters[name]
        except KeyError:
            raise ExecutionError(
                "plan references parameter $%s but no value was bound for this "
                "execution" % (name,)) from None

    def _resolve_tag(self, tag: str, binding: dict):
        return binding.get(tag)

    def _resolve_property(self, tag: str, key: str, binding: dict):
        value = binding.get(tag)
        if isinstance(value, VRef):
            return self.graph.vertex_property(value.id, key)
        if isinstance(value, ERef):
            return self.graph.edge_property(value.id, key)
        if isinstance(value, PRef):
            if key == "length":
                return value.length
            return None
        if isinstance(value, dict):
            return value.get(key)
        return None

    def _fn_id(self, value):
        if isinstance(value, (VRef, ERef)):
            return value.id
        return value

    def _fn_length(self, value):
        if isinstance(value, PRef):
            return value.length
        if hasattr(value, "__len__"):
            return len(value)
        return None

    def _fn_type(self, value):
        if isinstance(value, VRef):
            return self.graph.vertex_type(value.id)
        if isinstance(value, ERef):
            return self.graph.edge_label(value.id)
        return None
