"""GraphService: one graph + optimizer + shared plan cache, many sessions."""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.backend import Backend, GraphScopeLikeBackend, Neo4jLikeBackend
from repro.errors import GOptError, ParseError
from repro.gir.expressions import Expr
from repro.gir.plan import LogicalPlan
from repro.graph.property_graph import PropertyGraph
from repro.lang.cypher import cypher_to_gir
from repro.lang.gremlin import gremlin_to_gir
from repro.optimizer.planner import GOptimizer, OptimizationReport, OptimizerConfig
from repro.plan_cache import (
    PlanCache,
    PlanCacheInfo,
    normalize_query_text,
    parameter_signature,
    parameter_type_signature,
)


def _plan_parameter_names(plan: LogicalPlan) -> FrozenSet[str]:
    """All deferred ``$param`` names referenced anywhere in a logical plan."""
    names = set()
    for op in plan.nodes():
        for expr in _operator_expressions(op):
            names |= expr.referenced_parameters()
    return frozenset(names)


def _operator_expressions(op):
    """Best-effort enumeration of the expression trees held by an operator."""
    for attr in ("predicate", "predicates", "items", "keys", "aggregations", "pattern"):
        value = getattr(op, attr, None)
        if value is None:
            continue
        if isinstance(value, Expr):
            yield value
            continue
        if attr == "pattern":
            for element in list(value.vertices) + list(value.edges):
                for predicate in getattr(element, "predicates", ()) or ():
                    yield predicate
            continue
        try:
            entries = list(value)
        except TypeError:
            continue
        for entry in entries:
            if isinstance(entry, Expr):
                yield entry
            else:
                expr = getattr(entry, "expr", None) or getattr(entry, "operand", None)
                if isinstance(expr, Expr):
                    yield expr


class GraphService:
    """The long-lived serving object: owns the graph, optimizer and cache.

    A service is created once per data graph and shared by every client;
    clients talk to it through lightweight :class:`~repro.service.Session`
    objects (:meth:`session`).  All shared state is safe under concurrent
    sessions: the plan cache locks internally, the optimizer is re-entrant,
    graph reads are immutable lookups, and per-execution budgets are passed
    per call instead of mutated on the backend.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        backend: Union[str, Backend] = "graphscope",
        config: Optional[OptimizerConfig] = None,
        optimizer: Optional[GOptimizer] = None,
        plan_cache_size: Optional[int] = 128,
        **backend_options,
    ):
        self.graph = graph
        self.backend = self.make_backend(backend, graph, backend_options)
        self.optimizer = optimizer or GOptimizer.for_graph(
            graph, profile=self.backend.profile(), config=config
        )
        self._plan_cache: Optional[PlanCache] = (
            PlanCache(plan_cache_size) if plan_cache_size else None
        )
        # parsed prepared templates, keyed on (normalized text, language);
        # parsing is environment-independent, so entries never go stale and a
        # hot serving loop re-preparing one template skips the parse entirely
        self._template_cache = PlanCache(256)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def for_graph(
        cls,
        graph: PropertyGraph,
        backend: Union[str, Backend] = "graphscope",
        config: Optional[OptimizerConfig] = None,
        plan_cache_size: Optional[int] = 128,
        **backend_options,
    ) -> "GraphService":
        return cls(graph, backend=backend, config=config,
                   plan_cache_size=plan_cache_size, **backend_options)

    @staticmethod
    def make_backend(backend, graph, options) -> Backend:
        if isinstance(backend, Backend):
            if options:
                raise GOptError(
                    "backend options %s cannot be combined with a Backend instance; "
                    "configure the instance directly" % (sorted(options),))
            return backend
        if backend == "neo4j":
            return Neo4jLikeBackend(graph, **options)
        if backend == "graphscope":
            return GraphScopeLikeBackend(graph, **options)
        raise GOptError("unknown backend %r (expected 'neo4j' or 'graphscope')" % (backend,))

    # -- sessions --------------------------------------------------------------
    def session(self, **overrides) -> "Session":
        """Open a session with optional per-session execution overrides.

        ``overrides`` are the keywords of
        :meth:`ExecutionOptions.override
        <repro.backend.ExecutionOptions.override>` -- ``engine``,
        ``timeout_seconds``, ``max_intermediate_results``, ``batch_size`` --
        resolved here, once, against the backend's defaults; they apply to
        every query the session runs without touching shared backend state
        (sessions of one service can run the same plans on different
        engines or under different budgets).
        """
        from repro.service.session import Session

        return Session(self, self.backend.options.override(**overrides))

    def executor(self, max_workers: int = 8, **options) -> "ConcurrentExecutor":
        """Open a :class:`~repro.service.ConcurrentExecutor` over this service.

        ``options`` are forwarded verbatim -- ``deadline_seconds``,
        ``engine`` and the admission-control knobs (``max_queue_depth``,
        ``queue_timeout_seconds``, ``per_client_limit``, ``admission``)::

            with service.executor(max_workers=4, max_queue_depth=16) as ex:
                outcomes = ex.run_all(requests)
        """
        from repro.service.executor import ConcurrentExecutor

        return ConcurrentExecutor(self, max_workers=max_workers, **options)

    # -- plan cache ------------------------------------------------------------
    def cache_info(self) -> PlanCacheInfo:
        """Hit/miss/size/eviction accounting of the shared plan cache.

        When the service was created with ``plan_cache_size=None`` (or ``0``)
        the cache is disabled and this returns the
        :meth:`~repro.plan_cache.PlanCacheInfo.disabled` sentinel, whose
        ``capacity == 0`` distinguishes "disabled" from a live-but-empty
        cache (a live cache always has capacity >= 1).
        """
        if self._plan_cache is None:
            return PlanCacheInfo.disabled()
        return self._plan_cache.info()

    def clear_plan_cache(self) -> None:
        """Drop every cached plan and reset hit/miss accounting.

        A no-op when the cache is disabled (``cache_info().capacity == 0``).
        """
        if self._plan_cache is not None:
            self._plan_cache.clear()

    def _environment_token(self, engine: Optional[str] = None) -> Tuple:
        """Fingerprint of everything a cached plan depends on besides the query.

        If the data graph grows/shrinks, the effective engine differs, or the
        optimizer is reconfigured, the token changes and stale entries are
        bypassed (they age out of the LRU naturally).
        """
        return (
            self.backend.name,
            engine or self.backend.options.engine,
            self.graph.num_vertices,
            self.graph.num_edges,
            repr(self.optimizer.config),
        )

    # -- parsing ---------------------------------------------------------------
    def parse(
        self,
        query: str,
        language: str = "cypher",
        parameters: Optional[Dict[str, object]] = None,
        defer_parameters: bool = False,
    ) -> LogicalPlan:
        """Parse query text in the given language into a GIR logical plan."""
        if language == "cypher":
            return cypher_to_gir(query, parameters, defer_parameters=defer_parameters)
        if language == "gremlin":
            return gremlin_to_gir(query)
        raise GOptError("unsupported query language %r" % (language,))

    def parse_template(
        self, query: str, language: str,
    ) -> Tuple[bool, Optional[LogicalPlan], FrozenSet[str]]:
        """Parse a prepared-statement template, cached by normalized text.

        Returns ``(deferred, logical_plan, parameter_names)``: ``deferred``
        is False (with a ``None`` plan) when the template's parameters sit in
        structural positions the grammar cannot keep symbolic, in which case
        prepared execution falls back to per-value inlining.
        """
        key = (normalize_query_text(query), language)
        entry = self._template_cache.get(key)
        if entry is None:
            if language == "cypher":
                try:
                    plan = self.parse(query, language, defer_parameters=True)
                    entry = (True, plan, _plan_parameter_names(plan))
                except ParseError:
                    entry = (False, None, frozenset())
            else:
                # gremlin has no $param placeholders; the parse is value-free
                entry = (True, self.parse(query, language), frozenset())
            self._template_cache.put(key, entry)
        return entry

    # -- optimization ----------------------------------------------------------
    def optimize(
        self,
        query: Union[str, LogicalPlan],
        language: str = "cypher",
        parameters: Optional[Dict[str, object]] = None,
        engine: Optional[str] = None,
    ) -> OptimizationReport:
        """Optimize a query with parameter values *inlined*.

        Text queries are served from the plan cache keyed on the full
        parameter signature -- names, types **and values** -- because the
        inlined values are baked into the plan.  Prepared statements use
        :meth:`optimize_deferred` instead, which shares one plan across
        values.  Logical-plan inputs always optimize fresh.
        """
        if isinstance(query, LogicalPlan):
            return self.optimizer.optimize(query)
        if self._plan_cache is None:
            return self.optimizer.optimize(self.parse(query, language, parameters))
        key = (
            "inline",
            normalize_query_text(query),
            language,
            parameter_signature(parameters),
            self._environment_token(engine),
        )
        report = self._plan_cache.get(key)
        if report is None:
            report = self.optimizer.optimize(self.parse(query, language, parameters))
            self._plan_cache.put(key, report)
        return report

    def optimize_deferred(
        self,
        logical_plan: LogicalPlan,
        normalized_query: str,
        language: str,
        parameters: Optional[Dict[str, object]],
        engine: Optional[str] = None,
        local_cache: Optional[Dict[Tuple, OptimizationReport]] = None,
    ) -> OptimizationReport:
        """Optimize a deferred-parameter plan, cached on parameter *types* only.

        ``logical_plan`` must keep its ``$param`` placeholders symbolic
        (parsed with ``defer_parameters=True``); values are bound at execute
        time, so N executions with N distinct value sets share one cache
        entry.  ``local_cache`` (a plain dict owned by one PreparedQuery)
        takes over when the service has no shared cache, so prepared
        statements keep their plan-reuse guarantee either way.
        """
        key = (
            "deferred",
            normalized_query,
            language,
            parameter_type_signature(parameters),
            self._environment_token(engine),
        )
        if self._plan_cache is not None:
            report = self._plan_cache.get(key)
            if report is None:
                report = self.optimizer.optimize(logical_plan)
                self._plan_cache.put(key, report)
            return report
        if local_cache is not None:
            report = local_cache.get(key)
            if report is None:
                report = self.optimizer.optimize(logical_plan)
                local_cache.clear()  # bound memory: one live environment at a time
                local_cache[key] = report
            return report
        return self.optimizer.optimize(logical_plan)

    def __repr__(self) -> str:
        return "GraphService(backend=%s, |V|=%d, |E|=%d)" % (
            self.backend.name, self.graph.num_vertices, self.graph.num_edges)
