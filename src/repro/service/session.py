"""Sessions and prepared statements over a :class:`GraphService`."""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple, Union

from repro.backend.base import ExecutionOptions, ResultCursor
from repro.errors import GOptError
from repro.gir.plan import LogicalPlan
from repro.optimizer.planner import OptimizationReport
from repro.plan_cache import normalize_query_text


class Session:
    """A lightweight client handle on a :class:`GraphService`.

    A session runs every query under one
    :class:`~repro.backend.ExecutionOptions` value (:attr:`options`) --
    the backend's defaults with this session's overrides of ``engine``,
    ``timeout_seconds``, ``max_intermediate_results`` and ``batch_size``
    applied -- resolved once,
    when :meth:`GraphService.session` opens it, and never by mutating the
    shared backend.  Many sessions of one service can run concurrently; the
    service's plan cache, optimizer and graph are all safe to share.

    Sessions are cheap: open one per logical client or unit of work, and
    ``close()`` (or use as a context manager) when done.
    """

    def __init__(self, service, options: ExecutionOptions):
        self._service = service
        #: the resolved options every query of this session executes under
        self.options = options
        self._closed = False

    # -- properties -------------------------------------------------------------
    @property
    def service(self):
        return self._service

    @property
    def engine(self) -> str:
        """The execution engine this session's queries run on."""
        return self.options.engine

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise GOptError("session is closed")

    # -- prepared statements ----------------------------------------------------
    def prepare(self, query: str, language: str = "cypher") -> "PreparedQuery":
        """Prepare a query template for repeated parameterized execution.

        The template is parsed once with its ``$param`` placeholders kept
        symbolic, so the optimized plan is cached under the parameter
        *types* only and reused across every value set.  Templates whose
        parameters sit in structural positions the grammar cannot defer
        (``LIMIT $n``, inline property maps) transparently fall back to
        per-value inlining -- same results, per-value plan caching.
        """
        self._check_open()
        return PreparedQuery(self, query, language)

    # -- execution --------------------------------------------------------------
    def run(
        self,
        query: Union[str, LogicalPlan],
        language: str = "cypher",
        parameters: Optional[Dict[str, object]] = None,
        cancel_token=None,
    ) -> ResultCursor:
        """Execute a query, returning a lazy :class:`ResultCursor`.

        Text queries with ``parameters`` go through the prepared-statement
        machinery, so repeated templates share one type-keyed plan.  Rows
        are produced on demand; ``fetch_all()`` on the cursor gives the
        whole result.  A caller-supplied
        :class:`~repro.backend.runtime.context.CancellationToken` lets
        another thread (a serving layer, a shutdown path) stop the
        execution cooperatively at its next kernel-batch checkpoint.
        """
        self._check_open()
        if isinstance(query, LogicalPlan):
            report = self._service.optimizer.optimize(query)
            return self._execute_report(report, None, cancel_token)
        if parameters:
            return self.prepare(query, language).run(
                parameters, cancel_token=cancel_token)
        report = self._service.optimize(query, language)
        return self._execute_report(report, None, cancel_token)

    def explain(
        self,
        query: Union[str, LogicalPlan],
        language: str = "cypher",
        parameters: Optional[Dict[str, object]] = None,
    ) -> str:
        """Human-readable optimized logical + physical plan for a query."""
        self._check_open()
        if isinstance(query, LogicalPlan):
            return self._service.optimizer.optimize(query).explain()
        if parameters:
            return self.prepare(query, language).explain(parameters)
        return self._service.optimize(query, language).explain()

    def _execute_report(
        self,
        report: OptimizationReport,
        parameters: Optional[Dict[str, object]],
        cancel_token=None,
    ) -> ResultCursor:
        cursor = self._service.backend.execute_streaming(
            report.physical_plan, parameters, cancel_token, options=self.options)
        cursor.report = report
        return cursor


class PreparedQuery:
    """A query template whose plan is shared across parameter values.

    Created by :meth:`Session.prepare`.  In the (default) *deferred* mode
    the template's ``$param`` placeholders survive into the plan as symbolic
    :class:`~repro.gir.expressions.Parameter` nodes and are bound at execute
    time, so the shared plan cache keys the optimized plan on the parameter
    **types only**: executing one template with N distinct value sets
    produces exactly one cache entry and N-1 hits.

    Templates the grammar cannot defer (parameters in ``LIMIT``, property
    maps or hop ranges) fall back to *inline* mode: each distinct value set
    is inlined and cached under the full value signature, exactly like
    :meth:`GraphService.optimize` with ``parameters``.
    """

    def __init__(self, session: Session, query: str, language: str = "cypher"):
        self._session = session
        self._service = session.service
        self.query = query
        self.language = language
        self._normalized = normalize_query_text(query)
        self._local_cache: Dict[Tuple, OptimizationReport] = {}
        # templates are parse-cached on the service, so re-preparing (or
        # Session.run's per-call prepare) in a hot loop skips the parse
        self.deferred, self._logical_plan, self._parameter_names = (
            self._service.parse_template(query, language))

    @property
    def parameter_names(self) -> Set[str]:
        """The ``$param`` names the deferred plan references (empty if inline)."""
        return set(self._parameter_names)

    def _report(
        self,
        parameters: Optional[Dict[str, object]],
        require_values: bool = True,
    ) -> OptimizationReport:
        if self.deferred:
            # only the parameters the plan references take part in the cache
            # signature: extra keys (a shared context dict, say) must not
            # fragment the one-entry-per-template guarantee
            relevant = {name: value for name, value in (parameters or {}).items()
                        if name in self._parameter_names}
            missing = self._parameter_names - set(relevant)
            if missing and require_values:
                raise GOptError(
                    "missing value(s) for parameter(s) %s of prepared query"
                    % (", ".join("$" + name for name in sorted(missing)),))
            return self._service.optimize_deferred(
                self._logical_plan, self._normalized, self.language, relevant,
                local_cache=self._local_cache)
        return self._service.optimize(self.query, self.language, parameters)

    def run(
        self,
        parameters: Optional[Dict[str, object]] = None,
        cancel_token=None,
    ) -> ResultCursor:
        """Execute the template with one parameter value set."""
        self._session._check_open()
        report = self._report(parameters)
        execute_parameters = parameters if self.deferred else None
        return self._session._execute_report(
            report, execute_parameters, cancel_token)

    def report(
        self, parameters: Optional[Dict[str, object]] = None,
    ) -> OptimizationReport:
        """The full optimizer report this template executes with.

        Deferred plans are fully symbolic, so no parameter values are needed
        (they only refine the cache signature when given).  The serving
        layer uses this to build explain wire models without re-optimizing.
        """
        return self._report(parameters, require_values=False)

    def explain(self, parameters: Optional[Dict[str, object]] = None) -> str:
        """The optimized plan this template executes with (text form)."""
        return self.report(parameters).explain()

    def __repr__(self) -> str:
        mode = "deferred" if self.deferred else "inline"
        return "PreparedQuery(%s, %r)" % (mode, self._normalized[:60])
