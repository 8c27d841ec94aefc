"""One failure policy under deterministic injection, for every engine.

Acceptance: an injected infrastructure fault (an ``InjectedFault`` -- not a
``GOptError``) fails the query that hit it the same way under every engine:
``Backend.execute`` raises it, the concurrent executor reports it as that
query's error and keeps serving, and the HTTP front end answers 500, which
a client rebuilds as ``ServerError`` -- never a hang, a partial result set,
or a silently re-executed query.  The thread-leak fixture in
tests/conftest.py additionally holds every one of these tests to zero leaked
runtime threads.
"""

import json

import pytest

from repro import GraphService, available_engines
from repro.errors import ServerError
from repro.server.app import ServerApp
from repro.server.protocol import exception_from_wire
from repro.server.wire import ErrorWire
from repro.service import ConcurrentExecutor
from repro.testing import FaultInjector, FaultRule, InjectedFault

pytestmark = pytest.mark.chaos

TWO_HOP = ("MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
           "RETURN a.id AS a, b.id AS b, c.id AS c")


@pytest.fixture(scope="module")
def two_hop(gopt):
    report = gopt.optimize(TWO_HOP)
    reference = gopt.backend.execute(report.physical_plan, engine="row")
    return report.physical_plan, reference


def first_kernel_fault():
    return [FaultRule("stream.kernel", action="raise", at_hits=[1])]


class TestOneFailurePolicy:
    @pytest.mark.parametrize("engine", available_engines())
    def test_kernel_fault_fails_the_query_alike_on_every_engine(
            self, gopt, two_hop, ldbc_graph, chaos_seed, engine):
        plan, _ = two_hop
        with FaultInjector(seed=chaos_seed, rules=first_kernel_fault()) as injector:
            with pytest.raises(InjectedFault):
                gopt.backend.execute(plan, engine=engine)
        assert injector.fired == 1

        service = GraphService(ldbc_graph, backend="graphscope",
                               num_partitions=4, plan_cache_size=None)
        with ConcurrentExecutor(service, max_workers=2, engine=engine) as ex:
            with FaultInjector(seed=chaos_seed, rules=first_kernel_fault()):
                faulted = ex.submit(TWO_HOP).result()
            healthy = ex.submit(TWO_HOP).result()
        assert not faulted.ok
        assert faulted.error.startswith("InjectedFault")
        assert healthy.ok and healthy.rows

        app = ServerApp(service)
        try:
            body = json.dumps({"query": TWO_HOP, "engine": engine}).encode()
            with FaultInjector(seed=chaos_seed, rules=first_kernel_fault()):
                response = app.handle_request("POST", "/v1/queries", {}, {}, body)
        finally:
            app.shutdown()
        assert response.status == 500
        error = ErrorWire.from_dict(json.loads(response.body))
        assert error.type == "InjectedFault"
        # a remote client tells the server fault from a query error by type
        assert isinstance(exception_from_wire(error), ServerError)

    @pytest.mark.parametrize("engine", available_engines())
    def test_a_fault_at_any_kernel_visit_fails_the_query(
            self, gopt, two_hop, chaos_seed, engine):
        """First, middle or last kernel visit: the run raises, never
        returning the rows produced before the fault."""
        plan, _ = two_hop
        visits = FaultRule("stream.kernel", action="call", rate=1.0,
                           callback=lambda site, info: None)
        with FaultInjector(seed=chaos_seed, rules=[visits]):
            gopt.backend.execute(plan, engine=engine)
        assert visits.fires > 1
        for hit in sorted({1, visits.fires // 2, visits.fires}):
            rules = [FaultRule("stream.kernel", action="raise", at_hits=[hit])]
            with FaultInjector(seed=chaos_seed, rules=rules) as injector:
                with pytest.raises(InjectedFault):
                    gopt.backend.execute(plan, engine=engine)
            assert injector.fired == 1, hit


class TestSlowOperators:
    def test_slow_kernels_hit_the_deadline(self, gopt, two_hop, chaos_seed):
        """A sleep-injected slow operator trips the time budget, not a hang."""
        plan, _ = two_hop
        rules = [FaultRule("stream.kernel", action="sleep",
                           seconds=0.05, rate=1.0)]
        with FaultInjector(seed=chaos_seed, rules=rules):
            result = gopt.backend.execute(plan, engine="dataflow",
                                          timeout_seconds=0.1)
        assert result.timed_out

