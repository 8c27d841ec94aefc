"""Admission control: bounded queueing, quotas, deadlines, fast rejection."""

import threading

import pytest

from repro import GraphService
from repro.errors import GOptError, ServiceOverloadedError
from repro.service import AdmissionController, ConcurrentExecutor, QueryRequest

QUERY = "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS friend"


@pytest.fixture(scope="module")
def service(social_graph):
    return GraphService(social_graph, backend="graphscope", num_partitions=2)


class TestAdmissionController:
    def test_rejects_beyond_capacity_with_retry_hint(self):
        controller = AdmissionController(max_concurrent=2, max_queue_depth=1)
        tickets = [controller.admit() for _ in range(3)]  # 2 running + 1 queued
        with pytest.raises(ServiceOverloadedError) as excinfo:
            controller.admit()
        assert excinfo.value.retry_after_seconds > 0
        stats = controller.stats()
        assert stats.admitted == 3 and stats.rejected == 1
        controller.finish(tickets[0])
        ticket = controller.admit()  # a freed slot admits again
        for other in tickets[1:] + [ticket]:
            controller.finish(other)
        assert controller.stats().in_flight == 0

    def test_per_client_quota(self):
        controller = AdmissionController(max_concurrent=8, per_client_limit=2)
        held = [controller.admit("tenant-a") for _ in range(2)]
        with pytest.raises(ServiceOverloadedError):
            controller.admit("tenant-a")
        other = controller.admit("tenant-b")  # other clients are unaffected
        anonymous = controller.admit()        # and so are unattributed requests
        controller.finish(held[0])
        held.append(controller.admit("tenant-a"))  # quota freed by finish
        for ticket in held[1:] + [other, anonymous]:
            controller.finish(ticket)

    def test_queue_deadline_expires_stale_requests(self):
        controller = AdmissionController(max_concurrent=1,
                                         queue_timeout_seconds=0.05)
        ticket = controller.admit()
        ticket.admitted_at -= 1.0  # it has been queued for a second
        with pytest.raises(ServiceOverloadedError):
            controller.begin(ticket)
        stats = controller.stats()
        assert stats.expired == 1
        assert stats.in_flight == 0  # the expired ticket released its slot
        fresh = controller.admit()
        controller.begin(fresh)  # a fresh request starts normally
        controller.finish(fresh)

    def test_finish_is_idempotent(self):
        controller = AdmissionController(max_concurrent=1)
        ticket = controller.admit()
        controller.begin(ticket)
        controller.finish(ticket)
        controller.finish(ticket)
        stats = controller.stats()
        assert stats.in_flight == 0 and stats.completed == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(GOptError):
            AdmissionController(max_concurrent=0)
        with pytest.raises(GOptError):
            AdmissionController(max_concurrent=1, max_queue_depth=-1)
        with pytest.raises(GOptError):
            AdmissionController(max_concurrent=1, per_client_limit=0)


class TestExecutorAdmission:
    def test_submit_fast_rejects_when_saturated(self, service):
        with ConcurrentExecutor(service, max_workers=1,
                                max_queue_depth=0) as executor:
            # consume the single slot out-of-band: the next submit must be
            # refused on the submitting thread, deterministically
            held = executor.admission.admit()
            with pytest.raises(ServiceOverloadedError) as excinfo:
                executor.submit(QUERY)
            assert excinfo.value.retry_after_seconds > 0
            executor.admission.finish(held)
            outcome = executor.submit(QUERY).result()
            assert outcome.ok and outcome.rows
            stats = executor.admission_stats()
            assert stats.rejected == 1 and stats.admitted == 2

    def test_run_all_waits_out_transient_overload(self, service):
        with ConcurrentExecutor(service, max_workers=2,
                                max_queue_depth=0) as executor:
            held = executor.admission.admit()
            release = threading.Timer(0.1, executor.admission.finish, [held])
            release.start()
            try:
                outcomes = executor.run_all([QUERY, QUERY, QUERY])
            finally:
                release.cancel()
            assert all(outcome.ok for outcome in outcomes)
            assert len(outcomes) == 3

    def test_legacy_executor_has_no_admission(self, service):
        with ConcurrentExecutor(service, max_workers=2) as executor:
            assert executor.admission is None
            assert executor.admission_stats() is None
            outcomes = executor.run_all([QUERY] * 6)
            assert all(outcome.ok for outcome in outcomes)

    def test_client_rides_on_query_request(self, service):
        with ConcurrentExecutor(service, max_workers=2,
                                per_client_limit=1) as executor:
            request = QueryRequest(QUERY, client="tenant-a")
            outcome = executor.submit(request).result()
            assert outcome.ok
            assert outcome.request.client == "tenant-a"

    def test_queue_depth_builds_admission(self, service):
        with ConcurrentExecutor(service, max_workers=2, max_queue_depth=4) as executor:
            assert executor.admission is not None
            outcome = executor.submit(QUERY).result()
            assert outcome.ok

    def test_shared_controller_across_executors(self, service):
        controller = AdmissionController(max_concurrent=2, max_queue_depth=0)
        with ConcurrentExecutor(service, max_workers=1,
                                admission=controller) as first:
            with ConcurrentExecutor(service, max_workers=1,
                                    admission=controller) as second:
                held = [controller.admit(), controller.admit()]
                with pytest.raises(ServiceOverloadedError):
                    first.submit(QUERY)
                with pytest.raises(ServiceOverloadedError):
                    second.submit(QUERY)
                for ticket in held:
                    controller.finish(ticket)
                assert first.submit(QUERY).result().ok
                assert second.submit(QUERY).result().ok
