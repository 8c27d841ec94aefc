"""The fault-injection harness itself: determinism, matching, lifecycle."""

import threading

import pytest

from repro.testing import FaultInjector, FaultRule, InjectedFault, fault_point

pytestmark = pytest.mark.chaos


class TestFaultRules:
    def test_at_hits_fire_on_exact_ordinals(self):
        rule = FaultRule("site.a", action="raise", at_hits=[2, 4])
        with FaultInjector(seed=0, rules=[rule]) as injector:
            outcomes = []
            for _ in range(5):
                try:
                    fault_point("site.a")
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("boom")
        assert outcomes == ["ok", "boom", "ok", "boom", "ok"]
        assert injector.fired == 2

    def test_rate_decisions_are_seed_deterministic(self):
        def decisions(seed):
            fired = []
            rule = FaultRule("site.*", action="call", rate=0.5,
                             callback=lambda site, info: fired.append(len(seen)))
            seen = []
            with FaultInjector(seed=seed, rules=[rule]):
                for visit in range(64):
                    seen.append(visit)
                    fault_point("site.b")
            return fired

        assert decisions(23) == decisions(23)
        assert decisions(23) != decisions(24)  # astronomically unlikely equal

    def test_match_targets_info_subset(self):
        rule = FaultRule("x.y", action="raise", at_hits=[1], match={"stage": 2})
        with FaultInjector(seed=0, rules=[rule]) as injector:
            fault_point("x.y", stage=1)  # no match: not even counted as a hit
            with pytest.raises(InjectedFault):
                fault_point("x.y", stage=2)
        assert injector.fired == 1
        assert injector.log[0] == ("x.y", "raise", {"stage": 2})

    def test_max_fires_makes_faults_transient(self):
        rule = FaultRule("t.*", action="raise", rate=1.0, max_fires=2)
        with FaultInjector(seed=0, rules=[rule]):
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    fault_point("t.x")
            fault_point("t.x")  # recovered: fires exhausted
        assert rule.fires == 2
        assert rule.hits == 3

    def test_callback_action_receives_site_and_info(self):
        seen = []
        rule = FaultRule("c.*", action="call", rate=1.0,
                         callback=lambda site, info: seen.append((site, info)))
        with FaultInjector(seed=0, rules=[rule]):
            fault_point("c.q", op="Scan")
        assert seen == [("c.q", {"op": "Scan"})]

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("a", action="explode")
        with pytest.raises(ValueError):
            FaultRule("a", action="call")  # callback required


class TestInjectorLifecycle:
    def test_inactive_harness_is_a_noop(self):
        assert fault_point("anything.at.all", detail=1) is None

    def test_single_active_injector_enforced(self):
        with FaultInjector(seed=1):
            with pytest.raises(RuntimeError):
                FaultInjector(seed=2).__enter__()
        # the failed activation must not have clobbered the slot
        assert fault_point("still.inactive") is None

    def test_ordinals_counted_once_across_threads(self):
        rule = FaultRule("mt.site", action="raise", at_hits=[10])
        fired = []
        with FaultInjector(seed=0, rules=[rule]):
            def worker():
                for _ in range(5):
                    try:
                        fault_point("mt.site")
                    except InjectedFault:
                        fired.append(1)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert rule.hits == 20
        assert len(fired) == 1  # exactly one thread saw ordinal 10
