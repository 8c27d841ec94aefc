"""Deterministic fault injection for the execution runtime.

The runtime declares *injection points* at its kernel and exchange
boundaries by calling :func:`fault_point` -- a near-zero-cost no-op (one
module-global read and a ``None`` check) unless a :class:`FaultInjector` is
active.  Tests activate an injector with a seeded, deterministic plan of
:class:`FaultRule` entries; each rule matches a site (glob pattern plus an
optional info subset) and fires one of three actions:

* ``"raise"`` -- raise :class:`InjectedFault` (an *infrastructure* fault:
  deliberately **not** a ``GOptError``, so the dataflow executor wraps it in
  :class:`~repro.errors.WorkerFailure` and the backend may degrade to the
  row engine);
* ``"sleep"`` -- stall the calling thread for ``seconds`` (slow operator /
  slow network, for deadline tests);
* ``"call"`` -- invoke an arbitrary ``callback(site, info)`` (used to force
  cancellation races at exact points).

Determinism: rules fire either on exact visit ordinals (``at_hits``,
counted per rule under a lock) or via a ``rate`` drawn from the injector's
seeded :class:`random.Random`.  Thread interleavings still vary, but the
*set* of decisions for a given seed is reproducible, which is what the
chaos suite's survival assertions need.

Registered injection sites (see the runtime modules):

==========================  ====================================================
``worker.kernel``           a dataflow step about to run one kernel on one
                            partition's morsel (info: ``op``, ``stage``,
                            ``partition``)
``exchange.route``          a partition routing produced rows into an exchange
                            (info: ``stage``, ``partition``, ``priced``)
``driver.gather``           the driver gathering a segment's output
``stream.kernel``           a streaming interpreter dispatching one operator
                            (info: ``op``)
``service.execute``         the concurrent executor about to run one query
                            (info: ``client``)
``server.request``          the HTTP front end about to serve an admitted
                            query/fetch/explain request, while holding its
                            admission slot (info: ``tenant``, ``endpoint``);
                            ``"sleep"`` here occupies the slot, which is how
                            the e2e tests force quota breaches
==========================  ====================================================
"""

from __future__ import annotations

import fnmatch
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import random


class InjectedFault(RuntimeError):
    """A deliberately injected infrastructure fault.

    Subclasses ``RuntimeError`` (not ``GOptError``) on purpose: the runtime
    must treat it exactly like any unexpected infrastructure failure --
    contain it, discard partial results, and either surface a typed
    :class:`~repro.errors.WorkerFailure` or degrade to the row engine.
    """

    def __init__(self, site: str, detail: str = ""):
        super().__init__("injected fault at %s%s"
                         % (site, " (%s)" % detail if detail else ""))
        self.site = site
        self.detail = detail


class FaultRule:
    """One matching rule of an injection plan.

    Args:
        site: glob pattern matched against the injection-point name
            (``"worker.kernel"``, ``"exchange.*"``, ...).
        action: ``"raise"``, ``"sleep"`` or ``"call"``.
        rate: probability in [0, 1] that a matching visit fires, drawn from
            the injector's seeded RNG.  Mutually composable with
            ``at_hits``: when ``at_hits`` is given, ``rate`` is ignored.
        at_hits: exact visit ordinals (1-based, counted per rule across all
            threads) that fire; every other visit passes through.
        match: info subset that must match for the rule to apply, e.g.
            ``{"stage": 1}`` targets one exchange boundary.
        seconds: sleep duration for ``"sleep"``.
        callback: ``callback(site, info)`` for ``"call"``.
        max_fires: stop firing after this many activations (``None`` =
            unlimited); makes transient faults expressible (fail once, then
            recover).
    """

    ACTIONS = ("raise", "sleep", "call")

    def __init__(
        self,
        site: str,
        action: str = "raise",
        rate: float = 0.0,
        at_hits: Optional[Sequence[int]] = None,
        match: Optional[Dict[str, object]] = None,
        seconds: float = 0.01,
        callback: Optional[Callable[[str, Dict[str, object]], None]] = None,
        max_fires: Optional[int] = None,
    ):
        if action not in self.ACTIONS:
            raise ValueError("unknown fault action %r (expected one of %s)"
                             % (action, list(self.ACTIONS)))
        if action == "call" and callback is None:
            raise ValueError("action 'call' requires a callback")
        self.site = site
        self.action = action
        self.rate = rate
        self.at_hits = frozenset(at_hits or ())
        self.match = dict(match or {})
        self.seconds = seconds
        self.callback = callback
        self.max_fires = max_fires
        # mutated under the injector's lock
        self.hits = 0
        self.fires = 0

    def applies(self, site: str, info: Dict[str, object]) -> bool:
        if not fnmatch.fnmatchcase(site, self.site):
            return False
        return all(info.get(key) == value for key, value in self.match.items())

    def __repr__(self) -> str:
        return "FaultRule(%r, %s, fires=%d)" % (self.site, self.action, self.fires)


class FaultInjector:
    """An active, seeded fault-injection plan (used as a context manager).

    Exactly one injector can be active at a time (process-global); entering
    a second one raises.  The ``log`` records every fired event as
    ``(site, action, info)`` for post-hoc assertions.

    Example::

        rules = [FaultRule("worker.kernel", action="raise", rate=0.05)]
        with FaultInjector(seed=23, rules=rules) as injector:
            result = backend.execute(plan, engine="dataflow")
        assert injector.fired  # at least one fault actually landed
    """

    def __init__(self, seed: int = 0, rules: Optional[Sequence[FaultRule]] = None):
        self.seed = seed
        self.rules: List[FaultRule] = list(rules or [])
        self.rng = random.Random(seed)
        self.log: List[tuple] = []
        self._lock = threading.Lock()

    # -- plan construction ------------------------------------------------------
    def add_rule(self, *args, **kwargs) -> FaultRule:
        rule = args[0] if args and isinstance(args[0], FaultRule) \
            else FaultRule(*args, **kwargs)
        self.rules.append(rule)
        return rule

    @property
    def fired(self) -> int:
        """Total number of fault activations so far."""
        return len(self.log)

    # -- the hot path -----------------------------------------------------------
    def visit(self, site: str, info: Dict[str, object]) -> None:
        """Decide and perform the action for one injection-point visit.

        Decision state (hit counters, the seeded RNG) is updated under a
        lock so ordinals are counted exactly once across threads.
        """
        fired_rule = None
        with self._lock:
            for rule in self.rules:
                if not rule.applies(site, info):
                    continue
                rule.hits += 1
                if rule.max_fires is not None and rule.fires >= rule.max_fires:
                    continue
                if rule.at_hits:
                    fire = rule.hits in rule.at_hits
                else:
                    fire = rule.rate > 0.0 and self.rng.random() < rule.rate
                if fire:
                    rule.fires += 1
                    fired_rule = rule
                    self.log.append((site, rule.action, dict(info)))
                    break
        if fired_rule is None:
            return
        if fired_rule.action == "raise":
            raise InjectedFault(site, detail=repr(sorted(info.items())))
        if fired_rule.action == "sleep":
            time.sleep(fired_rule.seconds)
        else:
            fired_rule.callback(site, info)

    # -- activation -------------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        activate(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        deactivate(self)


#: the active injector; module-global so fault_point stays one read + check
_ACTIVE: Optional[FaultInjector] = None
_ACTIVE_LOCK = threading.Lock()


def activate(injector: FaultInjector) -> None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a FaultInjector is already active")
        _ACTIVE = injector


def deactivate(injector: FaultInjector) -> None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is injector:
            _ACTIVE = None


def fault_point(site: str, **info) -> None:
    """Declare an injection point; free when no injector is active."""
    injector = _ACTIVE
    if injector is not None:
        injector.visit(site, info)
