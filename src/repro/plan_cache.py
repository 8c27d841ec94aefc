"""Thread-safe LRU plan cache shared by :class:`~repro.service.GraphService`
sessions.

Repeated parameterized queries dominate production traffic; parsing and
optimizing them anew on every call wastes the whole optimizer budget on work
whose outcome never changes.  :class:`PlanCache` memoizes finished
:class:`~repro.optimizer.planner.OptimizationReport` objects under a key
built from:

* the *normalized* query text (whitespace collapsed, so formatting or
  indentation differences still hit);
* the query language;
* a parameter signature.  Which signature depends on how parameters reach
  the plan:

  - **inline** (``GraphService.optimize``): the Cypher front-end inlines
    ``$param`` values as literals before parsing, so the key must carry the
    full signature -- names, **types** and values
    (:func:`parameter_signature`).  Types are explicit because ``1``,
    ``1.0`` and ``True`` compare (and hash) equal in Python but parse into
    different literals;
  - **deferred** (prepared statements): parameters stay symbolic in the
    plan and are bound at execute time, so the key carries names and type
    shapes only (:func:`parameter_type_signature`) -- N distinct values of
    one template share a single cache entry;

* an environment fingerprint (backend, graph size, optimizer config), so
  mutating the graph or reconfiguring the optimizer bypasses stale entries
  instead of serving plans built for a different world.  The engine is not
  part of it: every engine runs the same plan.

All cache operations (lookup, insert, accounting) hold an internal lock, so
one cache can safely serve the concurrent sessions of a ``GraphService``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple


class PlanCacheInfo(NamedTuple):
    """Hit/miss accounting exposed via ``cache_info()``."""

    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int

    @classmethod
    def disabled(cls) -> "PlanCacheInfo":
        """The sentinel reported when no plan cache is configured.

        ``capacity=0`` is the discriminator: a live cache always has
        ``capacity >= 1`` (enforced by :class:`PlanCache`), so
        ``info.capacity == 0`` means "caching disabled", not "an empty
        cache".
        """
        return cls(hits=0, misses=0, size=0, capacity=0, evictions=0)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for the ``/metrics`` endpoint and dashboards.

        Includes the derived ``hit_rate`` and the ``enabled`` discriminator
        (``capacity == 0`` means caching is disabled, not empty).
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "capacity": self.capacity,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "enabled": self.capacity > 0,
        }


def freeze_value(value) -> Tuple[str, object]:
    """A hashable ``(type_name, frozen_value)`` fingerprint of a parameter.

    The type name keeps cross-type hash-equal values (``1`` / ``1.0`` /
    ``True``) from colliding; containers are frozen recursively.
    """
    type_name = type(value).__name__
    if isinstance(value, (list, tuple)):
        return (type_name, tuple(freeze_value(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return (type_name, tuple(sorted((freeze_value(item) for item in value),
                                        key=repr)))
    if isinstance(value, dict):
        return (type_name, tuple(sorted((key, freeze_value(item))
                                        for key, item in value.items())))
    return (type_name, value)


def parameter_signature(parameters: Optional[Dict[str, object]]) -> Tuple:
    """Order-insensitive signature of a parameter dict (names, types, values)."""
    if not parameters:
        return ()
    return tuple(sorted((name, freeze_value(value))
                        for name, value in parameters.items()))


def freeze_type(value) -> Tuple:
    """A hashable *type shape* fingerprint of a parameter value.

    Unlike :func:`freeze_value` this carries no values: ``[1, 2]`` and
    ``[7, 8, 9]`` share the shape ``("list", (("int",),))``.  Container
    shapes record the (deduplicated, sorted) element shapes so that e.g. a
    list of ints and a list of strings stay distinct while lists of
    different lengths collapse.
    """
    type_name = type(value).__name__
    if isinstance(value, (list, tuple, set, frozenset)):
        element_shapes = tuple(sorted({freeze_type(item) for item in value}))
        return (type_name, element_shapes)
    if isinstance(value, dict):
        return (type_name, tuple(sorted((key, freeze_type(item))
                                        for key, item in value.items())))
    return (type_name,)


def parameter_type_signature(parameters: Optional[Dict[str, object]]) -> Tuple:
    """Order-insensitive signature of parameter names and type shapes only.

    The cache key for *deferred* (prepared-statement) plans: values are
    bound at execute time, so every distinct value set of one template maps
    to the same key and reuses one optimized plan.
    """
    if not parameters:
        return ()
    return tuple(sorted((name, freeze_type(value))
                        for name, value in parameters.items()))


def normalize_query_text(query: str) -> str:
    """Collapse whitespace runs *outside string literals* so formatting
    differences share a key.

    Quoted spans are kept verbatim: ``name = "A  B"`` and ``name = "A B"``
    are different queries and must never share a cache entry.  Neither
    front-end tokenizer supports escape sequences, so a literal simply runs
    to the next matching quote.
    """
    out = []
    i, n = 0, len(query)
    while i < n:
        ch = query[i]
        if ch in "'\"":
            end = query.find(ch, i + 1)
            end = n - 1 if end == -1 else end
            out.append(query[i:end + 1])
            i = end + 1
        elif ch.isspace():
            while i < n and query[i].isspace():
                i += 1
            out.append(" ")
        else:
            start = i
            while i < n and not query[i].isspace() and query[i] not in "'\"":
                i += 1
            out.append(query[start:i])
    return "".join(out).strip()


class PlanCache:
    """A bounded, thread-safe LRU mapping cache keys to optimization reports.

    Every operation holds an internal lock: lookups, inserts and the
    hit/miss/eviction accounting are atomic, so concurrent sessions sharing
    one cache can never corrupt the LRU order or lose counter updates.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Tuple):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: Tuple, report) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = report
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def info(self) -> PlanCacheInfo:
        with self._lock:
            return PlanCacheInfo(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                capacity=self.capacity,
                evictions=self._evictions,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
