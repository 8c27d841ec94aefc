"""Exchange operators: how rows move between partitions (and what it costs).

Three kinds of data movement connect the per-partition pipelines:

* **hash shuffle** -- route each row to the partition owning a bound vertex
  (``partition_of(row[tag].id)``).  Used after every row-generating expansion
  so that a row always lives where its newest vertex lives, exactly the
  locality discipline the GOpt cost model assumes.  Rows that cross
  partitions here are *observed* communication, recorded as
  ``shuffled``; the shared kernels charge the simulated counts of
  :mod:`repro.backend.graphscope_like` to ``tuples_shuffled`` on their own,
  so the two are independent counts that must reconcile.
* **relocate** -- the same hash routing, but keyed on the *anchor* of the
  next expansion when that anchor is not the vertex the row is currently
  co-located with (tree-shaped patterns).  The cost model folds this
  repartitioning into its per-expansion estimate instead of pricing it, so
  relocation traffic is recorded apart, as ``relocated``.
* **gather** -- merge the final per-partition outputs of a segment at the
  driver, in lineage order.  Recorded as observed traffic; the driver-side
  pipeline breakers (joins included) then charge the simulated
  communication through the row-engine handlers they reuse, so the work
  counters stay identical to the serial engines.

:class:`ExchangeStats` is the observability surface: every physical row (or
coalesced bundle) that moved, by exchange kind.
"""

from __future__ import annotations

from typing import Dict


class ExchangeStats:
    """Counts of rows that physically moved between partitions."""

    __slots__ = ("shuffled", "local", "relocated", "gathered")

    def __init__(self):
        #: rows (or intersect bundles) that crossed partitions at a priced shuffle
        self.shuffled = 0
        #: rows that stayed on their partition through a priced shuffle
        self.local = 0
        #: rows moved by unpriced anchor re-localization
        self.relocated = 0
        #: rows collected from the partitions by the driver's final merge
        self.gathered = 0

    def record_shuffle(self, crossed: int, stayed: int) -> None:
        self.shuffled += crossed
        self.local += stayed

    def record_relocate(self, crossed: int) -> None:
        self.relocated += crossed

    def record_gather(self, rows: int) -> None:
        self.gathered += rows

    def snapshot(self) -> Dict[str, int]:
        return {
            "shuffled": self.shuffled,
            "local": self.local,
            "relocated": self.relocated,
            "gathered": self.gathered,
        }

    def __repr__(self) -> str:
        return "ExchangeStats(%s)" % (", ".join(
            "%s=%d" % (k, v) for k, v in self.snapshot().items()),)


class ExchangeSpec:
    """Compiler description of the exchange following one pipeline.

    ``tag`` names the binding whose vertex id keys the hash routing.
    ``priced`` exchanges record crossing rows as ``shuffled`` (these are
    the shuffles the cost model simulates); relocations as ``relocated``.
    ``coalesce_bundles`` makes the exchange count one transfer per
    (parent row, target vertex) bundle instead of per row -- the
    ``ExpandIntersect`` operator unfolds multi-edge matches only after the
    intersection is shipped, which is also how the simulated model charges
    it (once per intersected target).
    """

    __slots__ = ("tag", "priced", "coalesce_bundles")

    def __init__(self, tag: str, priced: bool, coalesce_bundles: bool = False):
        self.tag = tag
        self.priced = priced
        self.coalesce_bundles = coalesce_bundles

    @property
    def kind(self) -> str:
        return "shuffle" if self.priced else "relocate"

    def __repr__(self) -> str:
        return "ExchangeSpec(%s on %r%s)" % (
            self.kind, self.tag, ", bundled" if self.coalesce_bundles else "")
