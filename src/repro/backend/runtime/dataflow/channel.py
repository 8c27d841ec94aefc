"""Morsels and bounded channels: the transport layer of the dataflow runtime.

A :class:`Morsel` is the unit of data movement between pipeline stages: a
:class:`~repro.backend.runtime.columnar.ColumnBatch` (the same columnar
binding-table format the vectorized engine uses) together with one *lineage*
tuple per row.  Lineage tuples encode where a row came from -- the global
scan index of its source vertex followed by one expansion index per
row-generating operator -- so the final gather can merge the outputs of all
partitions back into exactly the order the serial row engine would have
produced, no matter how work was scheduled across workers.

A :class:`Channel` is a bounded, multi-producer single-consumer morsel queue
connecting two pipeline stages of one partition.  Channels never block:
``try_put``/``try_get`` fail fast and the scheduler retries after running
other actors (draining consumers before stalled producers), which is what
makes the bounded capacity deadlock-free with fewer worker threads than
actors.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backend.runtime.columnar import ColumnBatch
from repro.testing.faults import fault_point

#: lineage tuple: global source index followed by per-operator output indices
Seq = Tuple[int, ...]

#: (lineage, row) pairs are what worker steps consume and produce
Pair = Tuple[Seq, Dict[str, object]]

#: default channel capacity, in morsels.  Small on purpose: backpressure is
#: part of the design (a fast producer must wait for its consumer), and the
#: early-close stress tests rely on channels actually filling up.
DEFAULT_CAPACITY = 8


class Morsel:
    """A batch of (lineage, row) pairs in columnar form."""

    __slots__ = ("batch", "seqs")

    def __init__(self, batch: ColumnBatch, seqs: Sequence[Seq]):
        if batch.num_rows != len(seqs):
            raise ValueError("morsel has %d rows but %d lineage tuples"
                             % (batch.num_rows, len(seqs)))
        self.batch = batch
        self.seqs = list(seqs)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Pair]) -> "Morsel":
        seqs = [seq for seq, _ in pairs]
        batch = ColumnBatch.from_rows([row for _, row in pairs])
        return cls(batch, seqs)

    def pairs(self) -> List[Pair]:
        return list(zip(self.seqs, self.batch.to_rows()))

    @property
    def num_rows(self) -> int:
        return self.batch.num_rows

    def __repr__(self) -> str:
        return "Morsel(rows=%d, tags=%s)" % (self.num_rows, list(self.batch.columns))


def morselize(pairs: Sequence[Pair], morsel_rows: int) -> List[Morsel]:
    """Split pairs into morsels of at most ``morsel_rows`` rows."""
    if morsel_rows <= 0:
        morsel_rows = len(pairs) or 1
    return [Morsel.from_pairs(pairs[start:start + morsel_rows])
            for start in range(0, len(pairs), morsel_rows)]


class Channel:
    """A bounded multi-producer, single-consumer morsel queue.

    ``close()`` marks the producing side finished; a consumer seeing an empty,
    closed channel knows its input is exhausted.  Puts and gets never block --
    the dataflow scheduler owns the retry policy.

    A failing producer *poisons* its channels instead of merely closing
    them: buffered morsels are discarded, further puts are swallowed, and
    consumers see the channel exhausted immediately -- so peers of a failed
    worker unwind promptly instead of draining doomed partial results.  The
    root-cause error travels to the driver separately (it is not re-raised
    per consumer).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.capacity = capacity
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._poisoned: Optional[BaseException] = None

    def try_put(self, morsel: Morsel) -> bool:
        """Append a morsel if there is room; False means backpressure."""
        if fault_point("channel.put") == "stall":
            return False  # injected backpressure: the scheduler will retry
        with self._lock:
            if self._poisoned is not None:
                return True  # swallow: the segment is unwinding
            if len(self._queue) >= self.capacity:
                return False
            self._queue.append(morsel)
            return True

    def try_get(self) -> Optional[Morsel]:
        if fault_point("channel.get") == "stall":
            return None  # injected slow link: looks momentarily empty
        with self._lock:
            if self._queue:
                return self._queue.popleft()
            return None

    def close(self) -> None:
        """Mark the producing side done (idempotent)."""
        with self._lock:
            self._closed = True

    def poison(self, error: BaseException) -> None:
        """Kill the channel after a producer failure (idempotent).

        Consumers observe it closed and empty at once; whatever was buffered
        is dropped (partial results of a failed segment must not surface).
        """
        with self._lock:
            if self._poisoned is None:
                self._poisoned = error
            self._closed = True
            self._queue.clear()

    def drain(self) -> List[Morsel]:
        """Remove and return everything buffered (used on cancellation)."""
        with self._lock:
            morsels = list(self._queue)
            self._queue.clear()
            return morsels

    @property
    def closed(self) -> bool:
        return self._closed

    def exhausted(self) -> bool:
        """True when no morsel is buffered and no producer remains."""
        with self._lock:
            if self._poisoned is not None:
                return True
            return self._closed and not self._queue

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)
