"""Morsels and bounded channels: the transport layer of the dataflow runtime.

A *morsel* is the unit of data movement between pipeline stages: a plain
list of ``(lineage, row)`` pairs, the same dict rows the worker kernels
consume and produce, so no hop pivots or copies them.  Lineage tuples
encode where a row came from -- the global scan index of its source vertex
followed by one expansion index per row-generating operator -- so the final
gather can merge the outputs of all partitions back into exactly the order
the serial row engine would have produced, no matter how work was scheduled
across workers.

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
from typing import Dict, List, Optional, Tuple

from repro.testing.faults import fault_point

#: lineage tuple: global source index followed by per-operator output indices
Seq = Tuple[int, ...]

#: (lineage, row) pairs are what worker steps consume and produce
Pair = Tuple[Seq, Dict[str, object]]

#: channel capacity, in morsels.  Small on purpose: backpressure is part of
#: the design (a fast producer must wait for its consumer), and the
#: early-close stress tests rely on channels actually filling up.
CAPACITY = 8


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

    def __init__(self):
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._poisoned = False

    def try_put(self, morsel: List[Pair]) -> bool:
        """Append a morsel if there is room; False means backpressure."""
        if fault_point("channel.put") == "stall":
            return False  # injected backpressure: the scheduler will retry
        with self._lock:
            if self._poisoned:
                return True  # swallow: the segment is unwinding
            if len(self._queue) >= CAPACITY:
                return False
            self._queue.append(morsel)
            return True

    def try_get(self) -> Optional[List[Pair]]:
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

    def poison(self) -> None:
        """Kill the channel (idempotent): drop what is buffered, swallow
        further puts, and read as exhausted from now on.

        Used when a producer fails -- partial results of a failed segment
        must not surface -- and after every segment, to free whatever a
        cancelled run left buffered.
        """
        with self._lock:
            self._poisoned = True
            self._closed = True
            self._queue.clear()

    def exhausted(self) -> bool:
        """True when no morsel is buffered and no producer remains."""
        with self._lock:
            return self._closed and not self._queue

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)
