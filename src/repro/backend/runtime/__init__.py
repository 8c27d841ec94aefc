"""Shared runtime pieces: binding values, execution context and interpreters.

The serial pipelines (:mod:`repro.backend.runtime.streaming`) and the
dataflow runtime are thin adapters over the operator-kernel layer
(:mod:`repro.backend.runtime.kernels`); importing this package registers
every engine's kernels with the central registry.
"""

from repro.backend.runtime import kernels
from repro.backend.runtime.binding import ERef, PRef, VRef
from repro.backend.runtime.context import ExecutionContext
from repro.backend.runtime.streaming import (
    execute_operator,
    stream_batches,
    stream_result_rows,
    stream_rows,
)

__all__ = [
    "VRef",
    "ERef",
    "PRef",
    "ExecutionContext",
    "execute_operator",
    "kernels",
    "stream_batches",
    "stream_result_rows",
    "stream_rows",
]
