"""Central registry mapping (execution mode, physical operator) -> kernel.

Every execution engine registers its operator handlers here at import time
and dispatches through :func:`kernel_for`, so the set of operators an engine
supports is declared data, not an implementation detail buried in a module-
private dict.  An operator an engine cannot (or deliberately does not)
execute itself must declare an explicit *fallback* with a reason -- e.g. the
dataflow engine runs pipeline breakers at the driver through the row pipeline.

The completeness contract is enforced by tests: for every concrete
:class:`~repro.optimizer.physical_plan.PhysicalOperator` subclass and every
execution mode there must be either a registered kernel or a declared
fallback.  Adding a new physical operator without wiring every engine
therefore fails CI (``missing_registrations``) instead of failing at query
time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

#: the execution modes engines register kernels under: one per engine in
#: ``repro.backend.ENGINES``, named after it (the two serial engines are the
#: row and the batch pipeline of :mod:`repro.backend.runtime.streaming`)
MODE_STREAM_ROWS = "row"
MODE_STREAM_BATCHES = "vectorized"
MODE_DATAFLOW = "dataflow"

MODES = (MODE_STREAM_ROWS, MODE_STREAM_BATCHES, MODE_DATAFLOW)

_KERNELS: Dict[str, Dict[type, Callable]] = {mode: {} for mode in MODES}
_FALLBACKS: Dict[str, Dict[type, str]] = {mode: {} for mode in MODES}


def _check_mode(mode: str) -> None:
    if mode not in _KERNELS:
        raise ValueError("unknown execution mode %r (expected one of %s)"
                         % (mode, list(MODES)))


def register_kernel(mode: str, op_type: type, handler: Callable) -> Callable:
    """Register the kernel executing ``op_type`` in ``mode``."""
    _check_mode(mode)
    _KERNELS[mode][op_type] = handler
    return handler


def register_fallback(mode: str, op_type: type, reason: str) -> None:
    """Declare that ``mode`` deliberately delegates ``op_type`` elsewhere."""
    _check_mode(mode)
    _FALLBACKS[mode][op_type] = reason


def kernel_for(mode: str, op_type: type) -> Optional[Callable]:
    """The kernel for ``op_type`` in ``mode``, or None (check fallbacks)."""
    _check_mode(mode)
    return _KERNELS[mode].get(op_type)


def has_kernel(mode: str, op_type: type) -> bool:
    _check_mode(mode)
    return op_type in _KERNELS[mode]


def fallback_reason(mode: str, op_type: type) -> Optional[str]:
    _check_mode(mode)
    return _FALLBACKS[mode].get(op_type)


def all_physical_operator_types() -> List[type]:
    """Every concrete PhysicalOperator subclass, transitively."""
    from repro.optimizer.physical_plan import PhysicalOperator

    found: List[type] = []
    stack = list(PhysicalOperator.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        found.append(cls)
    return sorted(set(found), key=lambda cls: cls.__name__)


def missing_registrations() -> List[Tuple[str, str]]:
    """(mode, operator) pairs with neither a kernel nor a declared fallback.

    Importing :mod:`repro.backend` registers every engine; callers that have
    not done so yet see spurious gaps, so the engine modules are imported
    here explicitly.
    """
    import repro.backend.runtime.dataflow.steps  # noqa: F401
    import repro.backend.runtime.streaming  # noqa: F401

    missing: List[Tuple[str, str]] = []
    for mode in MODES:
        for op_type in all_physical_operator_types():
            if op_type not in _KERNELS[mode] and op_type not in _FALLBACKS[mode]:
                missing.append((mode, op_type.__name__))
    return missing
