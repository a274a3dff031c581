"""Cycle-based simulation kernel (the NCSim substitute).

Public API:

- :class:`Signal` — 2-state wire/register with deferred commit
- :class:`Simulator` — single-clock scheduler with delta-cycle settling
- :class:`Module` — hierarchical container for signals and processes
- :class:`Tracer` — per-cycle waveform observer interface
"""

from .signal import (
    MultipleDriverError,
    Signal,
    SignalError,
    WidthError,
    multiple_driver_message,
)
from .simulator import (
    MAX_DELTAS,
    DeltaOverflowError,
    ElaborationError,
    ProcessInfo,
    Simulator,
    SimulatorError,
    Tracer,
)
from .module import Module

__all__ = [
    "Signal",
    "SignalError",
    "MultipleDriverError",
    "WidthError",
    "Simulator",
    "SimulatorError",
    "DeltaOverflowError",
    "ElaborationError",
    "ProcessInfo",
    "Tracer",
    "Module",
    "MAX_DELTAS",
    "multiple_driver_message",
]
