"""VCD waveform writing and parsing.

The regression tool dumps one VCD per (model view, test, seed) run; the bus
analyzer parses the RTL and BCA dumps back and compares them per cycle.
"""

from .writer import VcdWriter, dump_to_string, make_identifier
from .parser import (
    VcdFile, VcdParseError, VcdSignal, diff_signals, parse_vcd,
)

__all__ = [
    "VcdWriter",
    "make_identifier",
    "dump_to_string",
    "VcdFile",
    "VcdSignal",
    "VcdParseError",
    "parse_vcd",
    "diff_signals",
]
