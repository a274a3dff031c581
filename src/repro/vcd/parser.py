"""VCD (Value Change Dump) parser.

Parses the subset of IEEE 1364 VCD that simulators emit for 2-state designs
(``$scope``/``$var`` headers, scalar ``0<id>``/``1<id>`` and vector
``b<bits> <id>`` changes, ``x``/``z`` digits mapped to 0).  The result is a
:class:`VcdFile` whose signals can be expanded to one value per clock cycle,
or run-length encoded as a per-cycle step function — the representation the
bus analyzer and the triage divergence search compare across the RTL and BCA
runs (:func:`diff_signals`).  Timestamps must not decrease.
"""

from __future__ import annotations

import io
from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union


class VcdParseError(Exception):
    """Malformed VCD input."""


class VcdSignal:
    """One declared variable: hierarchical name, width, change list."""

    __slots__ = ("name", "width", "ident", "changes")

    def __init__(self, name: str, width: int, ident: str) -> None:
        self.name = name
        self.width = width
        self.ident = ident
        #: list of (time, value), time-ordered, first entry from $dumpvars
        self.changes: List[Tuple[int, int]] = []

    def value_at(self, time: int) -> int:
        """Value at ``time`` (last change at or before it; 0 before any)."""
        result = 0
        for when, value in self.changes:
            if when > time:
                break
            result = value
        return result

    def expand(self, n_cycles: int, timescale: int) -> List[int]:
        """Per-cycle values for cycles ``0..n_cycles-1``."""
        out: List[int] = []
        value = 0
        idx = 0
        changes = self.changes
        n_changes = len(changes)
        for cycle in range(n_cycles):
            t = cycle * timescale
            while idx < n_changes and changes[idx][0] <= t:
                value = changes[idx][1]
                idx += 1
            out.append(value)
        return out

    def steps(self, n_cycles: int,
              timescale: int) -> Tuple[List[int], List[int]]:
        """Per-cycle values for cycles ``0..n_cycles-1`` as a step function.

        Returns ``(starts, values)``: the signal holds ``values[k]`` from
        cycle ``starts[k]`` up to the next start (or ``n_cycles``).  This
        is exactly :meth:`expand` run-length encoded: a change at time
        ``t`` lands on cycle ``ceil(t / timescale)``, the last change on
        a cycle wins, equal neighbours are merged and the first step
        starts at cycle 0.  Two signals expand to the same list if and
        only if their steps are equal.
        """
        if n_cycles <= 0:
            return [], []
        starts = [0]
        values = [0]
        for when, value in self.changes:
            if timescale > 0:
                cycle = -(-when // timescale)
            elif when > 0:
                break
            else:
                cycle = 0
            if cycle >= n_cycles:
                break
            if cycle <= starts[-1]:  # same cycle: the later change wins
                values[-1] = value
                if len(values) > 1 and values[-2] == value:
                    starts.pop()
                    values.pop()
            elif value != values[-1]:
                starts.append(cycle)
                values.append(value)
        return starts, values


def diff_signals(a: VcdSignal, timescale_a: int, b: VcdSignal,
                 timescale_b: int, n_cycles: int) -> List[Tuple[int, int]]:
    """The cycles of ``0..n_cycles-1`` on which ``a`` and ``b`` expand to
    different values, as sorted, disjoint, non-adjacent half-open
    ``(first, end)`` intervals: a merge walk over their :meth:`steps`."""
    out: List[Tuple[int, int]] = []
    if a.changes == b.changes and timescale_a == timescale_b:
        return out  # equal without being stepped: the common, aligned case
    starts_a, values_a = a.steps(n_cycles, timescale_a)
    starts_b, values_b = b.steps(n_cycles, timescale_b)
    last_a = len(starts_a) - 1
    last_b = len(starts_b) - 1
    i = j = 0
    cycle = 0
    lo = -1  # start of the open mismatch interval, -1 when none
    while cycle < n_cycles:
        next_a = starts_a[i + 1] if i < last_a else n_cycles
        next_b = starts_b[j + 1] if j < last_b else n_cycles
        end = next_a if next_a < next_b else next_b
        if values_a[i] != values_b[j]:
            if lo < 0:
                lo = cycle
        elif lo >= 0:
            out.append((lo, cycle))
            lo = -1
        if next_a == end:
            i += 1
        if next_b == end:
            j += 1
        cycle = end
    if lo >= 0:
        out.append((lo, n_cycles))
    return out


class VcdFile:
    """Parsed VCD: timescale, declared signals, and the final timestamp."""

    def __init__(self, timescale: int) -> None:
        self.timescale = timescale
        self.signals: Dict[str, VcdSignal] = {}
        self.end_time = 0

    @property
    def n_cycles(self) -> int:
        """Number of whole clock cycles covered by the dump."""
        if self.timescale <= 0:
            return 0
        return self.end_time // self.timescale

    def names(self) -> List[str]:
        return sorted(self.signals)

    def __getitem__(self, name: str) -> VcdSignal:
        return self.signals[name]

    def __contains__(self, name: str) -> bool:
        return name in self.signals


def _parse_vector(token: str) -> int:
    """Parse the binary digits of a vector change, mapping x/z to 0."""
    if not token:
        raise VcdParseError("empty vector value")
    value = 0
    for ch in token:
        value <<= 1
        if ch == "1":
            value |= 1
        elif ch not in "0xXzZ":
            raise VcdParseError(f"bad vector digit {ch!r}")
    return value


def parse_vcd(source: Union[str, io.TextIOBase], is_path: Optional[bool] = None) -> VcdFile:
    """Parse a VCD from a file path, VCD text, or text stream.

    ``is_path`` disambiguates strings; by default a string containing a
    newline is treated as VCD text, otherwise as a path.
    """
    if isinstance(source, str):
        if is_path is None:
            is_path = "\n" not in source
        if is_path:
            with open(source, "r", encoding="ascii") as handle:
                return _parse_stream(handle)
        return _parse_stream(io.StringIO(source))
    return _parse_stream(source)


def _token_blocks(stream, size: int = 1 << 14) -> Iterator[List[str]]:
    """The whitespace-separated tokens of ``stream``, one list per block
    of ``size`` characters read: every token is split off at C speed,
    yet memory stays bounded by the block size for any dump."""
    tail = ""
    for block in iter(partial(stream.read, size), ""):
        tokens = (tail + block).split()
        # A block that ends mid-token carries the fragment to the next.
        tail = "" if block[-1].isspace() else tokens.pop()
        yield tokens
    if tail:
        yield [tail]


def _parse_stream(stream) -> VcdFile:
    tokens = chain.from_iterable(_token_blocks(stream))
    timescale = 1
    by_ident: Dict[str, List[VcdSignal]] = {}
    scope: List[str] = []
    vcd: Optional[VcdFile] = None

    def skip_to_end() -> List[str]:
        body = []
        for token in tokens:
            if token == "$end":
                return body
            body.append(token)
        raise VcdParseError("unterminated $ section")

    # -- header ------------------------------------------------------------
    for token in tokens:
        if token in ("$date", "$version", "$comment"):
            skip_to_end()
        elif token == "$timescale":
            body = "".join(skip_to_end())
            digits = "".join(ch for ch in body if ch.isdigit())
            if not digits:
                raise VcdParseError(f"bad timescale {body!r}")
            timescale = int(digits)
        elif token == "$scope":
            body = skip_to_end()
            if len(body) != 2:
                raise VcdParseError(f"bad $scope {body!r}")
            scope.append(body[1])
        elif token == "$upscope":
            skip_to_end()
            if not scope:
                raise VcdParseError("$upscope with empty scope stack")
            scope.pop()
        elif token == "$var":
            body = skip_to_end()
            if len(body) < 4:
                raise VcdParseError(f"bad $var {body!r}")
            width = int(body[1])
            if width < 0:
                raise VcdParseError(f"bad $var {body!r}")
            ident = body[2]
            leaf = body[3]  # ignore optional [msb:lsb] reference tail
            name = ".".join(scope + [leaf])
            sig = VcdSignal(name, width, ident)
            by_ident.setdefault(ident, []).append(sig)
        elif token == "$enddefinitions":
            skip_to_end()
            vcd = VcdFile(timescale)
            for ident_signals in by_ident.values():
                for sig in ident_signals:
                    if sig.name in vcd.signals:
                        raise VcdParseError(f"duplicate signal {sig.name!r}")
                    vcd.signals[sig.name] = sig
            break
        else:
            raise VcdParseError(f"unexpected header token {token!r}")
    if vcd is None:
        raise VcdParseError("no $enddefinitions in input")

    # -- value changes -------------------------------------------------------
    # An identifier with one owner gets its bound ``changes.append`` and
    # width mask; only identifiers shared by several $vars loop.
    single: Dict[str, Tuple[Callable[[Tuple[int, int]], None], int]] = {}
    shared: Dict[str, List[VcdSignal]] = {}
    for ident, group in by_ident.items():
        if len(group) == 1:
            single[ident] = (group[0].changes.append,
                             (1 << group[0].width) - 1)
        else:
            shared[ident] = group
    time = 0

    def record_shared(ident: str, value: int) -> None:
        group = shared.get(ident)
        if group is None:
            raise VcdParseError(f"value change for undeclared id {ident!r}")
        for sig in group:
            sig.changes.append((time, value & ((1 << sig.width) - 1)))

    for token in tokens:
        first = token[0]
        if first == "b" or first == "B":
            bits = token[1:]
            ident = next(tokens, None)
            if ident is None:
                raise VcdParseError("vector change missing identifier")
            if bits and not bits.strip("01"):
                value = int(bits, 2)
            else:
                value = _parse_vector(bits)
            sink = single.get(ident)
            if sink is None:
                record_shared(ident, value)
            else:
                sink[0]((time, value & sink[1]))
        elif first in "01xXzZ":
            value = 1 if first == "1" else 0
            sink = single.get(token[1:])
            if sink is None:
                record_shared(token[1:], value)
            else:
                sink[0]((time, value & sink[1]))
        elif first == "#":
            stamp = int(token[1:])
            if stamp < time:
                raise VcdParseError(
                    f"timestamp #{stamp} follows #{time}: "
                    "time must not go backwards")
            time = stamp
        elif token in ("$dumpvars", "$dumpall", "$dumpon", "$dumpoff", "$end"):
            continue
        elif first in "rR":
            if next(tokens, None) is None:  # real values unsupported; skip id
                raise VcdParseError("real change missing identifier")
        elif first == "$":
            skip_to_end()
        else:
            raise VcdParseError(f"unexpected token {token!r} in value section")
    vcd.end_time = time
    return vcd
