"""First-divergence localization over two VCD dumps.

The bus analyzer answers "how aligned are the ports"; this module answers
the engineer's next question — *where exactly* did the two models split.
Every signal the dumps share is compared with the analyzer's own
per-signal primitive (:func:`~repro.vcd.diff_signals`, a merge walk over
per-cycle step functions), and the first (cycle, signal) point at which
the values differ is reported, with ties inside one cycle broken by
signal name so the answer is deterministic for any dump order.

Design notes, pinned by the edge-case tests:

* Only signals present in **both** dumps are compared.  The RTL and BCA
  views legitimately differ inside ``tb.dut.``, so view-private signals
  are reported (``only_in_a``/``only_in_b``) but never compared.
* The comparison is keyed by hierarchical name, so the ``$var`` declaration
  order of the two files is irrelevant.
* ``x``/``z`` digits were already mapped to 0 by the parser; a signal
  that is X in one dump and 0 in the other therefore compares equal.
  That is the comparison the analyzer itself performs, and the triage
  verdict must agree with the alignment rate, not second-guess it.
* Dumps of different lengths are compared over the shorter one
  (``truncated`` is set): a crashed run's tail is absence of evidence,
  not a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..vcd import VcdFile, diff_signals, parse_vcd


@dataclass(frozen=True)
class SignalDivergence:
    """One (signal, cycle) point where the two dumps disagree."""

    signal: str
    cycle: int
    a_value: int
    b_value: int

    def describe(self, labels: Tuple[str, str] = ("rtl", "bca")) -> str:
        return (
            f"{self.signal} @ cycle {self.cycle} "
            f"({labels[0]}={self.a_value} {labels[1]}={self.b_value})"
        )


@dataclass
class DivergenceScan:
    """Outcome of one divergence scan."""

    #: The earliest divergence — smallest cycle, then smallest signal
    #: name — or ``None`` when the shared signals agree everywhere.
    first: Optional[SignalDivergence]
    #: Every signal that disagrees at the first diverging cycle (the
    #: same-cycle split set; ``first`` is its name-wise minimum).
    at_first_cycle: Tuple[SignalDivergence, ...]
    #: Hierarchical names compared (present in both dumps).
    compared: Tuple[str, ...]
    #: Signals only one dump declares — never compared.
    only_in_a: Tuple[str, ...]
    only_in_b: Tuple[str, ...]
    #: Cycles compared: ``min`` of the two dump lengths.
    total_cycles: int
    #: True when the dumps covered different cycle counts.
    truncated: bool
    #: Per-signal mismatch counts over the whole scan (diagnostics).
    mismatch_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        return self.first is not None

    def summary(self) -> str:
        if self.first is None:
            return (
                f"no divergence: {len(self.compared)} shared signal(s) "
                f"identical over {self.total_cycles} cycle(s)"
            )
        others = len(self.at_first_cycle) - 1
        tail = f" (+{others} more signal(s) that cycle)" if others else ""
        return f"first divergence: {self.first.describe()}{tail}"


def find_first_divergence(
    a: Union[str, VcdFile],
    b: Union[str, VcdFile],
    signals: Optional[Sequence[str]] = None,
) -> DivergenceScan:
    """Find the first point at which ``a`` and ``b`` diverge.

    ``signals`` optionally restricts the scan to those names (missing
    ones are silently classified as one-sided); by default every signal
    the dumps share is compared.
    """
    vcd_a = parse_vcd(a) if isinstance(a, str) else a
    vcd_b = parse_vcd(b) if isinstance(b, str) else b
    names_a = set(vcd_a.signals)
    names_b = set(vcd_b.signals)
    universe = set(signals) if signals is not None else names_a | names_b
    shared = sorted(universe & names_a & names_b)
    only_a = tuple(sorted(universe & names_a - names_b))
    only_b = tuple(sorted(universe & names_b - names_a))
    total = min(vcd_a.n_cycles, vcd_b.n_cycles)
    truncated = vcd_a.n_cycles != vcd_b.n_cycles

    diverged: List[Tuple[str, List[Tuple[int, int]]]] = []
    for name in shared:
        intervals = diff_signals(vcd_a[name], vcd_a.timescale,
                                 vcd_b[name], vcd_b.timescale, total)
        if intervals:
            diverged.append((name, intervals))
    mismatch_counts = {
        name: sum(end - first for first, end in intervals)
        for name, intervals in diverged
    }
    if not diverged:
        return DivergenceScan(
            first=None, at_first_cycle=(), compared=tuple(shared),
            only_in_a=only_a, only_in_b=only_b, total_cycles=total,
            truncated=truncated, mismatch_counts=mismatch_counts,
        )
    first_cycle = min(intervals[0][0] for _, intervals in diverged)
    at_first = tuple(
        SignalDivergence(
            name, first_cycle,
            vcd_a[name].value_at(first_cycle * vcd_a.timescale),
            vcd_b[name].value_at(first_cycle * vcd_b.timescale))
        for name, intervals in diverged
        if intervals[0][0] == first_cycle
    )
    return DivergenceScan(
        first=at_first[0], at_first_cycle=at_first, compared=tuple(shared),
        only_in_a=only_a, only_in_b=only_b, total_cycles=total,
        truncated=truncated, mismatch_counts=mismatch_counts,
    )
