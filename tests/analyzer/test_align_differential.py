"""Differential tests: step-function alignment against per-cycle expansion.

``compare_vcds`` and ``find_first_divergence`` compare signals as step
functions.  The reference here is the plain algorithm they replace:
expand every signal to one value per cycle and walk the cycles.  Both
must agree field for field on generated dump pairs (timestamps between
cycle boundaries, different timescales, repeated values, x/z digits,
several changes per cycle, unequal lengths) and on the real RTL/BCA
dumps of every injectable BCA bug.
"""

import os
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import PORT_SIGNALS, compare_vcds
from repro.catg import run_test
from repro.regression.testcases import build_test
from repro.triage import find_first_divergence
from repro.vcd import VcdSignal, diff_signals, parse_vcd

from ..triage.matrix import BUG_MATRIX, HUNT_SEED

SCALARS = {"req", "gnt", "eop", "lck", "r_req", "r_gnt", "r_eop"}


# -- reference: expand every signal, walk every cycle -----------------------

def reference_ports(vcd_a, vcd_b, scopes):
    total = min(vcd_a.n_cycles, vcd_b.n_cycles)
    ports = {}
    for scope in scopes:
        aligned = 0
        first_divergence: Optional[int] = None
        mismatches: Dict[str, int] = {}
        series_a = {}
        series_b = {}
        for leaf in PORT_SIGNALS:
            name = f"{scope}.{leaf}"
            series_a[leaf] = vcd_a[name].expand(total, vcd_a.timescale)
            series_b[leaf] = vcd_b[name].expand(total, vcd_b.timescale)
        for cycle in range(total):
            ok = True
            for leaf in PORT_SIGNALS:
                if series_a[leaf][cycle] != series_b[leaf][cycle]:
                    ok = False
                    mismatches[leaf] = mismatches.get(leaf, 0) + 1
            if ok:
                aligned += 1
            elif first_divergence is None:
                first_divergence = cycle
        ports[scope] = (total, aligned, first_divergence, mismatches)
    return total, ports


def reference_divergence(vcd_a, vcd_b):
    """(first cycle, [(signal, a, b) at it], mismatch counts)."""
    total = min(vcd_a.n_cycles, vcd_b.n_cycles)
    shared = sorted(set(vcd_a.signals) & set(vcd_b.signals))
    counts = {}
    points = {}
    for name in shared:
        sa = vcd_a[name].expand(total, vcd_a.timescale)
        sb = vcd_b[name].expand(total, vcd_b.timescale)
        bad = [c for c in range(total) if sa[c] != sb[c]]
        if bad:
            counts[name] = len(bad)
            points[name] = (bad[0], sa[bad[0]], sb[bad[0]])
    if not counts:
        return None, [], counts
    first = min(cycle for cycle, _, _ in points.values())
    at_first = [(name, a, b) for name, (cycle, a, b) in points.items()
                if cycle == first]
    return first, at_first, counts


def assert_matches_reference(vcd_a, vcd_b):
    report = compare_vcds(vcd_a, vcd_b)
    total, ports = reference_ports(vcd_a, vcd_b, sorted(report.ports))
    assert report.total_cycles == total
    for scope, (cycles, aligned, first, mismatches) in ports.items():
        port = report.ports[scope]
        assert port.total_cycles == cycles
        assert port.aligned_cycles == aligned
        assert port.first_divergence == first
        assert port.signal_mismatches == mismatches
        # Same key order as the cycle walk, so rendering never moves.
        assert list(port.signal_mismatches) == list(mismatches)

    scan = find_first_divergence(vcd_a, vcd_b)
    first, at_first, counts = reference_divergence(vcd_a, vcd_b)
    assert scan.mismatch_counts == counts
    assert list(scan.mismatch_counts) == list(counts)
    if first is None:
        assert scan.first is None
        assert scan.at_first_cycle == ()
    else:
        assert scan.first.cycle == first
        assert [(d.signal, d.a_value, d.b_value)
                for d in scan.at_first_cycle] == at_first
    return report


# -- generated dump pairs ----------------------------------------------------

def _digits(draw, width):
    alphabet = "01xz" if draw(st.booleans()) else "01"
    text = draw(st.text(alphabet=alphabet, min_size=1, max_size=width))
    return text if width > 1 else text[-1]


def _render(scopes, widths, timescale, events, end_cycles, dumpvars):
    """VCD text for ``events`` = [(cycle, phase, leaf index, digits)].

    ``phase`` in [0, 1) moves a change before its cycle's boundary
    (still on that cycle): time ``cycle * timescale - floor(phase *
    timescale)``.
    """
    idents = {}
    lines = [f"$timescale {timescale}ns $end"]
    for s, scope in enumerate(scopes):
        for part in scope.split("."):
            lines.append(f"$scope module {part} $end")
        for k, leaf in enumerate(PORT_SIGNALS):
            ident = f"{chr(33 + s)}{chr(40 + k)}"
            idents[(s, k)] = ident
            lines.append(f"$var wire {widths[leaf]} {ident} {leaf} $end")
        lines.extend("$upscope $end" for _ in scope.split("."))
    lines.append("$enddefinitions $end")

    def change(s, k, digits):
        ident = idents[(s, k)]
        if widths[PORT_SIGNALS[k]] == 1:
            return f"{digits[-1]}{ident}"
        return f"b{digits} {ident}"

    timed = sorted(
        (max(0, cycle * timescale - int(phase * timescale)), order, s, k, d)
        for order, (cycle, phase, s, k, d) in enumerate(events))
    lines.append("#0")
    if dumpvars:
        lines.append("$dumpvars")
        lines.extend(change(s, k, "0") for s in range(len(scopes))
                     for k in range(len(PORT_SIGNALS)))
        lines.append("$end")
    now = 0
    for when, _, s, k, digits in timed:
        if when != now:
            lines.append(f"#{when}")
            now = when
        lines.append(change(s, k, digits))
    lines.append(f"#{max(now, end_cycles * timescale)}")
    return "\n".join(lines) + "\n"


@st.composite
def dump_pairs(draw):
    scopes = ["tb.init0", "tb.targ0"][:draw(st.integers(1, 2))]
    widths = {leaf: 1 if leaf in SCALARS else draw(st.integers(2, 5))
              for leaf in PORT_SIGNALS}
    max_cycle = draw(st.integers(0, 25))
    event = st.tuples(
        st.integers(0, max_cycle),
        st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.9]),
        st.integers(0, len(scopes) - 1),
        # A few signals per dump, so equal and diverging ones both occur.
        st.sampled_from([0, 1, 4, 11, 14]),
    )
    base = [
        (cycle, phase, s, k, _digits(draw, widths[PORT_SIGNALS[k]]))
        for cycle, phase, s, k in draw(st.lists(event, max_size=40))
    ]
    other = []
    for cycle, phase, s, k, digits in base:
        action = draw(st.sampled_from(["keep"] * 5 + ["drop", "edit",
                                                      "shift"]))
        if action == "keep":
            other.append((cycle, phase, s, k, digits))
        elif action == "edit":
            other.append((cycle, phase, s, k,
                          _digits(draw, widths[PORT_SIGNALS[k]])))
        elif action == "shift":
            other.append((cycle + 1, phase, s, k, digits))
    ts_a = draw(st.sampled_from([1, 2, 10]))
    ts_b = draw(st.sampled_from([1, 3, 10]))
    text_a = _render(scopes, widths, ts_a, base,
                     draw(st.integers(0, max_cycle + 2)), draw(st.booleans()))
    text_b = _render(scopes, widths, ts_b, other,
                     draw(st.integers(0, max_cycle + 2)), draw(st.booleans()))
    return text_a, text_b


@settings(max_examples=300, deadline=None)
@given(dump_pairs())
def test_generated_pairs_match_reference(pair):
    text_a, text_b = pair
    vcd_a = parse_vcd(text_a)
    vcd_b = parse_vcd(text_b)
    assert_matches_reference(vcd_a, vcd_b)
    assert_matches_reference(vcd_b, vcd_a)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 3)), max_size=30),
    st.integers(0, 12),
    st.integers(0, 20),
)
def test_steps_run_length_encode_expand(changes, timescale, n_cycles):
    sig = VcdSignal("s", 2, "!")
    sig.changes = sorted(changes, key=lambda change: change[0])
    starts, values = sig.steps(n_cycles, timescale)
    expanded = sig.expand(n_cycles, timescale)
    rebuilt = []
    for k, start in enumerate(starts):
        end = starts[k + 1] if k + 1 < len(starts) else n_cycles
        rebuilt.extend([values[k]] * (end - start))
    assert rebuilt == expanded
    # Canonical: starts at 0, strictly increasing, no equal neighbours.
    if n_cycles:
        assert starts[0] == 0
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert all(a != b for a, b in zip(values, values[1:]))


# -- VcdSignal.steps / diff_signals edge cases -------------------------------

def _signal(*changes):
    sig = VcdSignal("s", 4, "!")
    sig.changes = list(changes)
    return sig


def test_steps_change_back_within_one_cycle_is_no_step():
    # 3 -> 5 -> 3 between the boundaries of cycle 2: cycle 2 still reads 3.
    sig = _signal((0, 3), (11, 5), (15, 3), (30, 7))
    assert sig.steps(5, 10) == ([0, 3], [3, 7])
    assert sig.expand(5, 10) == [3, 3, 3, 7, 7]


def test_steps_last_change_on_a_cycle_wins():
    sig = _signal((0, 1), (20, 2), (20, 4))
    assert sig.steps(4, 10) == ([0, 2], [1, 4])


def test_steps_clip_at_n_cycles():
    sig = _signal((0, 1), (30, 2), (40, 3))
    # A change at the last cycle counts; at or after n_cycles it does not.
    assert sig.steps(4, 10) == ([0, 3], [1, 2])
    assert sig.steps(3, 10) == ([0], [1])
    # Just after a boundary lands on the next cycle, here past the end.
    assert _signal((0, 1), (21, 2)).steps(3, 10) == ([0], [1])
    assert sig.steps(0, 10) == ([], [])


def test_steps_start_at_zero_before_any_change():
    assert _signal().steps(3, 10) == ([0], [0])
    assert _signal((25, 6)).steps(5, 10) == ([0, 3], [0, 6])


def test_diff_signals_intervals():
    a = _signal((0, 0), (20, 1), (50, 0))  # 0 0 1 1 1 0 0
    b = _signal((0, 0), (3, 1))            # 0 0 0 1 1 1 1 at timescale 1
    assert diff_signals(a, 10, b, 1, 7) == [(2, 3), (5, 7)]
    assert diff_signals(a, 10, a, 10, 7) == []
    assert diff_signals(a, 10, b, 1, 0) == []


# -- real RTL/BCA dumps of the injectable BCA bugs ----------------------------

@pytest.fixture(scope="module")
def bug_dumps(tmp_path_factory):
    """config name -> [parsed dumps], RTL and buggy BCA of every bug."""
    workdir = tmp_path_factory.mktemp("bugs")
    dumps: Dict[str, list] = {}
    for bug, (config, test) in sorted(BUG_MATRIX.items()):
        for view in ("rtl", "bca"):
            path = os.path.join(workdir, f"{bug}__{view}.vcd")
            run_test(config, build_test(test, config, HUNT_SEED), view=view,
                     bugs={bug} if view == "bca" else (), vcd_path=path)
            dumps.setdefault(config.name, []).append(parse_vcd(path))
    return dumps


def test_bug_pairs_match_reference(bug_dumps):
    misaligned = 0
    for dumps in bug_dumps.values():
        for vcd_a in dumps:
            for vcd_b in dumps:
                report = assert_matches_reference(vcd_a, vcd_b)
                misaligned += not report.signed_off
    assert misaligned  # the bugs do show up in the comparison
