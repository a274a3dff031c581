"""Post-elaboration fast-path contracts.

After ``elaborate()`` the kernel swaps every bound signal to the
unguarded fast accessors (the dry-run attribution hooks only exist
during elaboration).  These tests pin down that the switch is
observable only as speed: every error diagnostic, the driver
bookkeeping and the lint dry run behave exactly as before.
"""

import pytest

from repro.kernel import (
    Module,
    MultipleDriverError,
    Signal,
    Simulator,
    WidthError,
)
from repro.kernel.signal import _FastSignal


def _elaborated_pair():
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    top.comb(lambda: b.drive(a.value), [a], name="follow")
    sim.elaborate()
    return sim, top, a, b


def test_signals_switch_to_fast_path_after_elaborate():
    sim = Simulator()
    sig = sim.signal("s", width=8)
    assert type(sig) is Signal
    sim.elaborate()
    assert type(sig) is _FastSignal
    assert isinstance(sig, Signal)  # still a Signal to every consumer


def test_unbound_signal_keeps_slow_path():
    sig = Signal("lonely", width=8)
    sig._enable_fast_path()
    assert type(sig) is Signal


def test_fast_path_reads_and_writes_still_work():
    sim, top, a, b = _elaborated_pair()
    a.drive(7)
    sim.step()
    assert a.value == 7
    assert int(b) == 7
    assert bool(a)
    assert [0, 1, 2, 3, 4, 5, 6, 7, 8][a] == 7  # __index__
    a.next = 3
    sim.step()
    assert b.value == 3


def test_fast_path_width_error_names_signal():
    sim = Simulator()
    top = Module(sim, "t")
    narrow = top.signal("narrow", width=3)

    def overdrive():
        narrow.drive(0x10)

    top.clocked(overdrive, name="overdrive", writes=[narrow])
    sim.elaborate()
    assert type(narrow) is _FastSignal
    with pytest.raises(WidthError) as excinfo:
        sim.step()
    message = str(excinfo.value)
    assert "'t.narrow'" in message
    assert "16" in message
    assert "3 bits" in message


def test_fast_path_multiple_driver_names_both_processes():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out", width=4)
    tick = top.signal("tick")

    def proc_a():
        out.drive(1)

    def proc_b():
        out.drive(2)

    top.clocked(proc_a, name="first", writes=[out])
    top.clocked(proc_b, name="second", writes=[out])
    top.clocked(lambda: tick.drive(1 - tick.value), name="ticker",
                reads=[tick], writes=[tick])
    sim.elaborate()
    with pytest.raises(MultipleDriverError) as excinfo:
        sim.step()
    message = str(excinfo.value)
    assert "'t.out'" in message
    assert "t.first" in message
    assert "t.second" in message
    assert "same delta cycle" in message


def test_fast_path_driver_bookkeeping_ordered_and_deduped():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out", width=8)
    tick = top.signal("tick")

    def writer():
        out.drive(sim.now & 0xFF)

    top.clocked(writer, name="writer", writes=[out])
    top.clocked(lambda: tick.drive(1 - tick.value), name="ticker",
                reads=[tick], writes=[tick])
    sim.elaborate()
    for _ in range(5):
        sim.step()
    # Driven every cycle by one process: recorded exactly once.
    assert out.driver_names() == ("t.writer",)
    # External drives (no active process) are not recorded.
    out.drive(99)
    assert out.driver_names() == ("t.writer",)


def test_dry_run_attribution_survives_fast_path_refactor():
    """The lint dry run happens *during* elaborate, before the switch."""
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    top.comb(lambda: b.drive(a.value + 0), [a], name="follow")
    sim.elaborate()
    info = sim.comb_processes[0]
    assert a in info.observed_reads
    assert b in info.observed_writes
    # Hooks are gone: post-elaboration accesses attribute nothing new.
    before = set(info.observed_reads)
    sim.step()
    assert info.observed_reads == before


def test_fast_path_conflict_same_process_redrive_allowed():
    sim, top, a, b = _elaborated_pair()
    # External writer may recompute its own pending value.
    a.drive(1)
    a.drive(2)
    sim.step()
    assert a.value == 2


def test_process_label_lookup_matches_registration_names():
    sim = Simulator()
    top = Module(sim, "t")
    s = top.signal("s")

    def clk():
        s.drive(1)

    def comb():
        pass

    top.clocked(clk, name="myclk", writes=[s])
    top.comb(comb, [s], name="mycomb")
    assert sim.process_label(clk) == "t.myclk"
    assert sim.process_label(comb) == "t.mycomb"
    assert sim.process_label(None) == "<external>"
    # Unregistered callables fall back to their qualified name.
    assert sim.process_label(print) == "print"


def test_poke_commits_immediately_on_unbound_signal():
    sig = Signal("s", width=8)
    sig.poke(42)
    assert sig.value == 42
    sig.poke(42)  # idempotent re-poke
    assert sig.value == 42
    with pytest.raises(WidthError):
        sig.poke(300)


# -- claims: drives of the committed value skip the commit queue ------------


def _two_writers(first_value, second_value):
    """Two clocked processes driving ``t.out`` (committed 0) in one delta."""
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out", width=4)
    top.clocked(lambda: out.drive(first_value), name="first", writes=[out])
    top.clocked(lambda: out.drive(second_value), name="second", writes=[out])
    sim.elaborate()
    return sim, out


def test_claim_then_conflicting_drive_names_the_claimer():
    sim, out = _two_writers(0, 2)
    with pytest.raises(MultipleDriverError) as excinfo:
        sim.step()
    assert str(excinfo.value) == (
        "signal 't.out': driven to 0 by process t.first and to 2 by "
        "process t.second in the same delta cycle"
    )


def test_conflicting_drive_then_claim_names_the_queued_writer():
    sim, out = _two_writers(2, 0)
    with pytest.raises(MultipleDriverError) as excinfo:
        sim.step()
    assert str(excinfo.value) == (
        "signal 't.out': driven to 2 by process t.first and to 0 by "
        "process t.second in the same delta cycle"
    )


def test_external_claim_conflicts_with_a_clocked_drive():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out", width=4)
    top.clocked(lambda: out.drive(5), name="proc", writes=[out])
    sim.elaborate()
    out.drive(0)  # the committed value, from outside any process
    with pytest.raises(MultipleDriverError) as excinfo:
        sim.step()
    assert str(excinfo.value) == (
        "signal 't.out': driven to 0 by process <external> and to 5 by "
        "process t.proc in the same delta cycle"
    )


def test_claims_lapse_with_their_delta():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out", width=4)
    tick = top.signal("tick")
    top.clocked(lambda: out.drive(0), name="hold", writes=[out])
    top.clocked(lambda: tick.drive(1), name="ticker", writes=[tick])
    # Woken one delta after the clocked claim: a different writer and a
    # different value, but no longer the same delta.
    top.comb(lambda: out.drive(3) if tick.value else None, [tick],
             name="follow")
    sim.elaborate()
    sim.step()
    assert out.value == 3


def test_redrive_back_to_the_committed_value_is_no_toggle():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out", width=4)

    def flicker():
        out.drive(7)
        out.drive(0)  # back to the committed value, same writer

    top.clocked(flicker, name="flicker", writes=[out])
    sim.elaborate()
    sim.step()
    assert out.value == 0
    stats = sim.stats_snapshot()
    assert stats["signal_toggles"] == 0
    # The write entered the queue before it was taken back.
    assert stats["signal_commits"] == 1


def test_committed_value_drive_is_not_queued():
    sim, out = _two_writers(0, 0)
    sim.run(3)
    assert sim.stats_snapshot()["signal_commits"] == 0


def test_harvested_settle_error_leaves_no_stale_claim():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out", width=4)
    osc = top.signal("osc")
    enable = top.signal("enable", init=1)
    # Elaboration: ``a`` claims out = 0, then ``b`` drives 1 -> a harvested
    # MultipleDriverError; the oscillator then overflows the settle loop.
    top.comb(lambda: out.drive(0), [osc], name="a")
    top.comb(lambda: out.drive(1) if enable.value else None, [enable],
             name="b")
    top.comb(lambda: osc.drive(osc.value ^ enable.value), [osc, enable],
             name="osc")
    top.clocked(lambda: enable.drive(0), name="disable", writes=[enable])
    top.clocked(lambda: out.drive(9), name="late", writes=[out])
    sim.elaborate(harvest_errors=True)
    errors = [(info.name if info else None, type(exc).__name__, str(exc))
              for info, exc in sim.elaboration_errors]
    assert errors[0] == (
        "t.b", "MultipleDriverError",
        "signal 't.out': driven to 0 by process t.a and to 1 by process "
        "t.b in the same delta cycle",
    )
    assert errors[-1][:2] == (None, "DeltaOverflowError")
    # No claim of the aborted elaboration deltas survives into the run.
    sim.step()
    assert out.value == 9
