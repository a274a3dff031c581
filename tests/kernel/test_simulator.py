"""Integration tests for the cycle scheduler: clocked/comb semantics."""

import pytest

from repro.kernel import (
    DeltaOverflowError,
    ElaborationError,
    Module,
    Simulator,
    SimulatorError,
)


def make_counter(sim, width=8):
    count = sim.signal("count", width=width)

    def tick():
        count.drive((count.value + 1) & count.mask)

    sim.add_clocked(tick)
    return count


def test_clocked_counter_advances_per_cycle():
    sim = Simulator()
    count = make_counter(sim)
    sim.elaborate()
    sim.run(5)
    assert count.value == 5
    assert sim.now == 5


def test_comb_settles_through_chain():
    # a -> b -> c combinational chain must settle within one cycle.
    sim = Simulator()
    a = sim.signal("a", width=8)
    b = sim.signal("b", width=8)
    c = sim.signal("c", width=8)

    sim.add_comb(lambda: b.drive(a.value + 1 if a.value < 255 else 0), [a])
    sim.add_comb(lambda: c.drive(b.value + 1 if b.value < 255 else 0), [b])

    def drive_a():
        a.drive(10)

    sim.add_clocked(drive_a)
    sim.elaborate()
    # After elaboration (a=0): b=1, c=2.
    assert (b.value, c.value) == (1, 2)
    sim.step()
    assert (a.value, b.value, c.value) == (10, 11, 12)


def test_clocked_reads_pre_edge_values():
    # A register chain: q2 must lag q1 by exactly one cycle.
    sim = Simulator()
    d = sim.signal("d", width=8)
    q1 = sim.signal("q1", width=8)
    q2 = sim.signal("q2", width=8)

    def regs():
        q1.drive(d.value)
        q2.drive(q1.value)

    sim.add_clocked(regs)
    sim.elaborate()
    d.drive(7)
    sim._settle()
    sim.step()
    assert (q1.value, q2.value) == (7, 0)
    sim.step()
    assert (q1.value, q2.value) == (7, 7)


def test_oscillating_comb_raises():
    sim = Simulator()
    a = sim.signal("a")
    sim.add_comb(lambda: a.drive(1 - a.value), [a])
    # The loop toggles forever; elaboration settles combinational logic,
    # so the oscillation is detected right there.
    with pytest.raises(DeltaOverflowError):
        sim.elaborate()


def test_elaborate_twice_rejected():
    sim = Simulator()
    sim.elaborate()
    with pytest.raises(ElaborationError):
        sim.elaborate()


def test_step_before_elaborate_rejected():
    sim = Simulator()
    with pytest.raises(ElaborationError):
        sim.step()


def test_add_after_elaborate_rejected():
    sim = Simulator()
    sim.elaborate()
    with pytest.raises(ElaborationError):
        sim.signal("late")
    with pytest.raises(ElaborationError):
        sim.add_clocked(lambda: None)
    with pytest.raises(ElaborationError):
        sim.add_comb(lambda: None, [])


def test_empty_sensitivity_rejected():
    sim = Simulator()
    with pytest.raises(SimulatorError):
        sim.add_comb(lambda: None, [])


def test_run_until_returns_cycle_count():
    sim = Simulator()
    count = make_counter(sim)
    sim.elaborate()
    executed = sim.run_until(lambda: count.value == 3, max_cycles=10)
    assert executed == 3


def test_run_until_timeout_raises():
    sim = Simulator()
    make_counter(sim)
    sim.elaborate()
    with pytest.raises(SimulatorError):
        sim.run_until(lambda: False, max_cycles=4)


def test_module_hierarchy_names():
    sim = Simulator()
    top = Module(sim, "top")
    child = Module(sim, "dut", parent=top)
    sig = child.signal("req")
    assert sig.name == "top.dut.req"
    assert child in top.children


def test_module_add_child_renames():
    sim = Simulator()
    top = Module(sim, "top")
    orphan = Module(sim, "late")
    top.add_child(orphan)
    assert orphan.name == "top.late"


def test_finish_idempotent():
    sim = Simulator()
    sim.elaborate()
    sim.finish()
    sim.finish()
    with pytest.raises(SimulatorError):
        sim.step()


def test_comb_only_wakes_on_sensitivity():
    sim = Simulator()
    a = sim.signal("a", width=8)
    b = sim.signal("b", width=8)
    out = sim.signal("out", width=8)
    calls = []

    def proc():
        calls.append(sim.now)
        out.drive(a.value)

    sim.add_comb(proc, [a])
    sim.add_clocked(lambda: b.drive((b.value + 1) & 0xFF))
    sim.elaborate()
    n_calls = len(calls)
    sim.run(3)  # only b changes; proc must not rerun
    assert len(calls) == n_calls


def test_comb_feedback_pair_settles_to_fixpoint():
    # x = max(stim, y), y = x: a structural loop that settles because the
    # second pass through it changes nothing.
    sim = Simulator()
    stim = sim.signal("stim", width=8)
    x = sim.signal("x", width=8)
    y = sim.signal("y", width=8)
    sim.add_comb(lambda: x.drive(max(stim.value, y.value)), [stim, y])
    sim.add_comb(lambda: y.drive(x.value), [x])
    sim.add_clocked(lambda: stim.drive((stim.value + 1) & 0xFF))
    sim.elaborate()
    sim.run(8)
    assert (stim.value, x.value, y.value) == (8, 8, 8)
    assert sim.stat_deltas > 8  # more than one delta per cycle


def test_write_unseen_in_dry_run_still_wakes_readers():
    # pa drives c only when a == 5, which the elaboration dry run (a == 0)
    # never observes; the delta loop must still wake c's reader.
    sim = Simulator()
    a = sim.signal("a", width=8)
    c = sim.signal("c", width=8)
    d = sim.signal("d", width=8)

    def pa():
        if a.value == 5:
            c.drive(1)

    sim.add_comb(pa, [a])
    sim.add_comb(lambda: d.drive(c.value + 2), [c])
    sim.add_clocked(lambda: a.drive((a.value + 1) & 0xFF))
    sim.elaborate()
    assert d.value == 2
    sim.run(8)
    assert (c.value, d.value) == (1, 3)


def test_stats_snapshot_counts_simulated_activity_only():
    # Clocked counter feeding a 3-deep comb chain: every cycle activates
    # the register plus all three comb stages, one per delta, and a
    # fourth delta finds nothing sensitive to the chain's output.
    sim = Simulator()
    a = sim.signal("a", width=8)
    b = sim.signal("b", width=8)
    c = sim.signal("c", width=8)
    d = sim.signal("d", width=8)
    sim.add_comb(lambda: b.drive((a.value + 1) & 0xFF), [a])
    sim.add_comb(lambda: c.drive((b.value + 1) & 0xFF), [b])
    sim.add_comb(lambda: d.drive((c.value + 1) & 0xFF), [c])
    sim.add_clocked(lambda: a.drive((a.value + 1) & 0xFF))
    sim.elaborate()
    sim.run(10)
    assert (a.value, d.value) == (10, 13)
    assert sim.stats_snapshot() == {
        "cycles": 10,
        "delta_iterations": 40,
        "process_activations": 40,
        "signal_commits": 40,
        "signal_toggles": 40,
    }


def test_process_timing_records_every_process():
    sim = Simulator()
    a = sim.signal("a", width=8)
    b = sim.signal("b", width=8)
    sim.add_comb(lambda: b.drive(a.value), [a], name="follow")
    sim.add_clocked(lambda: a.drive((a.value + 1) & 0xFF), name="tick")
    sim.enable_process_timing()
    sim.elaborate()
    sim.run(6)
    assert b.value == 6
    times = sim.process_times()
    assert set(times) == {"tick", "follow"}
    # The elaboration dry run is excluded: one activation per cycle each.
    assert times["tick"][0] == 6
    assert times["follow"][0] == 6
