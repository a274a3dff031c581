"""Unit tests for the AST-to-IR process lifter."""

from repro.analysis.symbolic.ir import (
    Const,
    Mux,
    evaluate,
    free_vars,
    is_closed,
)
from repro.analysis.symbolic.lift import (
    closed_constant_drive,
    lift_process,
    lift_simulator,
)
from repro.kernel import Module, Simulator


def _lift_one(sim, name):
    for info in sim.comb_processes + sim.clocked_processes:
        if info.name == name:
            return lift_process(info)
    raise AssertionError(f"no process named {name}")


def test_constant_drive_lifts_closed():
    sim = Simulator()
    top = Module(sim, "t")
    clk = top.signal("clk")
    out = top.signal("out", width=4)
    top.comb(lambda: out.drive(9), [clk], name="tie")
    lifted = _lift_one(sim, "t.tie")
    assert lifted.status == "clean"
    assign = lifted.assign_for("t.out")
    assert is_closed(assign.expr)
    assert evaluate(assign.expr, {}) == 9


def test_signal_reads_become_free_variables():
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    out = top.signal("out", width=8)
    top.comb(lambda: out.drive((a.value << 4) | b.value), [a, b],
             name="pack")
    lifted = _lift_one(sim, "t.pack")
    assert lifted.status == "clean"
    assign = lifted.assign_for("t.out")
    assert free_vars(assign.expr) == {"t.a", "t.b"}
    assert evaluate(assign.expr, {"t.a": 3, "t.b": 5}) == 0x35


def test_if_else_becomes_mux():
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    out = top.signal("out", width=4)

    def decide():
        if sel.value:
            out.drive(7)
        else:
            out.drive(2)

    top.comb(decide, [sel], name="mux")
    lifted = _lift_one(sim, "t.mux")
    assert lifted.status == "clean"
    expr = lifted.assign_for("t.out").expr
    assert isinstance(expr, Mux)
    assert evaluate(expr, {"t.sel": 1}) == 7
    assert evaluate(expr, {"t.sel": 0}) == 2


def test_undriven_if_branch_holds_current_value():
    """A drive under only one arm muxes against the target's own current
    value — the kernel semantics of not driving."""
    sim = Simulator()
    top = Module(sim, "t")
    en = top.signal("en")
    out = top.signal("out", width=4)

    def gate():
        if en.value:
            out.drive(5)

    top.comb(gate, [en], name="gate")
    lifted = _lift_one(sim, "t.gate")
    expr = lifted.assign_for("t.out").expr
    assert evaluate(expr, {"t.en": 1, "t.out": 0}) == 5
    assert evaluate(expr, {"t.en": 0, "t.out": 3}) == 3


def test_locals_and_augassign_substitute_through():
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=8)
    out = top.signal("out", width=8)

    def calc():
        x = a.value & 0x0F
        x += 1
        out.drive(x & 0xFF)

    top.comb(calc, [a], name="calc")
    lifted = _lift_one(sim, "t.calc")
    assert lifted.status == "clean"
    expr = lifted.assign_for("t.out").expr
    assert evaluate(expr, {"t.a": 0x7F}) == 0x10


def test_self_attribute_constants_resolve():
    sim = Simulator()

    class Widget(Module):
        LIMIT = 6

        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.bias = 3
            self.inp = self.signal("inp", width=4)
            self.out = self.signal("out", width=4)
            self.comb(self._drive, [self.inp], name="drv")

        def _drive(self):
            self.out.drive((self.inp.value + self.bias) & self.LIMIT)

    Widget(sim, "w")
    lifted = _lift_one(sim, "w.drv")
    assert lifted.status == "clean"
    expr = lifted.assign_for("w.out").expr
    assert evaluate(expr, {"w.inp": 5}) == (5 + 3) & 6


def test_none_guard_is_decided_statically():
    """`if port is None: return` is a construction-time fact, not a
    runtime branch — the lifter resolves it and never goes opaque."""
    sim = Simulator()

    class Opt(Module):
        def __init__(self, sim, name, extra):
            super().__init__(sim, name)
            self.extra = extra
            self.inp = self.signal("inp")
            self.out = self.signal("out")
            self.comb(self._drive, [self.inp], name="drv")

        def _drive(self):
            if self.extra is None:
                return
            self.out.drive(self.inp.value)

    Opt(sim, "on", extra=object())
    Opt(sim, "off", extra=None)
    on = _lift_one(sim, "on.drv")
    off = _lift_one(sim, "off.drv")
    assert on.status == "clean"
    assert on.assign_for("on.out") is not None
    assert off.status == "clean"  # dead code eliminated, nothing driven
    assert not off.assigns


def test_chained_comparison_expands():
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    ok = top.signal("ok")
    top.comb(lambda: ok.drive(1 if 2 <= a.value < 9 else 0), [a],
             name="rangechk")
    lifted = _lift_one(sim, "t.rangechk")
    assert lifted.status == "clean"
    expr = lifted.assign_for("t.ok").expr
    assert evaluate(expr, {"t.a": 4}) == 1
    assert evaluate(expr, {"t.a": 1}) == 0
    assert evaluate(expr, {"t.a": 9}) == 0


def test_unsupported_construct_degrades_honestly():
    state = []
    sim = Simulator()
    top = Module(sim, "t")
    clk = top.signal("clk")
    out = top.signal("out")

    def weird():
        for _ in range(2):
            state.append(1)
        out.drive(1)

    top.comb(weird, [clk], name="weird")
    lifted = _lift_one(sim, "t.weird")
    assert lifted.status == "partial"  # the drive still lifts
    reasons = lifted.all_opaque_reasons()
    assert reasons and any("For" in r or "for" in r for r in reasons)
    assert any("line" in r for r in reasons)


def test_lift_simulator_covers_every_process():
    sim = Simulator()
    top = Module(sim, "t")
    clk = top.signal("clk")
    a = top.signal("a")
    top.comb(lambda: a.drive(1), [clk], name="c")
    top.clocked(lambda: clk.drive(clk.value ^ 1), name="k",
                reads=[clk], writes=[clk])
    report = lift_simulator(sim)
    assert report.n_processes == 2
    assert {p.name for p in report.processes} == {"t.c", "t.k"}
    assert report.process_for("t.c").status == "clean"
    data = report.to_dict()
    assert data["n_processes"] == 2


def test_equal_branches_collapse():
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    out = top.signal("out")

    def same():
        if sel.value:
            out.drive(1)
        else:
            out.drive(1)

    top.comb(same, [sel], name="same")
    lifted = _lift_one(sim, "t.same")
    expr = lifted.assign_for("t.out").expr
    assert isinstance(expr, Const)
    assert evaluate(expr, {}) == 1


def _info(sim, name):
    for info in sim.comb_processes + sim.clocked_processes:
        if info.name == name:
            return info
    raise AssertionError(f"no process named {name}")


def test_closed_constant_drive():
    """The one question the lint and races rules ask of the lifter: the
    constant a comb process always drives onto a net, or None."""
    state = {"v": 1}
    sim = Simulator()
    top = Module(sim, "t")
    clk = top.signal("clk")
    out = top.signal("out", width=4)
    follow = top.signal("follow")
    hidden = top.signal("hidden")
    reg = top.signal("reg")
    top.comb(lambda: out.drive(2 + 3), [clk], name="tie")
    top.comb(lambda: follow.drive(clk.value), [clk], name="follow")
    top.comb(lambda: hidden.drive(state["v"]), [clk], name="mystery")
    top.clocked(lambda: reg.drive(1), name="flop", reads=[clk],
                writes=[reg])
    sim.elaborate()
    assert closed_constant_drive(_info(sim, "t.tie"), "t.out") == 5
    assert closed_constant_drive(_info(sim, "t.tie"), "t.follow") is None
    assert closed_constant_drive(_info(sim, "t.follow"), "t.follow") is None
    assert closed_constant_drive(_info(sim, "t.mystery"), "t.hidden") is None
    # A clocked process holds state: never a comb constant.
    assert closed_constant_drive(_info(sim, "t.flop"), "t.reg") is None
