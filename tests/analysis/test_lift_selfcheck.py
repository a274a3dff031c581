"""Self-check: every shipped process lifts cleanly or is waived.

The lifter's one consumer in the analyses is per assignment: the lint
``dead-net`` rule and the ``tie-off-conflict`` rule ask it which
constant a comb process always drives onto a net.  A process the lifter
silently degrades to OPAQUE is one whose constant drives those rules
cannot see (equivalence is proven by enumeration and lockstep, which
never lift).  This suite enumerates every process of every full
common-environment build (all matrix configurations, both views — node
models, BFMs, memories, monitors, checkers, the coverage probe) and
demands that each either lifts with a ``clean`` status or matches an
entry in the explicit waiver registry below.

The registry is deliberately in the test, not in the lifter: adding an
unliftable construct to a previously-clean process fails here until a
human signs it off with a reason.  The reverse rots too — a waiver whose
pattern no longer matches any non-clean process fails the no-rot check,
so stale entries cannot accumulate.
"""

from fnmatch import fnmatch

import pytest

from repro.analysis.symbolic.lift import lift_simulator
from repro.lint.runner import build_env
from repro.regression.configs import configuration_matrix

MATRIX = configuration_matrix()

#: process-name glob -> reason the degradation is acceptable.  Matching
#: processes may lift ``partial`` (some statements opaque) or ``opaque``
#: (no liftable drive at all); everything else must be ``clean``.
OPAQUE_WAIVERS = {
    # Verification components: scoreboards and protocol checkers keep
    # Python dict/list state and raise on violations — modeling them
    # symbolically is out of scope (they observe, they do not drive
    # design nets the equivalence engines compare).
    "tb.arb_chk._clk": "arbitration checker: Python bookkeeping state",
    "tb.chk_init*._clk": "protocol checker: assertion bookkeeping",
    "tb.chk_targ*._clk": "protocol checker: assertion bookkeeping",
    "tb.chk_prog._clk": "protocol checker: assertion bookkeeping",
    "tb.mon_init*._clk": "monitor: appends observed cells to a list",
    "tb.mon_targ*._clk": "monitor: appends observed cells to a list",
    "tb.coverage_probe": "coverage probe: updates covergroup state",
    # Node arbitration: data-dependent loops over requesters (the very
    # logic the lockstep engine exercises dynamically instead).
    "tb.dut._compute_grants": "arbiter: loop over requesters",
    "tb.dut._compute_response_grants": "arbiter: loop over responders",
    "tb.dut._grant_proc": "arbiter: loop over requesters",
    "tb.dut._resp_grant_proc": "arbiter: loop over responders",
    # Targets/masters: transaction queues and byte images are inherently
    # stateful; their ports are covered by the lockstep engine.
    "tb.mem*._clk": "memory target: byte image + response queue",
    "tb.mem*._gnt_comb": "memory target: backpressure counter state",
    "tb.bfm*._clk": "BFM: transaction queue state",
    "tb.prog_master._clk": "programming master: operation queue",
    "tb.dut._clk_proc": "node engine: routing/queue bookkeeping",
    "tb.dut._on_clock": "node engine: routing/queue bookkeeping",
    "tb.dut._prog_comb": "register read mux: subscript on register list",
}


def _waived(name: str) -> bool:
    return any(fnmatch(name, pattern) for pattern in OPAQUE_WAIVERS)


@pytest.mark.parametrize(
    "config", MATRIX, ids=[config.name for config in MATRIX]
)
@pytest.mark.parametrize("view", ["rtl", "bca"])
def test_every_process_lifts_clean_or_is_waived(config, view):
    env = build_env(config, view)
    report = lift_simulator(env.sim)
    assert report.n_processes > 0
    offenders = [
        proc for proc in report.processes
        if proc.status != "clean" and not _waived(proc.name)
    ]
    assert not offenders, (
        "unwaived lift degradation (add the construct to the lifter or "
        "a waiver with a reason):\n"
        + "\n".join(f"  {p.name} [{p.status}]\n{p.render()}"
                    for p in offenders)
    )
    # The pass must see real logic, not waive everything away: even the
    # waived partial processes must contribute fully-lifted assignments.
    assert any(
        assign.clean for proc in report.processes for assign in proc.assigns
    ), f"{config.name}/{view}: the lifter recovered no assignment at all"


def test_waiver_registry_does_not_rot():
    """Every waiver pattern must still match a non-clean process in at
    least one shipped build; delete entries that stopped matching."""
    matched = set()
    sample = [MATRIX[0], MATRIX[-1],
              next(c for c in MATRIX if c.has_programming_port)]
    for config in sample:
        for view in ("rtl", "bca"):
            env = build_env(config, view)
            for proc in lift_simulator(env.sim).processes:
                if proc.status == "clean":
                    continue
                for pattern in OPAQUE_WAIVERS:
                    if fnmatch(proc.name, pattern):
                        matched.add(pattern)
    stale = set(OPAQUE_WAIVERS) - matched
    assert not stale, f"waivers no longer matching anything: {sorted(stale)}"


def test_lift_reports_name_the_opaque_constructs():
    """Degradation must be honest: every non-clean process carries at
    least one reason naming the construct and source line."""
    env = build_env(MATRIX[0], "rtl")
    report = lift_simulator(env.sim)
    for proc in report.processes:
        if proc.status == "clean":
            continue
        reasons = proc.all_opaque_reasons()
        assert reasons, f"{proc.name} degraded without a reason"
        assert any("line" in reason for reason in reasons), (
            f"{proc.name}: reasons carry no source location: {reasons}"
        )
