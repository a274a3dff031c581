"""Monitor packet re-assembly and protocol checker rule tests."""

import pytest

from repro.catg import (
    PortMonitor,
    ProtocolChecker,
    VerificationReport,
)
from repro.kernel import Module, Simulator
from repro.stbus import Opcode, ProtocolType, StbusPort


class PortRig:
    """Directly drives a port's pins to unit-test passive components."""

    def __init__(self, protocol=ProtocolType.T2, width=32, role="initiator"):
        self.sim = Simulator()
        self.top = Module(self.sim, "rig")
        self.port = StbusPort(self.top, "p0", width)
        self.report = VerificationReport()
        self.monitor = PortMonitor(self.sim, "mon", self.port, role, 0,
                                   parent=self.top)
        self.checker = ProtocolChecker(self.sim, "chk", self.port, role, 0,
                                       protocol, self.report, parent=self.top)
        self.sim.elaborate()
        # One idle step so the first driven cycle is observed as cycle 0.
        self.sim.step()

    def cycle(self, **pins):
        """Apply pin values for one cycle (unlisted pins keep value)."""
        for name, value in pins.items():
            getattr(self.port, name).drive(value)
        self.sim._settle()
        self.sim.step()


OPC_ST4 = Opcode.store(4).encode()
OPC_LD8 = Opcode.load(8).encode()


def test_monitor_assembles_request_packet():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0, tid=3)
    rig.cycle(req=1, gnt=1, add=0x44, opc=OPC_LD8, be=0xF, eop=1, tid=3)
    rig.cycle(req=0, gnt=0, eop=0)
    assert len(rig.monitor.requests) == 1
    obs = rig.monitor.requests[0]
    assert len(obs.cells) == 2
    assert obs.start_cycle == 0 and obs.end_cycle == 1
    assert obs.tid == 3


def test_monitor_ungranted_cycles_not_collected():
    rig = PortRig()
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=0, eop=0)
    assert len(rig.monitor.requests) == 1
    assert rig.monitor.requests[0].start_cycle == 2
    assert rig.report.passed  # stability held


def test_checker_req_dropped():
    rig = PortRig()
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=0)
    assert any(v.rule == "REQ_DROPPED" for v in rig.report.violations)


def test_checker_req_unstable():
    rig = PortRig()
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=1, gnt=0, add=0x48, opc=OPC_ST4, be=0xF, eop=1)
    assert any(v.rule == "REQ_UNSTABLE" for v in rig.report.violations)


def test_checker_invalid_opcode():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=0xFF, be=0xF, eop=1)
    assert any(v.rule == "OPC_INVALID" for v in rig.report.violations)


def test_checker_misaligned_address():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x41, opc=OPC_LD8, be=0xF, eop=0)
    assert any(v.rule == "ADDR_ALIGN" for v in rig.report.violations)


def test_checker_wrong_be():
    rig = PortRig()
    # STORE4 at 0x40 on a 32-bit bus needs be=0xF.
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0x3, eop=1)
    assert any(v.rule == "PKT_BE" for v in rig.report.violations)


def test_checker_eop_too_early():
    rig = PortRig()
    # LOAD8 on 32-bit Type II = 2 request cells; eop on the first is short.
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=1)
    assert any(v.rule == "PKT_LEN" for v in rig.report.violations)


def test_checker_burst_address_geometry():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0)
    rig.cycle(req=1, gnt=1, add=0x48, opc=OPC_LD8, be=0xF, eop=1)  # not 0x44
    assert any(v.rule == "PKT_ADDR" for v in rig.report.violations)


def test_checker_lck_midpacket():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0, lck=1)
    assert any(v.rule == "LCK_MIDPACKET" for v in rig.report.violations)


def test_checker_clean_packet_passes():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0, tid=1)
    rig.cycle(req=1, gnt=1, add=0x44, opc=OPC_LD8, be=0xF, eop=1, tid=1)
    rig.cycle(req=0, eop=0)
    # Response: 2 cells, tid and src reflected (initiator port 0 -> src 0).
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=0, r_tid=1, r_src=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=1, r_src=0)
    rig.cycle(r_req=0, r_eop=0)
    rig.checker.finalize()
    assert rig.report.passed, rig.report.violations


def test_checker_response_length_mismatch():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0, tid=1)
    rig.cycle(req=1, gnt=1, add=0x44, opc=OPC_LD8, be=0xF, eop=1, tid=1)
    rig.cycle(req=0, eop=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=1, r_src=0)  # 1 cell
    assert any(v.rule == "RESP_LEN" for v in rig.report.violations)


def test_checker_unexpected_response():
    rig = PortRig()
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=9, r_src=0)
    assert any(v.rule == "RESP_UNEXPECTED" for v in rig.report.violations)


def test_checker_t2_response_order():
    rig = PortRig()
    for tid in (0, 1):
        rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=tid)
    rig.cycle(req=0, eop=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=1, r_src=0)
    assert any(v.rule == "RESP_ORDER" for v in rig.report.violations)


def test_checker_t3_out_of_order_allowed():
    rig = PortRig(protocol=ProtocolType.T3)
    for tid in (0, 1):
        rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=tid)
    rig.cycle(req=0, eop=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=1, r_src=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(r_req=0, r_eop=0)
    rig.checker.finalize()
    assert rig.report.passed, rig.report.violations


def test_checker_wrong_r_src_at_initiator():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=0)
    rig.cycle(req=0, eop=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=0, r_src=3)
    assert any(v.rule == "RESP_SRC" for v in rig.report.violations)


def test_checker_chunk_atomicity_at_target():
    rig = PortRig(role="target")
    # src 1 sends a chunked packet (lck=1)...
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, lck=1, src=1)
    # ... but the next packet at this port comes from src 2.
    rig.cycle(req=1, gnt=1, add=0x80, opc=OPC_ST4, be=0xF, eop=1, lck=0, src=2)
    assert any(v.rule == "CHUNK_ATOMIC" for v in rig.report.violations)


def test_checker_finalize_flags_missing_response():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=5)
    rig.cycle(req=0, eop=0)
    rig.checker.finalize()
    assert any(v.rule == "RESP_MISSING" for v in rig.report.violations)


def test_checker_response_dropped():
    rig = PortRig()
    rig.cycle(r_req=1, r_gnt=0, r_opc=0, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(r_req=0)
    assert any(v.rule == "RESP_DROPPED" for v in rig.report.violations)


def test_monitor_response_assembly_and_error_flag():
    rig = PortRig()
    rig.cycle(r_req=1, r_gnt=1, r_opc=1, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(r_req=0, r_eop=0)
    assert len(rig.monitor.responses) == 1
    assert rig.monitor.responses[0].is_error


def _rules(rig):
    return [(v.rule, v.cycle) for v in rig.report.violations]


def test_checker_response_dropped_after_long_hold():
    rig = PortRig()
    for _ in range(3):
        rig.cycle(r_req=1, r_gnt=0, r_opc=0, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(r_req=0)
    assert _rules(rig) == [("RESP_DROPPED", 3)]


@pytest.mark.parametrize("field, value", [
    ("r_opc", 1), ("r_data", 0xDEAD), ("r_eop", 0), ("r_src", 2),
    ("r_tid", 7),
])
def test_checker_response_unstable(field, value):
    rig = PortRig()
    held = dict(r_req=1, r_gnt=0, r_opc=0, r_data=0x55, r_eop=1, r_tid=0,
                r_src=0)
    rig.cycle(**held)
    rig.cycle(**held)
    rig.cycle(**dict(held, **{field: value}))
    assert _rules(rig) == [("RESP_UNSTABLE", 2)]


def test_checker_stable_response_hold_then_grant_passes():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=4)
    rig.cycle(req=0, eop=0)
    for _ in range(3):
        rig.cycle(r_req=1, r_gnt=0, r_opc=0, r_eop=1, r_tid=4, r_src=0)
    rig.cycle(r_gnt=1)
    # After the grant the channel is free: new fields are not a change.
    rig.cycle(r_req=0, r_gnt=0, r_eop=0, r_tid=0)
    rig.checker.finalize()
    assert rig.report.passed, rig.report.violations


def test_checker_response_unstable_then_dropped_is_two_violations():
    rig = PortRig()
    rig.cycle(r_req=1, r_gnt=0, r_opc=0, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(r_tid=1)
    rig.cycle(r_req=0)
    assert _rules(rig) == [("RESP_UNSTABLE", 1), ("RESP_DROPPED", 2)]


def test_checker_granted_request_frees_the_channel():
    rig = PortRig()
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=0)
    rig.cycle(gnt=1)
    # A new packet right after the grant: different fields, no rule hit.
    rig.cycle(req=1, gnt=1, add=0x80, opc=OPC_ST4, be=0xF, eop=1, tid=1)
    rig.cycle(req=0, gnt=0, eop=0)
    assert _rules(rig) == []


def test_checker_request_and_response_held_together():
    rig = PortRig()
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1,
              r_req=1, r_gnt=0, r_opc=0, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(add=0x44, r_src=1)
    rig.cycle(req=0, r_req=0)
    assert _rules(rig) == [
        ("REQ_UNSTABLE", 1), ("RESP_UNSTABLE", 1),
        ("REQ_DROPPED", 2), ("RESP_DROPPED", 2),
    ]
