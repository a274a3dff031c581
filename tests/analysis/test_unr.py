"""Coverage-unreachability verdicts against the full bin universe."""

import os
import subprocess
import sys

import repro
from repro.analysis.unr import (
    REACHABLE,
    UNREACHABLE,
    analyze_unreachability,
)
from repro.catg.coverage import build_node_coverage
from repro.stbus import NodeConfig, ProtocolType
from repro.stbus.config import Architecture
from repro.stbus.routing import AddressMap, Region


def _verdict(report, group, bin_name):
    verdict = report.verdict_for(group, bin_name)
    assert verdict is not None, f"no verdict for {group}:{bin_name}"
    return verdict


def test_stock_config_proves_the_pruned_bins_unreachable():
    # The acceptance case: the stock node (T2, no programming port)
    # prunes ordering:* and programming:* from its model; the engine must
    # prove them unreachable independently, with the blocking constant.
    report = analyze_unreachability(NodeConfig())
    programming = _verdict(report, "programming", "write")
    assert programming.verdict == UNREACHABLE
    assert not programming.in_model
    assert "tb.prog.req = 0" in programming.reason  # the blocking constant
    ordering = _verdict(report, "ordering", "out_of_order")
    assert ordering.verdict == UNREACHABLE
    assert "protocol_type=T2" in ordering.reason
    # in_order IS reachable (group-level pruning, not bin unreachability).
    assert _verdict(report, "ordering", "in_order").verdict == REACHABLE
    # And nothing the model keeps may be unreachable.
    assert report.model_unreachable() == []
    assert len(report.pruning_validated()) == 3


def test_every_in_model_bin_is_proven_or_unknown_never_unreachable():
    for config in (
        NodeConfig(),
        NodeConfig(protocol_type=ProtocolType.T3, name="t3"),
        NodeConfig(has_programming_port=True, name="prog"),
        NodeConfig(data_width_bits=8, name="w8"),
        NodeConfig(data_width_bits=128, name="w128"),
        NodeConfig(n_initiators=1, name="solo"),
    ):
        report = analyze_unreachability(config)
        assert report.model_unreachable() == [], config.name
        assert report.findings() == []


def test_full_universe_covers_the_model():
    # Every bin of the pruned model has a verdict (the universe is a
    # superset of any configuration's model).
    config = NodeConfig(protocol_type=ProtocolType.T3,
                        has_programming_port=True, name="big")
    report = analyze_unreachability(config)
    keys = {v.key for v in report.verdicts}
    model = build_node_coverage(config)
    for group_name, group in model.groups.items():
        for bin_name in group.bins:
            assert f"{group_name}:{bin_name}" in keys


def test_wide_bus_blocks_long_packets():
    report = analyze_unreachability(NodeConfig(data_width_bits=128,
                                               name="w128"))
    verdict = _verdict(report, "request_len", "16")
    assert verdict.verdict == UNREACHABLE
    assert not verdict.in_model
    assert "64 bytes" in verdict.reason
    assert _verdict(report, "request_len", "4").verdict == REACHABLE


def test_byte_bus_has_no_partial_enable():
    report = analyze_unreachability(NodeConfig(data_width_bits=8, name="w8"))
    verdict = _verdict(report, "be", "partial")
    assert verdict.verdict == UNREACHABLE
    assert "1 bit wide" in verdict.reason  # the value-range argument


def test_single_initiator_cannot_contend():
    report = analyze_unreachability(NodeConfig(n_initiators=1, name="solo"))
    verdict = _verdict(report, "conflict", "contended")
    assert verdict.verdict == UNREACHABLE
    assert "single-initiator" in verdict.reason


def test_programming_port_present_makes_bins_reachable():
    report = analyze_unreachability(NodeConfig(has_programming_port=True,
                                               name="prog"))
    verdict = _verdict(report, "programming", "write")
    assert verdict.verdict == REACHABLE
    assert verdict.in_model


def test_fully_mapped_address_space_is_proven_unreachable():
    # One region covering all 2^32 addresses, reachable by every
    # initiator: the interval engine proves no address can decode to an
    # error in the single pass, and since both error bins stay in the
    # pruned model, each becomes an unr-model-unreachable finding.
    config = NodeConfig(
        n_targets=1,
        address_map=AddressMap([Region(0, 1 << 32, 0)]),
        name="fullmap",
    )
    report = analyze_unreachability(config)
    for group in ("decode", "response"):
        verdict = _verdict(report, group, "error")
        assert verdict.verdict == UNREACHABLE
        assert "interval-coverage proof" in verdict.reason
        assert "1 region(s)" in verdict.reason
        assert verdict.witness is None
        assert verdict.in_model
    assert set(report.counts()) == {REACHABLE, UNREACHABLE}
    findings = report.findings()
    assert [f.rule for f in findings] == ["unr-model-unreachable"] * 2
    assert {f.process for f in findings} == {
        "coverage:response:error", "coverage:decode:error",
    }
    assert "unknown" not in report.to_dict()


def test_fully_mapped_partial_crossbar_has_no_model_bug():
    # The map covers all 2^32 addresses, but init0 may not reach targ1:
    # init0 addressing targ1's region is a decode error in both nodes
    # and in the coverage collector, so the error bins are reachable.
    config = NodeConfig(
        architecture=Architecture.PARTIAL_CROSSBAR,
        connectivity=frozenset({(0, 0), (1, 0), (1, 1)}),
        address_map=AddressMap([
            Region(base=0, size=1 << 31, target=0),
            Region(base=1 << 31, size=1 << 31, target=1),
        ]),
        name="masked",
    )
    report = analyze_unreachability(config)
    for group in ("decode", "response"):
        verdict = _verdict(report, group, "error")
        assert verdict.verdict == REACHABLE
        assert verdict.witness["initiator"] == 0
    assert _verdict(report, "path", "init0->targ1").verdict == UNREACHABLE
    assert not [f for f in report.findings()
                if f.rule == "unr-model-unreachable"]


def test_render_and_dict_roundtrip():
    report = analyze_unreachability(NodeConfig())
    text = report.render()
    assert "UNR analysis" in text
    assert "pruning validated" in text
    data = report.to_dict()
    assert data["schema_version"] == 1
    assert data["n_bins"] == len(report.verdicts)
    assert data["unreachable"] == 3
    assert data["model_unreachable"] == []


def test_constants_sharpen_programming_verdict():
    # With an elaborated environment, the blocking net comes from the
    # constant engine rather than the configuration-level argument.
    from repro.analysis.constants import derive_constants
    from repro.lint.graph import DesignGraph
    from repro.lint.runner import build_env

    config = NodeConfig()
    env = build_env(config, "rtl")
    constants = derive_constants(DesignGraph.from_simulator(env.sim))
    report = analyze_unreachability(config, constants=constants)
    assert _verdict(report, "programming", "write").verdict == UNREACHABLE


def test_plain_pass_does_not_import_the_symbolic_package():
    """The exact decode engine lives in ``unr`` itself: a UNR verdict
    never loads :mod:`repro.analysis.symbolic`."""
    code = (
        "import sys\n"
        "from repro.analysis.unr import analyze_unreachability\n"
        "from repro.stbus import NodeConfig\n"
        "analyze_unreachability(NodeConfig())\n"
        "print('repro.analysis.symbolic' in sys.modules)\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"
