"""Exact decode reachability: interval coverage, zero UNKNOWN, witnesses.

The UNR pass decides the decode-error bins with an interval union over
the resolved address map: either the union leaves a gap (a concrete
witness address, recorded as a structured stimulus vector) or it
provably covers the whole space (an UNREACHABLE proof naming the region
count).  There is no third verdict.
"""

import pytest

from repro.analysis.unr import (
    REACHABLE,
    UNREACHABLE,
    analyze_unreachability,
    coverage_gaps,
    exact_decode_verdict,
)
from repro.regression.configs import configuration_matrix
from repro.stbus import AddressMap, NodeConfig, Region
from repro.stbus.config import Architecture

FULL_COVER = AddressMap([
    Region(base=0, size=1 << 31, target=0),
    Region(base=1 << 31, size=1 << 31, target=1),
])


def test_default_map_gap_yields_witness():
    verdict, reason, witness = exact_decode_verdict(NodeConfig())
    assert verdict == REACHABLE
    assert witness is not None
    assert set(witness) == {"initiator", "opcode", "address", "expect"}
    address = int(witness["address"], 16)
    assert NodeConfig().resolved_map.decode(address) is None


def test_full_coverage_map_is_proven_unreachable():
    config = NodeConfig(address_map=FULL_COVER, name="cover")
    verdict, reason, witness = exact_decode_verdict(config)
    assert verdict == UNREACHABLE
    assert witness is None
    assert "interval-coverage proof" in reason
    assert "2 region(s)" in reason


def test_path_masked_region_stays_reachable():
    """Full address coverage does not kill the bin when the mask forbids
    some region's target to some initiator: the nodes route that
    initiator's request there to the error engine."""
    config = NodeConfig(
        architecture=Architecture.PARTIAL_CROSSBAR,
        connectivity=frozenset({(0, 0), (1, 0), (1, 1)}),
        address_map=FULL_COVER,
        name="masked",
    )
    verdict, reason, witness = exact_decode_verdict(config)
    assert verdict == REACHABLE
    assert "forbids to init0" in reason
    # The witness is init0 addressing targ1's region.
    assert witness["initiator"] == 0
    address = int(witness["address"], 16)
    target = config.resolved_map.decode(address)
    assert target == 1
    assert not config.path_allowed(witness["initiator"], target)


def test_coverage_gaps_complement():
    gaps = coverage_gaps(NodeConfig().resolved_map)
    assert gaps  # the default map covers a sliver of the space
    map_ = NodeConfig().resolved_map
    for start, end in gaps:
        assert start < end
        assert map_.decode(start) is None
        assert map_.decode(end - 1) is None
    assert not coverage_gaps(FULL_COVER)


def test_reachable_decode_bins_carry_witness_vectors():
    config = NodeConfig()
    report = analyze_unreachability(config)
    for key in ("decode", "response"):
        verdict = report.verdict_for(key, "error")
        assert verdict.verdict == REACHABLE
        assert "interval union" in verdict.reason
        assert verdict.witness is not None
        assert verdict.witness["expect"]
        # The witness address must be bus-aligned legal stimulus.
        assert int(verdict.witness["address"], 16) % config.bus_bytes == 0
        # And serialization carries it.
        assert verdict.to_dict()["witness"] == verdict.witness
    # Bins decided without an address carry none.
    assert "witness" not in report.verdict_for("decode", "hit").to_dict()


@pytest.mark.parametrize(
    "config", configuration_matrix(small=True),
    ids=[c.name for c in configuration_matrix(small=True)],
)
def test_matrix_is_unknown_free_after_upgrade(config):
    """Every verdict of the single pass is REACHABLE or UNREACHABLE."""
    report = analyze_unreachability(config)
    assert {v.verdict for v in report.verdicts} <= {REACHABLE, UNREACHABLE}
    verdict, reason, _ = exact_decode_verdict(config)
    assert report.verdict_for("decode", "error").verdict == verdict
    assert report.verdict_for("response", "error").reason == reason
