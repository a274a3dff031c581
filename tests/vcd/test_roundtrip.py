"""VCD writer/parser round-trip and format tests."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Simulator
from repro.vcd import (
    VcdParseError,
    VcdWriter,
    dump_to_string,
    make_identifier,
    parse_vcd,
)
from repro.vcd.parser import _token_blocks


def test_identifier_sequence_unique():
    ids = [make_identifier(i) for i in range(500)]
    assert len(set(ids)) == 500
    assert ids[0] == "!"
    assert all(33 <= ord(c) <= 126 for ident in ids for c in ident)


def test_identifier_negative_rejected():
    with pytest.raises(ValueError):
        make_identifier(-1)


def simulate_counter_vcd(cycles=5):
    buf = io.StringIO()
    sim = Simulator()
    writer = VcdWriter(buf)
    sim.add_tracer(writer)
    count = sim.signal("top.count", width=8)
    flag = sim.signal("top.dut.flag", width=1)
    sim.add_clocked(lambda: count.drive((count.value + 1) & 0xFF))
    sim.add_comb(lambda: flag.drive(count.value & 1), [count])
    sim.elaborate()
    sim.run(cycles)
    sim.finish()
    return buf.getvalue()


def test_roundtrip_counter():
    text = simulate_counter_vcd(cycles=6)
    vcd = parse_vcd(text)
    assert vcd.timescale == 10
    assert "top.count" in vcd
    assert "top.dut.flag" in vcd
    assert vcd.n_cycles == 6
    # Cycle c shows the post-edge value c+1.
    assert vcd["top.count"].expand(6, vcd.timescale) == [1, 2, 3, 4, 5, 6]
    assert vcd["top.dut.flag"].expand(6, vcd.timescale) == [1, 0, 1, 0, 1, 0]


def test_scope_hierarchy_emitted():
    text = simulate_counter_vcd(cycles=1)
    assert "$scope module top $end" in text
    assert "$scope module dut $end" in text
    assert text.count("$upscope $end") == 2


def test_dump_to_string_and_value_at():
    rows = [{"a": 0, "b": 5}, {"a": 1, "b": 5}, {"a": 1, "b": 9}]
    text = dump_to_string(rows, {"a": 1, "b": 8})
    vcd = parse_vcd(text)
    assert vcd["a"].expand(3, vcd.timescale) == [0, 1, 1]
    assert vcd["b"].expand(3, vcd.timescale) == [5, 5, 9]
    assert vcd["b"].value_at(0) == 5
    assert vcd["b"].value_at(25) == 9


def test_parse_file_path(tmp_path):
    path = tmp_path / "wave.vcd"
    path.write_text(simulate_counter_vcd(3), encoding="ascii")
    vcd = parse_vcd(str(path))
    assert vcd.n_cycles == 3


def test_parse_rejects_garbage():
    with pytest.raises(VcdParseError):
        parse_vcd("$nonsense\nstuff\n")


def test_parse_rejects_undeclared_id():
    text = (
        "$timescale 10ns $end\n"
        "$var wire 1 ! a $end\n"
        "$enddefinitions $end\n"
        "#0\n1%\n"
    )
    with pytest.raises(VcdParseError):
        parse_vcd(text)


def test_parse_handles_x_and_z():
    text = (
        "$timescale 10ns $end\n"
        "$var wire 4 ! a $end\n"
        "$enddefinitions $end\n"
        "#0\nb1x1z !\n#10\n"
    )
    vcd = parse_vcd(text)
    assert vcd["a"].value_at(0) == 0b1010


VECTOR_HEADER = (
    "$timescale 10ns $end\n"
    "$var wire 4 ! a $end\n"
    "$enddefinitions $end\n"
)


def test_parse_rejects_time_going_backwards():
    text = (
        "$timescale 10ns $end\n"
        "$var wire 1 ! a $end\n"
        "$enddefinitions $end\n"
        "#0\n0!\n#30\n1!\n#10\n0!\n#40\n"
    )
    with pytest.raises(VcdParseError, match=r"#10 follows #30"):
        parse_vcd(text)


def test_parse_accepts_a_repeated_timestamp():
    vcd = parse_vcd(VECTOR_HEADER + "#0\nb1 !\n#10\n#10\nb11 !\n#20\n")
    assert vcd["a"].changes == [(0, 1), (10, 3)]
    assert vcd.end_time == 20


def test_parse_rejects_negative_width():
    text = "$var wire -1 ! a $end\n$enddefinitions $end\n"
    with pytest.raises(VcdParseError, match=r"bad \$var"):
        parse_vcd(text)


def test_parse_rejects_empty_vector():
    with pytest.raises(VcdParseError, match="empty vector"):
        parse_vcd(VECTOR_HEADER + "#0\nb !\n#10\n")


@pytest.mark.parametrize("bits", ["1_0", "-1", "+1", "0b1", "12"])
def test_parse_rejects_bad_vector_digits(bits):
    # int(bits, 2) alone would accept an underscore, a sign or a prefix.
    with pytest.raises(VcdParseError, match="bad vector digit"):
        parse_vcd(VECTOR_HEADER + f"#0\nb{bits} !\n#10\n")


def test_parse_masks_vectors_to_the_declared_width():
    vcd = parse_vcd(VECTOR_HEADER + "#0\nb110101 !\n#10\n")
    assert vcd["a"].value_at(0) == 0b0101


def test_parse_shared_identifier_feeds_every_owner():
    text = (
        "$timescale 10ns $end\n"
        "$scope module top $end\n"
        "$var wire 4 ! wide $end\n"
        "$var wire 2 ! narrow $end\n"
        "$upscope $end\n"
        "$enddefinitions $end\n"
        "#0\nb1111 !\n#10\nb0110 !\n#20\n"
    )
    vcd = parse_vcd(text)
    assert vcd["top.wide"].changes == [(0, 15), (10, 6)]
    assert vcd["top.narrow"].changes == [(0, 3), (10, 2)]


def test_writer_only_emits_changes():
    text = simulate_counter_vcd(cycles=4)
    # flag toggles every cycle, count changes every cycle: each cycle
    # emits a timestamp. But a constant signal would not re-emit.
    assert text.count("#") >= 4


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=255),
                  st.integers(min_value=0, max_value=1)),
        min_size=1,
        max_size=40,
    )
)
def test_roundtrip_property(rows):
    """Whatever per-cycle samples we write, parsing recovers them exactly."""
    sample_rows = [{"x": x, "y": y} for x, y in rows]
    text = dump_to_string(sample_rows, {"x": 8, "y": 1})
    vcd = parse_vcd(text)
    assert vcd["x"].expand(len(rows), vcd.timescale) == [x for x, _ in rows]
    assert vcd["y"].expand(len(rows), vcd.timescale) == [y for _, y in rows]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab \n", max_size=40), st.integers(1, 6))
def test_token_blocks_split_like_one_buffer(text, size):
    """Tokens cut by a block boundary are rejoined, whatever the size."""
    blocks = _token_blocks(io.StringIO(text), size=size)
    assert [token for block in blocks for token in block] == text.split()

