"""Table-driven tests for the process-fingerprint normalizer.

The contract (the conservatism ladder of ``repro.analysis.impact``): a
comment-only edit, a docstring edit and a reformat each leave the
fingerprint unchanged, while a real body edit, a read/write-set change
and a sensitivity change each produce a new one.
"""

import ast
import functools

import pytest

from repro.analysis.impact import (
    MODE_OPAQUE,
    MODE_RAW_SOURCE,
    MODE_SEMANTIC_AST,
    process_fingerprint,
)
from repro.kernel import Module, Simulator


def _fingerprint(builder):
    """Elaborate the one-process design ``builder`` makes and
    fingerprint its process."""
    sim = Simulator()
    builder(sim)
    sim.elaborate()
    infos = sim.comb_processes + sim.clocked_processes
    assert len(infos) == 1
    return process_fingerprint(infos[0])


# -- builders: each pair differs only in the way its name says --------------
#
# Every builder registers exactly one process named "t.p" over the same
# signals, so any fingerprint difference comes from the body/interface
# delta under test.

def ast_base(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        acc = 0
        for shift in (0, 1):
            acc |= (a.value >> shift) & 1
        out.drive(acc)

    top.comb(logic, [a], name="p")


def ast_comment(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        # reduction OR over two taps
        acc = 0
        for shift in (0, 1):
            acc |= (a.value >> shift) & 1  # tap
        out.drive(acc)

    top.comb(logic, [a], name="p")


def ast_docstring(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        """Reduce two taps of ``a`` into one bit."""
        acc = 0
        for shift in (0, 1):
            acc |= (a.value >> shift) & 1
        out.drive(acc)

    top.comb(logic, [a], name="p")


def ast_reformat(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        acc = 0
        for shift in (0, 1):
            acc |= (
                (a.value >> shift)
                & 1
            )
        out.drive(acc)

    top.comb(logic, [a], name="p")


def ast_body_edit(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        acc = 0
        for shift in (0, 2):  # different tap
            acc |= (a.value >> shift) & 1
        out.drive(acc)

    top.comb(logic, [a], name="p")


def sens_base(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    out = top.signal("out", width=4)

    def logic():
        out.drive(a.value)

    top.comb(logic, [a], name="p")
    del b


def sens_extra(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    out = top.signal("out", width=4)

    def logic():
        out.drive(a.value)

    top.comb(logic, [a, b], name="p")  # same body, wider sensitivity


def clocked_base(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    q = top.signal("q", width=4)

    def tick():
        q.drive(a.value)

    top.clocked(tick, reads=[a], writes=[q], name="p")
    del b


def clocked_read_set(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    q = top.signal("q", width=4)

    def tick():
        q.drive(a.value)

    # Same body, wider declared read set.
    top.clocked(tick, reads=[a, b], writes=[q], name="p")


CASES = [
    ("ast/comment-only", ast_base, ast_comment, True),
    ("ast/docstring", ast_base, ast_docstring, True),
    ("ast/reformat", ast_base, ast_reformat, True),
    ("ast/body-edit", ast_base, ast_body_edit, False),
    ("comb/sensitivity-change", sens_base, sens_extra, False),
    ("clocked/read-set-change", clocked_base, clocked_read_set, False),
]


@pytest.mark.parametrize(
    "label,build_a,build_b,expect_same",
    CASES, ids=[case[0] for case in CASES])
def test_normalizer_table(label, build_a, build_b, expect_same):
    fp_a = _fingerprint(build_a)
    fp_b = _fingerprint(build_b)
    assert fp_a.digest is not None and fp_b.digest is not None
    if expect_same:
        assert fp_a.digest == fp_b.digest, label
        assert fp_a.mode == fp_b.mode
    else:
        assert fp_a.digest != fp_b.digest, label


def test_ast_rung_used_for_partial_lift():
    assert _fingerprint(ast_base).mode == MODE_SEMANTIC_AST


def test_fingerprint_is_deterministic():
    assert _fingerprint(sens_base).digest == _fingerprint(sens_base).digest
    assert _fingerprint(ast_base).digest == _fingerprint(ast_base).digest


def test_opaque_process_has_no_digest():
    """A process whose source cannot be recovered (``functools.partial``
    has no code object for ``inspect.getsource``) lands on the opaque
    rung: no digest, a structured reason."""
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic(target, source):
        target.drive(source.value)

    top.comb(functools.partial(logic, out, a), [a], name="p")
    sim.elaborate()
    fp = process_fingerprint(sim.comb_processes[0])
    assert fp.mode == MODE_OPAQUE
    assert fp.digest is None
    assert fp.reason and "source unavailable" in fp.reason


class _StubInfo:
    """Duck-typed ProcessInfo for the raw-source rung: source text
    recovers but the AST does not."""

    name = "t.p"
    kind = "comb"
    sensitivity = ()
    declared_reads = None
    declared_writes = None
    declared_tie_offs = ()
    domain = None
    observed_reads = ()
    observed_writes = ()
    process = None

    def source(self):
        return "def p():\n    out.drive(1)\n"

    def source_ast(self):
        return None


def test_raw_source_rung_when_ast_unavailable():
    fp = process_fingerprint(_StubInfo())
    assert fp.mode == MODE_RAW_SOURCE
    assert fp.digest is not None
    assert fp.reason  # says why normalization degraded


def test_raw_source_rung_is_edit_sensitive():
    """On the raw rung *any* edit (even a comment) re-fingerprints —
    conservative by design."""
    stub_a = _StubInfo()
    stub_b = _StubInfo()
    stub_b.source = lambda: "def p():\n    out.drive(1)  # note\n"
    assert (process_fingerprint(stub_a).digest
            != process_fingerprint(stub_b).digest)
