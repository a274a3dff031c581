"""Symbolic process semantics: lift and prove.

* :mod:`~repro.analysis.symbolic.ir` — a small bitvector expression IR
  (constants, variables, arithmetic/bit ops, comparisons, ``if/else`` as
  mux, and an explicit ``OPAQUE`` node for everything the lifter cannot
  translate);
* :mod:`~repro.analysis.symbolic.lift` — the AST lifter: per registered
  process, ``inspect.getsource`` + ``ast`` → one IR assignment per
  driven signal, degrading honestly to OPAQUE statements instead of
  guessing.  :func:`~repro.analysis.symbolic.lift.closed_constant_drive`
  is its one consumer in the analyses: the constant a comb process
  always drives onto a net, which the lint ``dead-net`` and the
  ``tie-off-conflict`` rules ask about;
* :mod:`~repro.analysis.symbolic.equiv` — functional RTL≡BCA equivalence:
  pointwise comb-cone enumeration plus bounded lockstep execution of both
  views under identical stimulus, one verdict per interface port;
* :mod:`~repro.analysis.symbolic.report` — the per-configuration
  ``--symbolic`` report.

The equivalence pass is reachable through ``python -m repro.analysis
--symbolic`` and :func:`repro.analysis.analyze_config` with
``symbolic=True``.  With the flag off this package is imported only when
a ``dead-net`` or ``tie-off-conflict`` candidate needs the lifter, and
the analysis output carries no ``symbolic`` key.
"""

from .equiv import (
    DEFAULT_DOMAIN_BUDGET,
    PortEquivalence,
    check_functional_equivalence,
)
from .ir import (
    BinOp,
    BoolOp,
    Compare,
    Const,
    Expr,
    Mux,
    Opaque,
    OpaqueValueError,
    UnOp,
    Var,
    evaluate,
    free_vars,
    is_closed,
    opaque_reasons,
    render,
)
from .lift import (
    LiftedAssign,
    LiftedProcess,
    LiftReport,
    closed_constant_drive,
    lift_process,
    lift_simulator,
)
from .report import SymbolicReport, run_symbolic_analysis

__all__ = [
    "BinOp",
    "BoolOp",
    "Compare",
    "Const",
    "DEFAULT_DOMAIN_BUDGET",
    "Expr",
    "LiftReport",
    "LiftedAssign",
    "LiftedProcess",
    "Mux",
    "Opaque",
    "OpaqueValueError",
    "PortEquivalence",
    "SymbolicReport",
    "UnOp",
    "Var",
    "check_functional_equivalence",
    "closed_constant_drive",
    "evaluate",
    "free_vars",
    "is_closed",
    "lift_process",
    "lift_simulator",
    "opaque_reasons",
    "render",
    "run_symbolic_analysis",
]
