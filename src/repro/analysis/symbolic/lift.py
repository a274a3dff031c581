"""AST lifter: registered process bodies → bitvector IR assignments.

For each :class:`~repro.kernel.simulator.ProcessInfo` the lifter parses
the process source (captured lazily by the kernel via
``inspect.getsource``) and translates the body into one IR expression
per *driven signal*: a symbolic transition function for clocked
processes, a symbolic output function for comb processes.

The translation is deliberately conservative.  It only emits IR whose
evaluation provably agrees with the Python source:

* attribute chains rooted at the process's ``self`` (or closure cells /
  globals) are resolved *statically* on the live object graph — never by
  calling anything; a chain ending in ``.value`` on a
  :class:`~repro.kernel.signal.Signal` becomes a free variable, a chain
  ending in a Python int becomes a constant;
* ``X.drive(expr)`` statements record an assignment; ``assert`` is a
  no-op; ``if/else`` merges per-target with ``Mux`` (an undriven side
  holds the signal's previous value, which is exactly the kernel's
  deferred-commit semantics);
* everything else — loops, calls, subscripts, conditionally-defined
  locals, properties — degrades *honestly* to :class:`Opaque` nodes or
  opaque statements carrying the construct name and source line, so a
  partially-lifted process can never be mistaken for a proven one.

Line numbers in OPAQUE reasons are relative to the start of the process
source (the kernel dedents the captured text before parsing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...kernel.signal import Signal
from .ir import (
    BinOp,
    BoolOp,
    Compare,
    Const,
    Expr,
    Mux,
    Opaque,
    UnOp,
    Var,
    evaluate,
    is_closed,
    opaque_reasons,
    render,
)

__all__ = [
    "LiftedAssign",
    "LiftedProcess",
    "LiftReport",
    "closed_constant_drive",
    "lift_process",
    "lift_simulator",
]


@dataclass
class LiftedAssign:
    """One driven signal and the expression it receives."""

    target: str
    width: int
    expr: Expr
    lineno: int

    @property
    def clean(self) -> bool:
        return not opaque_reasons(self.expr)

    def render(self) -> str:
        return f"{self.target} := {render(self.expr)}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "width": self.width,
            "expr": render(self.expr),
            "clean": self.clean,
        }


@dataclass
class LiftedProcess:
    """Lift result for one registered process.

    ``status`` is one of:

    * ``clean`` — every statement translated, no OPAQUE anywhere;
    * ``partial`` — some assignments recovered, but at least one OPAQUE
      expression or untranslated statement remains;
    * ``opaque`` — nothing could be recovered (or the source itself was
      unavailable; then ``error`` says why).
    """

    name: str
    kind: str  # "comb" | "clocked"
    assigns: List[LiftedAssign] = field(default_factory=list)
    opaque_statements: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def clean(self) -> bool:
        return (self.error is None and not self.opaque_statements
                and all(a.clean for a in self.assigns))

    @property
    def status(self) -> str:
        if self.clean:
            return "clean"
        if self.assigns and any(a.clean for a in self.assigns):
            return "partial"
        return "opaque"

    def assign_for(self, target: str) -> Optional[LiftedAssign]:
        for assign in self.assigns:
            if assign.target == target:
                return assign
        return None

    def all_opaque_reasons(self) -> List[str]:
        reasons = list(self.opaque_statements)
        if self.error is not None:
            reasons.append(self.error)
        for assign in self.assigns:
            reasons.extend(opaque_reasons(assign.expr))
        return reasons

    def render(self) -> str:
        lines = [f"{self.kind} {self.name}: {self.status}"]
        for assign in self.assigns:
            lines.append(f"  {assign.render()}")
        for reason in self.opaque_statements:
            lines.append(f"  OPAQUE stmt: {reason}")
        if self.error is not None:
            lines.append(f"  error: {self.error}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "assigns": [a.to_dict() for a in self.assigns],
        }
        if self.opaque_statements:
            out["opaque_statements"] = list(self.opaque_statements)
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class LiftReport:
    """Lift results for every process of one simulator."""

    processes: List[LiftedProcess] = field(default_factory=list)

    @property
    def n_processes(self) -> int:
        return len(self.processes)

    @property
    def n_clean(self) -> int:
        return sum(1 for p in self.processes if p.status == "clean")

    @property
    def n_partial(self) -> int:
        return sum(1 for p in self.processes if p.status == "partial")

    @property
    def n_opaque(self) -> int:
        return sum(1 for p in self.processes if p.status == "opaque")

    def process_for(self, name: str) -> Optional[LiftedProcess]:
        for proc in self.processes:
            if proc.name == name:
                return proc
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_processes": self.n_processes,
            "n_clean": self.n_clean,
            "n_partial": self.n_partial,
            "n_opaque": self.n_opaque,
            "processes": {
                p.name: p.status for p in sorted(
                    self.processes, key=lambda p: p.name
                )
            },
        }


_NORMAL = 0
_RETURN = 1

_AST_BIN = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
}

_AST_CMP = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}

_UNRESOLVED = object()


class _Frame:
    """Mutable lexical state while walking one statement list."""

    __slots__ = ("objs", "exprs", "assigns")

    def __init__(self) -> None:
        self.objs: Dict[str, object] = {}
        self.exprs: Dict[str, Expr] = {}
        # target name -> (expr, width, lineno); insertion-ordered.
        self.assigns: Dict[str, Tuple[Expr, int, int]] = {}

    def copy(self) -> "_Frame":
        child = _Frame()
        child.objs = dict(self.objs)
        child.exprs = dict(self.exprs)
        child.assigns = dict(self.assigns)
        return child


def _src(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our input
        text = type(node).__name__
    if len(text) > 60:
        text = text[:57] + "..."
    return text


class _Lifter:
    """One-shot translator for a single process."""

    def __init__(self, info) -> None:
        self.info = info
        func = info.process
        self.bound_self = getattr(func, "__self__", None)
        raw = getattr(func, "__func__", func)
        self.globals: Dict[str, object] = getattr(raw, "__globals__", {}) or {}
        self.closure: Dict[str, object] = {}
        code = getattr(raw, "__code__", None)
        cells = getattr(raw, "__closure__", None)
        if code is not None and cells:
            for name, cell in zip(code.co_freevars, cells):
                try:
                    self.closure[name] = cell.cell_contents
                except ValueError:  # pragma: no cover - unfilled cell
                    pass
        self.opaque_statements: List[str] = []

    # -- entry point ---------------------------------------------------

    def run(self) -> LiftedProcess:
        node = self.info.source_ast()
        result = LiftedProcess(name=self.info.name, kind=self.info.kind)
        if node is None:
            result.error = "source unavailable (inspect.getsource failed)"
            return result
        frame = _Frame()
        if isinstance(node, ast.Lambda):
            body: List[ast.stmt] = [ast.Expr(value=node.body)]
            ast.fix_missing_locations(ast.Module(body=body, type_ignores=[]))
            params = [a.arg for a in node.args.args]
        else:
            body = list(node.body)
            params = [a.arg for a in node.args.args]
        if params and self.bound_self is not None:
            frame.objs[params[0]] = self.bound_self
            params = params[1:]
        for name in params:
            # Processes are zero-argument callables; a surviving extra
            # parameter means the registration wrapped something we do
            # not understand.
            frame.exprs[name] = Opaque(f"unbound parameter {name!r}")
        self._exec_body(body, frame)
        result.opaque_statements = list(self.opaque_statements)
        for target, (expr, width, lineno) in frame.assigns.items():
            result.assigns.append(
                LiftedAssign(target=target, width=width, expr=expr,
                             lineno=lineno)
            )
        return result

    # -- statements ----------------------------------------------------

    def _opaque_stmt(self, node: ast.AST, what: str) -> None:
        self.opaque_statements.append(
            f"{what} (line {getattr(node, 'lineno', 0)}): {_src(node)}"
        )

    def _exec_body(self, stmts: List[ast.stmt], frame: _Frame) -> int:
        for stmt in stmts:
            if self._exec_stmt(stmt, frame) == _RETURN:
                return _RETURN
        return _NORMAL

    def _exec_stmt(self, stmt: ast.stmt, frame: _Frame) -> int:
        if isinstance(stmt, ast.Expr):
            self._exec_expr_stmt(stmt, frame)
            return _NORMAL
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, frame)
            return _NORMAL
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self._bind_local(stmt.target.id, stmt.value, frame)
            return _NORMAL
        if isinstance(stmt, ast.AugAssign):
            self._exec_aug_assign(stmt, frame)
            return _NORMAL
        if isinstance(stmt, (ast.Assert, ast.Pass)):
            # An assert that fails crashes the simulation outright; on
            # every run the lifter models, it passed.  Semantically a
            # no-op for the value functions.
            return _NORMAL
        if isinstance(stmt, ast.Return):
            # The kernel ignores process return values.
            return _RETURN
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, frame)
        self._opaque_stmt(stmt, f"unsupported statement {type(stmt).__name__}")
        return _NORMAL

    def _exec_expr_stmt(self, stmt: ast.Expr, frame: _Frame) -> None:
        value = stmt.value
        if isinstance(value, ast.Constant):  # docstring
            return
        if isinstance(value, ast.Call):
            func = value.func
            if (isinstance(func, ast.Attribute) and func.attr == "drive"
                    and len(value.args) == 1 and not value.keywords):
                target = self._resolve_object(func.value, frame)
                if isinstance(target, Signal):
                    expr = self._lift_expr(value.args[0], frame)
                    frame.assigns[target.name] = (
                        expr, target.width, getattr(stmt, "lineno", 0)
                    )
                    return
            self._opaque_stmt(stmt, "untranslated call")
            return
        self._opaque_stmt(stmt, "unsupported expression statement")

    def _exec_assign(self, stmt: ast.Assign, frame: _Frame) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            self._opaque_stmt(stmt, "unsupported assignment target")
            return
        self._bind_local(stmt.targets[0].id, stmt.value, frame)

    def _bind_local(self, name: str, value: ast.expr, frame: _Frame) -> None:
        obj = self._resolve_object(value, frame)
        if obj is not _UNRESOLVED and not isinstance(obj, bool) \
                and not isinstance(obj, int):
            frame.objs[name] = obj
            frame.exprs.pop(name, None)
            return
        frame.exprs[name] = self._lift_expr(value, frame)
        frame.objs.pop(name, None)

    def _exec_aug_assign(self, stmt: ast.AugAssign, frame: _Frame) -> None:
        op = _AST_BIN.get(type(stmt.op))
        if (isinstance(stmt.target, ast.Name) and op is not None
                and stmt.target.id in frame.exprs):
            old = frame.exprs[stmt.target.id]
            frame.exprs[stmt.target.id] = BinOp(
                op, old, self._lift_expr(stmt.value, frame)
            )
            return
        self._opaque_stmt(stmt, "unsupported augmented assignment")

    def _exec_if(self, stmt: ast.If, frame: _Frame) -> int:
        static = self._static_truth(stmt.test, frame)
        if static is True:
            return self._exec_body(stmt.body, frame)
        if static is False:
            return self._exec_body(stmt.orelse, frame)
        cond = self._lift_expr(stmt.test, frame)
        then_frame = frame.copy()
        else_frame = frame.copy()
        then_flag = self._exec_body(stmt.body, then_frame)
        else_flag = self._exec_body(stmt.orelse, else_frame)
        if then_flag == _RETURN or else_flag == _RETURN:
            # A data-dependent early return makes everything after this
            # statement conditional in a way straight-line merge cannot
            # express; degrade the whole process instead of guessing.
            self._opaque_stmt(stmt, "conditional early return")
        self._merge(frame, cond, then_frame, else_frame, stmt)
        return _NORMAL

    def _merge(self, frame: _Frame, cond: Expr, then_frame: _Frame,
               else_frame: _Frame, stmt: ast.If) -> None:
        for target in dict(then_frame.assigns, **else_frame.assigns):
            then_cell = then_frame.assigns.get(target)
            else_cell = else_frame.assigns.get(target)
            cell = then_cell or else_cell
            assert cell is not None
            _, width, lineno = cell
            # An undriven side holds the previous committed value —
            # exactly the kernel's deferred-commit semantics.
            then_expr = then_cell[0] if then_cell else Var(target, width)
            else_expr = else_cell[0] if else_cell else Var(target, width)
            merged = then_expr if then_expr == else_expr \
                else Mux(cond, then_expr, else_expr)
            frame.assigns[target] = (merged, width, lineno)
        for name in dict(then_frame.exprs, **else_frame.exprs):
            then_expr = then_frame.exprs.get(name)
            else_expr = else_frame.exprs.get(name)
            if then_expr is None or else_expr is None:
                frame.exprs[name] = Opaque(
                    f"conditionally-defined local {name!r} "
                    f"(line {stmt.lineno})"
                )
            elif then_expr == else_expr:
                frame.exprs[name] = then_expr
            else:
                frame.exprs[name] = Mux(cond, then_expr, else_expr)
            frame.objs.pop(name, None)
        for name in dict(then_frame.objs, **else_frame.objs):
            then_obj = then_frame.objs.get(name, _UNRESOLVED)
            else_obj = else_frame.objs.get(name, _UNRESOLVED)
            if then_obj is else_obj:
                frame.objs[name] = then_obj
            else:
                frame.objs.pop(name, None)
                frame.exprs[name] = Opaque(
                    f"conditionally-bound object {name!r} "
                    f"(line {stmt.lineno})"
                )

    # -- static object resolution --------------------------------------

    def _resolve_object(self, node: ast.expr, frame: _Frame):
        """Resolve an attribute chain to a live Python object, or
        ``_UNRESOLVED``.  Never calls anything: properties and other
        descriptors on the owning class stop resolution cold."""
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in frame.exprs:
                return _UNRESOLVED
            if node.id in frame.objs:
                return frame.objs[node.id]
            if node.id in self.closure:
                return self.closure[node.id]
            if node.id in self.globals:
                return self.globals[node.id]
            return _UNRESOLVED
        if isinstance(node, ast.Attribute):
            base = self._resolve_object(node.value, frame)
            if base is _UNRESOLVED or base is None:
                return _UNRESOLVED
            cls_attr = getattr(type(base), node.attr, None)
            if isinstance(cls_attr, property):
                # Reading a property executes code against live state;
                # that is simulation, not static resolution.
                return _UNRESOLVED
            try:
                return getattr(base, node.attr)
            except AttributeError:
                return _UNRESOLVED
        return _UNRESOLVED

    def _static_truth(self, test: ast.expr, frame: _Frame) -> Optional[bool]:
        """Decide a condition at lift time when it only involves static
        object identity (``x is None``) or resolved constants."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.ops[0], (ast.Is, ast.IsNot)):
            left = self._resolve_object(test.left, frame)
            right = self._resolve_object(test.comparators[0], frame)
            if left is not _UNRESOLVED and right is not _UNRESOLVED:
                same = left is right
                return same if isinstance(test.ops[0], ast.Is) else not same
            return None
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = self._static_truth(test.operand, frame)
            return None if inner is None else not inner
        obj = self._resolve_object(test, frame)
        if isinstance(obj, (bool, int)) and obj is not _UNRESOLVED:
            return bool(obj)
        return None

    # -- expressions ---------------------------------------------------

    def _lift_expr(self, node: ast.expr, frame: _Frame) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Const(int(node.value))
            if isinstance(node.value, int):
                return Const(node.value)
            return Opaque(
                f"non-integer constant (line {node.lineno}): {_src(node)}"
            )
        if isinstance(node, ast.Name) and node.id in frame.exprs:
            return frame.exprs[node.id]
        if isinstance(node, ast.Attribute) and node.attr == "value":
            base = self._resolve_object(node.value, frame)
            if isinstance(base, Signal):
                return Var(base.name, base.width)
        if isinstance(node, (ast.Name, ast.Attribute)):
            obj = self._resolve_object(node, frame)
            if isinstance(obj, bool):
                return Const(int(obj))
            if isinstance(obj, int):
                return Const(obj)
            if isinstance(obj, Signal):
                return Opaque(
                    f"bare signal reference (line {node.lineno}): "
                    f"{_src(node)}"
                )
            return Opaque(
                f"unresolved name (line {node.lineno}): {_src(node)}"
            )
        if isinstance(node, ast.BinOp):
            op = _AST_BIN.get(type(node.op))
            if op is None:
                return Opaque(
                    f"unsupported operator {type(node.op).__name__} "
                    f"(line {node.lineno})"
                )
            return BinOp(op, self._lift_expr(node.left, frame),
                         self._lift_expr(node.right, frame))
        if isinstance(node, ast.UnaryOp):
            operand = self._lift_expr(node.operand, frame)
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.USub):
                return UnOp("-", operand)
            if isinstance(node.op, ast.Invert):
                return UnOp("~", operand)
            if isinstance(node.op, ast.Not):
                return UnOp("not", operand)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            return BoolOp(op, tuple(
                self._lift_expr(v, frame) for v in node.values
            ))
        if isinstance(node, ast.Compare):
            return self._lift_compare(node, frame)
        if isinstance(node, ast.IfExp):
            return Mux(self._lift_expr(node.test, frame),
                       self._lift_expr(node.body, frame),
                       self._lift_expr(node.orelse, frame))
        return Opaque(
            f"unsupported expression {type(node).__name__} "
            f"(line {getattr(node, 'lineno', 0)}): {_src(node)}"
        )

    def _lift_compare(self, node: ast.Compare, frame: _Frame) -> Expr:
        parts: List[Expr] = []
        left_node = node.left
        left = self._lift_expr(left_node, frame)
        for op_node, right_node in zip(node.ops, node.comparators):
            if isinstance(op_node, (ast.Is, ast.IsNot)):
                lobj = self._resolve_object(left_node, frame)
                robj = self._resolve_object(right_node, frame)
                if lobj is not _UNRESOLVED and robj is not _UNRESOLVED:
                    same = lobj is robj
                    if isinstance(op_node, ast.IsNot):
                        same = not same
                    parts.append(Const(int(same)))
                else:
                    parts.append(Opaque(
                        f"identity comparison (line {node.lineno}): "
                        f"{_src(node)}"
                    ))
                left_node = right_node
                left = self._lift_expr(right_node, frame)
                continue
            op = _AST_CMP.get(type(op_node))
            if op is None:
                parts.append(Opaque(
                    f"unsupported comparison {type(op_node).__name__} "
                    f"(line {node.lineno})"
                ))
                left_node = right_node
                left = self._lift_expr(right_node, frame)
                continue
            right = self._lift_expr(right_node, frame)
            parts.append(Compare(op, left, right))
            left_node = right_node
            left = right
        if len(parts) == 1:
            return parts[0]
        return BoolOp("and", tuple(parts))


def lift_process(info) -> LiftedProcess:
    """Lift one registered process into IR assignments."""
    return _Lifter(info).run()


def lift_simulator(sim) -> LiftReport:
    """Lift every comb and clocked process registered on a simulator."""
    report = LiftReport()
    for info in list(sim.comb_processes) + list(sim.clocked_processes):
        report.processes.append(lift_process(info))
    return report


def closed_constant_drive(info, signal_name: str) -> Optional[int]:
    """The constant comb process ``info`` provably always drives onto
    ``signal_name``, or None (not a comb process, no lifted assignment
    to the net, or one that is not closed)."""
    if info.kind != "comb":
        return None
    assign = lift_process(info).assign_for(signal_name)
    if assign is None or not is_closed(assign.expr):
        return None
    return evaluate(assign.expr, {})
