"""Code generation: EK AST -> EDGE blocks.

Lowering model:

* scalars live in architectural registers (allocated from R8 upward; R2 is
  the return-value register);
* arrays live in memory, one region per array, initialised via data
  segments;
* straight-line code accumulates into the current EDGE block — values
  assigned and then used inside the same block stay in the dataflow graph
  (no register round-trip), and only variables that are *dirty* at a block
  boundary get write slots;
* ``while``/``if`` lower to separate condition/body/join blocks with
  predicated branches — except that **simple if/else bodies are
  if-converted**: when every statement in both arms is a scalar
  assignment, the arms are evaluated in the current block and merged with
  dataflow selects, exactly as an EDGE compiler forms hyperblocks;
* blocks that grow past the architectural limits are split automatically.

Constant expressions fold at compile time through the same
:func:`~repro.isa.semantics.evaluate_alu` the machine uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..errors import CompileError
from ..isa.builder import BlockBuilder, ProgramBuilder, Wire
from ..isa.opcodes import Opcode
from ..isa.program import HALT_LABEL, Program
from ..isa.semantics import evaluate_alu
from ..isa.values import to_unsigned
from .ast_nodes import (ArrayDecl, Assign, BinOp, Expr, If, Index, Number,
                        ProgramAst, Return, Stmt, UnOp, VarDecl, VarRef,
                        While)
from .parser import parse

#: Scalars are allocated from here (R2 is the result register).
FIRST_VAR_REG = 8
LAST_VAR_REG = 63
RESULT_REG = 2

#: Array regions: 64 KiB apart starting at 1 MiB.
ARRAY_BASE = 0x10_0000
ARRAY_STRIDE = 0x1_0000

#: Split the current block when it grows past these soft limits.
MAX_BLOCK_INSTS = 96
MAX_BLOCK_MEMOPS = 24

_BINOPS: Dict[str, Opcode] = {
    "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL, "/": Opcode.DIV,
    "%": Opcode.MOD, "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
    "<<": Opcode.SHL, ">>": Opcode.SHR,
    "==": Opcode.TEQ, "!=": Opcode.TNE, "<": Opcode.TLT, "<=": Opcode.TLE,
    ">": Opcode.TGT, ">=": Opcode.TGE,
}


@dataclass
class CompiledProgram:
    """A compiled EK kernel: the program plus its symbol map."""

    program: Program
    var_regs: Dict[str, int]
    array_bases: Dict[str, int]
    array_sizes: Dict[str, int]
    result_reg: int = RESULT_REG


def compile_source(source: str) -> CompiledProgram:
    """Compile EK source to a validated EDGE program."""
    ast = parse(source)
    return _CodeGen(ast).run()


class _CodeGen:
    def __init__(self, ast: ProgramAst):
        self.ast = ast
        self.pb = ProgramBuilder(entry="entry")
        self.var_regs: Dict[str, int] = {}
        self.array_bases: Dict[str, int] = {}
        self.array_sizes: Dict[str, int] = {}
        self._collect_decls(ast.statements)

        self.b: Optional[BlockBuilder] = None
        self.values: Dict[str, Wire] = {}
        self.dirty: Set[str] = set()
        self._label_counter = 0
        self._returned = False

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _collect_decls(self, statements: List[Stmt]) -> None:
        for stmt in statements:
            if isinstance(stmt, VarDecl):
                if stmt.name in self.var_regs \
                        or stmt.name in self.array_bases:
                    raise CompileError(
                        f"redeclaration of {stmt.name!r}", stmt.line)
                reg = FIRST_VAR_REG + len(self.var_regs)
                if reg > LAST_VAR_REG:
                    raise CompileError(
                        f"too many scalar variables (max "
                        f"{LAST_VAR_REG - FIRST_VAR_REG + 1})", stmt.line)
                self.var_regs[stmt.name] = reg
            elif isinstance(stmt, ArrayDecl):
                if stmt.name in self.var_regs \
                        or stmt.name in self.array_bases:
                    raise CompileError(
                        f"redeclaration of {stmt.name!r}", stmt.line)
                if 8 * stmt.size > ARRAY_STRIDE:
                    raise CompileError(
                        f"array {stmt.name!r} too large "
                        f"(max {ARRAY_STRIDE // 8} words)", stmt.line)
                base = ARRAY_BASE + ARRAY_STRIDE * len(self.array_bases)
                self.array_bases[stmt.name] = base
                self.array_sizes[stmt.name] = stmt.size
                words = list(stmt.init) + [0] * (stmt.size - len(stmt.init))
                self.pb.data_words(stmt.name, base, words)
            elif isinstance(stmt, While):
                self._collect_decls(stmt.body)
            elif isinstance(stmt, If):
                self._collect_decls(stmt.then_body)
                self._collect_decls(stmt.else_body)

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------

    def _fresh_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"L{self._label_counter}_{hint}"

    def _open(self, name: str) -> None:
        self.b = self.pb.block(name)
        self.values = {}
        self.dirty = set()

    def _seal(self, branch_fn) -> None:
        """Write dirty scalars back and emit the block's branch."""
        for name in sorted(self.dirty):
            self.b.write(self.var_regs[name], self.values[name])
        branch_fn(self.b)
        self.b = None

    def _seal_to(self, label: str) -> None:
        self._seal(lambda b: b.branch(label))

    def _maybe_split(self) -> None:
        if self.b is None:
            return
        if (self.b.instruction_count > MAX_BLOCK_INSTS
                or self.b.memory_op_count > MAX_BLOCK_MEMOPS):
            nxt = self._fresh_label("cont")
            self._seal_to(nxt)
            self._open(nxt)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(self) -> CompiledProgram:
        self._open("entry")
        self._gen_stmts(self.ast.statements)
        if self.b is not None:
            self._seal_to(HALT_LABEL)
        return CompiledProgram(self.pb.build(), dict(self.var_regs),
                               dict(self.array_bases),
                               dict(self.array_sizes))

    def _gen_stmts(self, statements: List[Stmt]) -> None:
        for stmt in statements:
            if self._returned:
                raise CompileError("unreachable code after return",
                                   stmt.line)
            self._maybe_split()
            self._gen_stmt(stmt)

    def _gen_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, VarDecl):
            self.values[stmt.name] = self._expr(stmt.init)
            self.dirty.add(stmt.name)
        elif isinstance(stmt, ArrayDecl):
            pass                          # handled in _collect_decls
        elif isinstance(stmt, Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, While):
            self._gen_while(stmt)
        elif isinstance(stmt, If):
            self._gen_if(stmt)
        elif isinstance(stmt, Return):
            value = self._expr(stmt.value)
            self.b.write(RESULT_REG, value)
            self._seal(lambda b: b.branch(HALT_LABEL))
            self._returned = True
        else:
            raise CompileError(f"cannot lower {type(stmt).__name__}",
                               stmt.line)

    def _gen_assign(self, stmt: Assign) -> None:
        if stmt.index is None:
            if stmt.target not in self.var_regs:
                raise CompileError(
                    f"assignment to undeclared variable {stmt.target!r}",
                    stmt.line)
            self.values[stmt.target] = self._expr(stmt.value)
            self.dirty.add(stmt.target)
            return
        addr = self._array_addr(stmt.target, stmt.index, stmt.line)
        value = self._expr(stmt.value)
        self.b.store(addr, value)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def _gen_while(self, stmt: While) -> None:
        cond_label = self._fresh_label("while")
        body_label = self._fresh_label("body")
        exit_label = self._fresh_label("endwhile")
        self._seal_to(cond_label)

        self._open(cond_label)
        cond = self._expr(stmt.cond)
        self._seal(lambda b: b.branch_if(cond, body_label, exit_label))

        self._open(body_label)
        self._gen_stmts(stmt.body)
        if self.b is not None:
            self._seal_to(cond_label)
        if self._returned:
            raise CompileError("return inside while is unsupported",
                               stmt.line)
        self._open(exit_label)

    def _gen_if(self, stmt: If) -> None:
        if self._if_convertible(stmt):
            self._gen_if_converted(stmt)
            return
        then_label = self._fresh_label("then")
        join_label = self._fresh_label("join")
        else_label = self._fresh_label("else") if stmt.else_body \
            else join_label
        cond = self._expr(stmt.cond)
        self._seal(lambda b: b.branch_if(cond, then_label, else_label))

        self._open(then_label)
        self._gen_stmts(stmt.then_body)
        returned_then = self._returned
        if self.b is not None:
            self._seal_to(join_label)
        self._returned = False

        if stmt.else_body:
            self._open(else_label)
            self._gen_stmts(stmt.else_body)
            returned_else = self._returned
            if self.b is not None:
                self._seal_to(join_label)
            self._returned = returned_then and returned_else
        else:
            self._returned = False
        if not self._returned:
            self._open(join_label)

    def _if_convertible(self, stmt: If) -> bool:
        """Both arms contain only scalar assignments -> use selects."""
        def simple(statements: List[Stmt]) -> bool:
            return all(isinstance(s, Assign) and s.index is None
                       for s in statements)
        return (bool(stmt.then_body) and simple(stmt.then_body)
                and simple(stmt.else_body))

    def _gen_if_converted(self, stmt: If) -> None:
        """If-conversion: evaluate both arms, merge with selects."""
        pred = self._expr(stmt.cond)
        before = dict(self.values)

        then_vals = self._eval_arm(stmt.then_body, dict(before))
        else_vals = self._eval_arm(stmt.else_body, dict(before))

        for name in sorted(set(then_vals) | set(else_vals)):
            taken = then_vals.get(name)
            fallen = else_vals.get(name)
            if taken is None:
                taken = self._var(name, stmt.line)
            if fallen is None:
                fallen = self._var(name, stmt.line)
            self.values[name] = self.b.select(pred, taken, fallen)
            self.dirty.add(name)

    def _eval_arm(self, statements: List[Stmt],
                  scope: Dict[str, Wire]) -> Dict[str, Wire]:
        """Evaluate an arm's assignments against a private scope; returns
        only the variables the arm assigned."""
        saved = self.values
        self.values = scope
        assigned: Dict[str, Wire] = {}
        try:
            for s in statements:
                if s.target not in self.var_regs:
                    raise CompileError(
                        f"assignment to undeclared variable "
                        f"{s.target!r}", s.line)
                value = self._expr(s.value)
                scope[s.target] = value
                assigned[s.target] = value
        finally:
            self.values = saved
        return assigned

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _var(self, name: str, line: int) -> Wire:
        if name not in self.var_regs:
            kind = "array" if name in self.array_bases else "undeclared"
            raise CompileError(f"{kind} name {name!r} used as a scalar",
                               line)
        if name not in self.values:
            self.values[name] = self.b.read(self.var_regs[name])
        return self.values[name]

    def _array_addr(self, name: str, index: Expr, line: int) -> Wire:
        if name not in self.array_bases:
            raise CompileError(f"undeclared array {name!r}", line)
        base = self.array_bases[name]
        folded = self._fold(index)
        if folded is not None:
            return self.b.const(base + 8 * (folded & 0xFFFF_FFFF))
        offset = self.b.shl(self._expr(index), imm=3)
        return self.b.add(offset, imm=base)

    def _expr(self, expr: Expr) -> Wire:
        folded = self._fold(expr)
        if folded is not None:
            return self.b.const(folded)
        if isinstance(expr, VarRef):
            return self._var(expr.name, expr.line)
        if isinstance(expr, Index):
            return self.b.load(
                self._array_addr(expr.array, expr.index, expr.line))
        if isinstance(expr, UnOp):
            operand = self._expr(expr.operand)
            if expr.op == "-":
                return self.b.neg(operand)
            if expr.op == "~":
                return self.b.not_(operand)
            if expr.op == "!":
                return self.b.teq(operand, imm=0)
            raise CompileError(f"unknown unary {expr.op!r}", expr.line)
        if isinstance(expr, BinOp):
            opcode = _BINOPS.get(expr.op)
            if opcode is None:
                raise CompileError(f"unknown operator {expr.op!r}",
                                   expr.line)
            left = self._expr(expr.left)
            rfolded = self._fold(expr.right)
            if rfolded is not None:
                return self.b.op(opcode, left, imm=rfolded)
            return self.b.op(opcode, left, self._expr(expr.right))
        raise CompileError(f"cannot lower {type(expr).__name__}",
                           getattr(expr, "line", 0))

    def _fold(self, expr: Expr) -> Optional[int]:
        """Constant-fold using the machine's own ALU semantics."""
        if isinstance(expr, Number):
            return to_unsigned(expr.value)
        if isinstance(expr, UnOp):
            inner = self._fold(expr.operand)
            if inner is None:
                return None
            if expr.op == "-":
                return evaluate_alu(Opcode.NEG, inner)
            if expr.op == "~":
                return evaluate_alu(Opcode.NOT, inner)
            if expr.op == "!":
                return evaluate_alu(Opcode.TEQ, inner, 0)
            return None
        if isinstance(expr, BinOp):
            opcode = _BINOPS.get(expr.op)
            left = self._fold(expr.left)
            right = self._fold(expr.right)
            if opcode is None or left is None or right is None:
                return None
            return evaluate_alu(opcode, left, right)
        return None
