"""Constant folding and algebraic identities (the level-1 workhorse).

Pure expression rewriting: ``2 * 3`` becomes ``6``, ``x + 0`` becomes
``x``.  Statement structure is untouched — an ``if (1)`` keeps its
(now-constant) condition here and is pruned by the dead-code pass,
which keeps each pass's counters honest about what it did.

Every statement rebuild goes through :func:`dataclasses.replace` so
profile-feedback hints (``If.likely``, ``While.rotate``) survive the
rewrite.
"""

from __future__ import annotations

from dataclasses import replace

from repro.lang import ast
from repro.pipeline.trace import Stage


class ConstFoldPass(Stage):
    """Fold constant expressions and apply safe algebraic identities."""

    name = "const-fold"
    provides = ("folded",)

    def run(self, state, counters):
        self.counters = counters
        functions = [
            replace(fn, body=tuple(self._stmt(s) for s in fn.body))
            for fn in state.program.functions
        ]
        state.program = replace_program(state.program, functions)

    # -- statements ------------------------------------------------------

    def _stmts(self, stmts) -> tuple:
        return tuple(self._stmt(s) for s in stmts)

    def _stmt(self, stmt: ast.Stmt) -> ast.Stmt:
        if isinstance(stmt, ast.Assign):
            return replace(stmt, value=self._fold(stmt.value))
        if isinstance(stmt, ast.AssignIndex):
            return replace(
                stmt, index=self._fold(stmt.index), value=self._fold(stmt.value)
            )
        if isinstance(stmt, ast.If):
            return replace(
                stmt,
                cond=self._fold(stmt.cond),
                then=self._stmts(stmt.then),
                otherwise=self._stmts(stmt.otherwise),
            )
        if isinstance(stmt, ast.While):
            return replace(
                stmt, cond=self._fold(stmt.cond), body=self._stmts(stmt.body)
            )
        if isinstance(stmt, ast.Return):
            value = self._fold(stmt.value) if stmt.value is not None else None
            return replace(stmt, value=value)
        if isinstance(stmt, (ast.Print, ast.ExprStmt)):
            return replace(stmt, value=self._fold(stmt.value))
        return stmt  # Burn

    # -- expressions -----------------------------------------------------

    def _fold(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.Unary):
            operand = self._fold(expr.operand)
            if isinstance(operand, ast.Num):
                self.counters["folded"] += 1
                if expr.op == "-":
                    return ast.Num(-operand.value, expr.line)
                return ast.Num(int(operand.value == 0), expr.line)
            return replace(expr, operand=operand)
        if isinstance(expr, ast.Binary):
            left, right = self._fold(expr.left), self._fold(expr.right)
            folded = _fold_binary(expr.op, left, right, expr.line)
            if folded is not None:
                self.counters["folded"] += 1
                return folded
            return replace(expr, left=left, right=right)
        if isinstance(expr, ast.Index):
            return replace(expr, index=self._fold(expr.index))
        if isinstance(expr, ast.Call):
            return replace(expr, args=tuple(self._fold(a) for a in expr.args))
        return expr


def replace_program(program: ast.Program, functions) -> ast.Program:
    """A fresh Program with ``functions``; globals/arrays copied."""
    return ast.Program(
        globals_=list(program.globals_),
        arrays=dict(program.arrays),
        functions=list(functions),
    )


def _fold_binary(op, left, right, line) -> ast.Expr | None:
    lnum = left.value if isinstance(left, ast.Num) else None
    rnum = right.value if isinstance(right, ast.Num) else None
    if lnum is not None and rnum is not None:
        if op in ("/", "%") and rnum == 0:
            return None  # leave the fault to run time
        value = {
            "+": lambda: lnum + rnum,
            "-": lambda: lnum - rnum,
            "*": lambda: lnum * rnum,
            "/": lambda: _trunc(lnum, rnum),
            "%": lambda: lnum - _trunc(lnum, rnum) * rnum,
            "==": lambda: int(lnum == rnum),
            "!=": lambda: int(lnum != rnum),
            "<": lambda: int(lnum < rnum),
            "<=": lambda: int(lnum <= rnum),
            ">": lambda: int(lnum > rnum),
            ">=": lambda: int(lnum >= rnum),
            "&&": lambda: int(bool(lnum) and bool(rnum)),
            "||": lambda: int(bool(lnum) or bool(rnum)),
        }[op]()
        return ast.Num(value, line)
    # algebraic identities (only ones safe without effect analysis:
    # the surviving operand is still evaluated)
    if op == "+" and rnum == 0:
        return left
    if op == "+" and lnum == 0:
        return right
    if op == "-" and rnum == 0:
        return left
    if op == "*" and rnum == 1:
        return left
    if op == "*" and lnum == 1:
        return right
    return None


def _trunc(a: int, b: int) -> int:
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q
