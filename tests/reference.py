"""The tests' differential oracle and in-memory IO channel.

`reference_eval` runs a code-annotated tree by direct recursion, a route
to a program's meaning that shares no evaluation code with the compiler's
back end or the p+ machine; `ListIo` feeds the machine fixed inputs and
collects what it writes.  Both live here, not in `pvm`, so that the
machine, and the `interprete` command that loads it, know nothing of the
compiler's tree nodes or symbol table.
"""

from pl0plus.parser import (Assign, BinOp, Call, Cond, ConstDecl, Empty,
                            Ident, If, Neg, Num, Read, Sequence, While, Write)
from pl0plus.pvm import (BAD_INPUT, DIVISION_BY_ZERO, InputError,
                         PvmRuntimeError)
from pl0plus.semantics import rebuild_symbol_table


class ListIo:
    """In-memory channel for tests: fixed inputs, collected outputs."""

    def __init__(self, inputs=()):
        self._inputs = list(inputs)
        self._cursor = 0
        self.outputs: list[int] = []

    def read_integer(self) -> int:
        if self._cursor >= len(self._inputs):
            raise InputError("no hay más entradas")
        value = self._inputs[self._cursor]
        self._cursor += 1
        return value

    def write_integer(self, value: int) -> None:
        self.outputs.append(value)


class _Frame:
    __slots__ = ("values", "parent", "depth")

    def __init__(self, parent, depth):
        self.values: dict[str, int] = {}
        self.parent = parent
        self.depth = depth


def reference_eval(revised, inputs=()) -> list[int]:
    """Evaluate a code-annotated tree by direct recursion and return the
    written integers.

    This is a second, independent route to a program's meaning (its own
    arithmetic included), kept deliberately separate from the compiled
    route so the two can be checked against each other.  Raises
    PvmRuntimeError for the same error conditions the machine reports.
    """
    declarations = rebuild_symbol_table(revised)
    depths: dict[str, int] = {}  # the declaring block's, by code

    def collect(block, depth):
        for node in block.constants + block.variables + block.procedures:
            depths[node.code] = depth
        for proc in block.procedures:
            collect(proc.block, depth + 1)

    collect(revised.block, 0)
    pending = list(inputs)
    pending.reverse()
    outputs: list[int] = []

    def clip(value: int) -> int:
        value %= 1 << 32
        return value - (1 << 32) if value >= 1 << 31 else value

    def frame_at(frame: _Frame, depth: int) -> _Frame:
        while frame.depth > depth:
            frame = frame.parent
        return frame

    def fetch(code: str, frame: _Frame) -> int:
        decl = declarations[code]
        if isinstance(decl, ConstDecl):
            return clip(decl.value)
        return frame_at(frame, depths[code]).values.get(code, 0)

    def evaluate(node, frame: _Frame) -> int:
        if isinstance(node, Num):
            return clip(node.value)
        if isinstance(node, Ident):
            return fetch(node.code, frame)
        if isinstance(node, BinOp):
            left = evaluate(node.left, frame)
            right = evaluate(node.right, frame)
            if node.op == "suma":
                return clip(left + right)
            if node.op == "resta":
                return clip(left - right)
            if node.op == "multiplicacion":
                return clip(left * right)
            if right == 0:
                raise PvmRuntimeError(DIVISION_BY_ZERO)
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            return clip(quotient)
        if isinstance(node, Neg):
            return clip(-evaluate(node.operand, frame))
        raise TypeError(f"not an expression node: {node!r}")

    def holds(cond: Cond, frame: _Frame) -> bool:
        if cond.op == "odd":
            return evaluate(cond.operands[0], frame) % 2 != 0
        left = evaluate(cond.operands[0], frame)
        right = evaluate(cond.operands[1], frame)
        if cond.op == "comparacion":
            return left == right
        if cond.op == "diferente":
            return left != right
        if cond.op == "menor_que":
            return left < right
        if cond.op == "mayor_igual":
            return left >= right
        if cond.op == "mayor_que":
            return left > right
        return left <= right

    def execute(node, frame: _Frame) -> None:
        if isinstance(node, Assign):
            value = evaluate(node.expr, frame)
            frame_at(frame, depths[node.code]).values[node.code] = value
        elif isinstance(node, Call):
            depth = depths[node.code]
            callee = declarations[node.code]
            execute(callee.block.body,
                    _Frame(frame_at(frame, depth), depth + 1))
        elif isinstance(node, Sequence):
            for child in node.statements:
                execute(child, frame)
        elif isinstance(node, If):
            if holds(node.condition, frame):
                execute(node.then_branch, frame)
            elif node.else_branch is not None:
                execute(node.else_branch, frame)
        elif isinstance(node, While):
            while holds(node.condition, frame):
                execute(node.body, frame)
        elif isinstance(node, Read):
            if not pending:
                raise PvmRuntimeError(BAD_INPUT)
            frame_at(frame, depths[node.code]).values[node.code] = \
                clip(pending.pop())
        elif isinstance(node, Write):
            outputs.append(fetch(node.code, frame))
        elif isinstance(node, Empty):
            pass
        else:
            raise TypeError(f"not a statement node: {node!r}")

    execute(revised.block.body, _Frame(None, 0))
    return outputs
