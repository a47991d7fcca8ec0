"""The p+ virtual machine, plus a tree-walking reference evaluator.

The machine keeps three registers: p (next instruction), b (base of the
current frame) and t (top of stack, -1 when empty).  A frame is three
linkage cells — static link, dynamic link, return address — followed by
the block's variables.  LLA writes the linkage cells above t and the
callee's INS claims them, so the expression stack stays balanced across
calls.

Before the first step, `run` materializes the main frame's linkage cells:
static and dynamic link get -1 (there is no frame before main, and a
static chain that walks past main must fail, not loop), the return
address gets 0, which is what lets main's RET halt the machine.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field

from .codegen import Opcode, format_instruction, program_from_xml
from .parser import (Assign, BinOp, Call, Cond, Empty, Ident, If, Neg, Num,
                     Program as Ast, Read, Sequence, While, Write)
from .semantics import CONSTANT, rebuild_symbol_table
from .xmldoc import XmlDocument, XmlLoadError

WORD_MIN = -(1 << 31)
WORD_MAX = (1 << 31) - 1


def wrap32(value: int) -> int:
    """Reduce to the 32-bit two's-complement range."""
    return (value - WORD_MIN) % (1 << 32) + WORD_MIN


DIVISION_BY_ZERO = "División por cero"
BAD_STACK_ACCESS = "Acceso inválido a la pila"
BAD_INPUT = "Entrada inválida"
BAD_CODE_ADDRESS = "Dirección de código inválida"

DEFAULT_STACK_LIMIT = 1 << 20


class PvmRuntimeError(Exception):
    def __init__(self, message: str, address: int | None = None):
        super().__init__(message)
        self.message = message
        self.address = address


class InputError(Exception):
    """Raised by an IO channel when no further integer can be read."""


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


class StreamIo:
    """Whitespace-separated decimal integers on text streams.  The streams
    default to the process stdin/stdout, resolved at call time."""

    def __init__(self, stdin=None, stdout=None):
        self._stdin = stdin
        self._stdout = stdout
        self._pending: list[str] = []

    def read_integer(self) -> int:
        stream = self._stdin if self._stdin is not None else sys.stdin
        while not self._pending:
            line = stream.readline()
            if line == "":
                raise InputError("fin de la entrada")
            self._pending = line.split()
        token = self._pending.pop(0)
        try:
            return int(token, 10)
        except ValueError:
            raise InputError(f"no es un entero: '{token}'") from None

    def write_integer(self, value: int) -> None:
        stream = self._stdout if self._stdout is not None else sys.stdout
        stream.write(f"{value}\n")


@dataclass
class MachineState:
    code: list
    p: int = 0
    b: int = 0
    t: int = -1
    stack: list[int] = field(default_factory=list)
    halted: bool = False
    stack_limit: int = DEFAULT_STACK_LIMIT


def load(doc: XmlDocument) -> MachineState:
    program = program_from_xml(doc)
    if not program.instructions:
        raise XmlLoadError("el programa no contiene instrucciones")
    return MachineState(code=program.instructions)


def base(state: MachineState, dif: int) -> int:
    """Follow the static chain dif frames up from the current one."""
    a = state.b
    for _ in range(dif):
        if not 0 <= a < len(state.stack):
            raise PvmRuntimeError(BAD_STACK_ACCESS)
        a = state.stack[a]
        if a < 0:
            # walked past the outermost frame into the bootstrap sentinel
            raise PvmRuntimeError(BAD_STACK_ACCESS)
    return a


def _ensure(state: MachineState, index: int) -> None:
    """Materialize backing cells up to index, enforcing the stack cap."""
    if index >= state.stack_limit:
        raise PvmRuntimeError(BAD_STACK_ACCESS)
    if index >= len(state.stack):
        state.stack.extend([0] * (index + 1 - len(state.stack)))


def _push(state: MachineState, value: int) -> None:
    _ensure(state, state.t + 1)
    state.t += 1
    state.stack[state.t] = value


def _pop(state: MachineState) -> int:
    if state.t < 0:
        raise PvmRuntimeError(BAD_STACK_ACCESS)
    value = state.stack[state.t]
    state.t -= 1
    return value


def _cell(state: MachineState, index: int) -> int:
    if index < 0 or index > state.t:
        raise PvmRuntimeError(BAD_STACK_ACCESS)
    return index


_RELATIONS = {8: operator.eq, 9: operator.ne, 10: operator.lt,
              11: operator.ge, 12: operator.gt, 13: operator.le}


def _truncated_div(left: int, right: int) -> int:
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


def _operate(state: MachineState, code: int) -> None:
    if code == 1:
        if state.t < 0:
            raise PvmRuntimeError(BAD_STACK_ACCESS)
        state.stack[state.t] = wrap32(-state.stack[state.t])
    elif code == 6:
        _push(state, 1 if _pop(state) % 2 != 0 else 0)
    elif code in (2, 3, 4, 5):
        right = _pop(state)
        left = _pop(state)
        if code == 2:
            value = left + right
        elif code == 3:
            value = left - right
        elif code == 4:
            value = left * right
        else:
            if right == 0:
                raise PvmRuntimeError(DIVISION_BY_ZERO)
            value = _truncated_div(left, right)
        _push(state, wrap32(value))
    elif code in _RELATIONS:
        right = _pop(state)
        left = _pop(state)
        _push(state, 1 if _RELATIONS[code](left, right) else 0)
    else:
        raise PvmRuntimeError(f"Operación inválida: {code}")


def step(state: MachineState, io) -> MachineState:
    """Execute one instruction in place; also returns the state."""
    if state.halted:
        return state
    if not 0 <= state.p < len(state.code):
        raise PvmRuntimeError(BAD_CODE_ADDRESS, state.p)
    instruction = state.code[state.p]
    address = state.p
    state.p += 1
    try:
        _execute(state, instruction, io)
    except PvmRuntimeError as error:
        if error.address is None:
            error.address = address
        raise
    return state


def _execute(state: MachineState, instruction, io) -> None:
    op = instruction.opcode
    if op is Opcode.LIT:
        _push(state, wrap32(instruction.param))
    elif op is Opcode.CAR:
        index = _cell(state, base(state, instruction.level)
                      + instruction.param)
        _push(state, state.stack[index])
    elif op is Opcode.ALM:
        value = _pop(state)
        index = _cell(state, base(state, instruction.level)
                      + instruction.param)
        state.stack[index] = value
    elif op is Opcode.LLA:
        link = base(state, instruction.level)
        _ensure(state, state.t + 3)
        state.stack[state.t + 1] = link
        state.stack[state.t + 2] = state.b
        state.stack[state.t + 3] = state.p
        state.b = state.t + 1
        state.p = instruction.param
    elif op is Opcode.INS:
        top = state.t + instruction.param
        if top < -1:
            raise PvmRuntimeError(BAD_STACK_ACCESS)
        _ensure(state, top)
        for index in range(state.t + 1, top + 1):
            # claim cells as fresh zeroed variables, but never clobber
            # the linkage written by LLA (or the bootstrap)
            if index < state.b or index > state.b + 2:
                state.stack[index] = 0
        state.t = top
    elif op is Opcode.SAL:
        state.p = instruction.param
    elif op is Opcode.SAC:
        if _pop(state) == 0:
            state.p = instruction.param
    elif op is Opcode.OPR:
        _operate(state, instruction.param)
    elif op is Opcode.RET:
        frame = state.b
        if frame < 0 or frame + 2 >= len(state.stack):
            raise PvmRuntimeError(BAD_STACK_ACCESS)
        returning = state.stack[frame + 2]
        state.t = frame - 1
        state.p = returning
        state.b = state.stack[frame + 1]
        if frame == 0 and returning == 0:
            state.halted = True
    elif op is Opcode.LEE:
        try:
            value = io.read_integer()
        except InputError:
            raise PvmRuntimeError(BAD_INPUT) from None
        _push(state, wrap32(value))
    elif op is Opcode.ESC:
        io.write_integer(_pop(state))
    else:  # pragma: no cover - the opcode set is closed
        raise PvmRuntimeError(f"Instrucción desconocida: {op}")


def _trace(state: MachineState, err) -> None:
    if 0 <= state.p < len(state.code):
        rendered = format_instruction(state.code[state.p])
    else:
        rendered = f"{state.p} ???"
    values = " ".join(str(state.stack[i])
                      for i in range(state.t, max(state.t - 4, -1), -1))
    print(f"p={state.p} b={state.b} t={state.t}  {rendered}  "
          f"pila: [{values}]", file=err)


def run(state: MachineState, io, debug: bool = False, control=None,
        err=None) -> int:
    """Drive a freshly loaded machine to completion.

    Returns the exit status: 0 for a normal halt, 1 for a runtime error
    (reported to err, default stderr).  In debug mode one trace line per
    step goes to err and execution waits for a newline on the control
    stream (default stdin) before each step.
    """
    if err is None:
        err = sys.stderr
    _ensure(state, 2)
    state.stack[0] = -1
    state.stack[1] = -1
    state.stack[2] = 0
    while not state.halted:
        if debug:
            _trace(state, err)
            (control if control is not None else sys.stdin).readline()
        try:
            step(state, io)
        except PvmRuntimeError as error:
            print(f"Error en tiempo de ejecución: {error.message} "
                  f"(dirección {error.address})", file=err)
            return 1
    return 0


# ---------------------------------------------------------------------------
# Reference evaluator

class _Frame:
    __slots__ = ("values", "parent", "depth")

    def __init__(self, parent, depth):
        self.values: dict[str, int] = {}
        self.parent = parent
        self.depth = depth


def reference_eval(revised: Ast, inputs=()) -> list[int]:
    """Evaluate a code-annotated tree by direct recursion and return the
    written integers.

    This is a second, independent route to a program's meaning (its own
    arithmetic included), kept deliberately separate from the compiled
    route so the two can be checked against each other.  Raises
    PvmRuntimeError for the same error conditions the machine reports.
    """
    table = rebuild_symbol_table(revised)
    procedures = {}

    def collect(block):
        for proc in block.procedures:
            procedures[proc.code] = proc
            collect(proc.block)

    collect(revised.block)
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
        symbol = table.by_code[code]
        if symbol.kind == CONSTANT:
            return clip(symbol.value)
        return frame_at(frame, symbol.depth).values.get(code, 0)

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
            symbol = table.by_code[node.code]
            value = evaluate(node.expr, frame)
            frame_at(frame, symbol.depth).values[node.code] = value
        elif isinstance(node, Call):
            symbol = table.by_code[node.code]
            static = frame_at(frame, symbol.depth)
            callee = procedures[node.code]
            execute(callee.block.body, _Frame(static, symbol.depth + 1))
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
            symbol = table.by_code[node.code]
            frame_at(frame, symbol.depth).values[node.code] = \
                clip(pending.pop())
        elif isinstance(node, Write):
            outputs.append(fetch(node.code, frame))
        elif isinstance(node, Empty):
            pass
        else:
            raise TypeError(f"not a statement node: {node!r}")

    execute(revised.block.body, _Frame(None, 0))
    return outputs
