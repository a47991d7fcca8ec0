"""The p+ machine, and `interprete`, the command that runs a `.p+` file.

The program format, with its XML reader, is `pcode`'s.  Running a `.p+`
needs no compiler: this module imports no compiler module, not even
inside a function, and compiling one never loads it.  The tests'
tree-walking oracle, which reads the compiler's trees, is kept in
`tests/reference.py` for that reason.

The machine keeps three registers: p (next instruction), b (base of the
current frame) and t (top of stack, -1 when empty).  A frame is three
linkage cells — static link, dynamic link, return address — followed by
the block's variables.  LLA writes the linkage cells above t and the
callee's INS claims them, so the expression stack stays balanced across
calls.

Before the first step, `run` materializes the main frame's linkage cells:
static and dynamic link get -1 (there is no frame before main, and a
static chain that walks past main must fail, not loop), the return
address gets 0, which is what lets main's RET halt the machine.  Every
static link a walk reads must point below the frame it is read from, as
the links LLA writes do; any other, such as one a hand-edited `.p+`
stores, is an invalid stack access, so a walk reads at most b + 1 links.
CAR, ALM and LLA share one walk, as Wirth's LOD, STO and CAL share `base`.

Instructions are executed by one loop, `_execute`, over the program
decoded into tuples of small ints and ended by a sentinel entry.  A
machine state decodes its code once, when it is built, and `run`, `step`
and the debugger share that decode: `run` gives the loop the whole step
budget, `step` and the debugger one instruction at a time.  p is checked
only where it is set from something other than p + 1: on entry to
`_execute` and by SAL, a taken SAC, LLA and RET.  A p outside the code
goes to the sentinel, whose execution reports `Dirección de código
inválida` at that address; the last instruction falls through into it,
so running off the end reports the address after it.  The state's p is
the address itself, so a jump out of the code faults on the step after
it, as it would if p were checked on every step.
"""

from __future__ import annotations

import sys
from itertools import repeat

from .command import Command, Option, guard, read_input
# Bound here by name: perfbench's tracer wraps program_from_xml wherever a
# traced module holds it, and pcode is not one of them.
from .pcode import OPERATIONS, format_instruction, program_from_xml
from .xmldoc import Record, XmlLoadError, XmlParseError, integer


# ---------------------------------------------------------------------------
# Machine

WORD_MIN = -(1 << 31)
WORD_MAX = (1 << 31) - 1


def wrap32(value: int) -> int:
    """Reduce to the 32-bit two's-complement range."""
    return (value - WORD_MIN) % (1 << 32) + WORD_MIN


DIVISION_BY_ZERO = "División por cero"
BAD_STACK_ACCESS = "Acceso inválido a la pila"
BAD_INPUT = "Entrada inválida"
BAD_CODE_ADDRESS = "Dirección de código inválida"
STEP_LIMIT = "Límite de pasos alcanzado"

DEFAULT_STACK_LIMIT = 1 << 20


class PvmRuntimeError(Exception):
    def __init__(self, message: str, address: int | None = None):
        super().__init__(message)
        self.message = message
        self.address = address


class InputError(Exception):
    """Raised by an IO channel when no further integer can be read."""


class StreamIo:
    """Whitespace-separated decimal integers on text streams.  The streams
    default to the process stdin/stdout, resolved at call time; a stdin
    that is None, as when the process started with it closed, is at its
    end."""

    def __init__(self, stdin=None, stdout=None):
        self._stdin = stdin
        self._stdout = stdout
        self._pending: list[str] = []   # the line's tokens, last first

    def read_integer(self) -> int:
        stream = self._stdin if self._stdin is not None else sys.stdin
        while not self._pending:
            line = "" if stream is None else stream.readline()
            if line == "":
                raise InputError("fin de la entrada")
            self._pending = line.split()
            self._pending.reverse()
        token = self._pending.pop()
        # What `integer` takes, after an optional "+" that no "-" follows.
        value = integer(token[1:] if token[0] == "+" else token)
        if value is None or token[:2] == "+-":
            raise InputError(f"no es un entero: '{token}'")
        return value

    def write_integer(self, value: int) -> None:
        stream = self._stdout if self._stdout is not None else sys.stdout
        stream.write(f"{value}\n")


class MachineState(Record):
    """The registers and stack of a machine about to run `code` from its
    first instruction, and that code as the loop dispatches on it,
    `decoded` once here."""

    __slots__ = ("code", "decoded", "p", "b", "t", "stack", "halted",
                 "stack_limit")
    _uncompared = ("decoded",)

    def __init__(self, code: list):
        self.code = code
        self.decoded = _decode(code)
        self.p = 0
        self.b = 0
        self.t = -1
        self.stack = []
        self.halted = False
        self.stack_limit = DEFAULT_STACK_LIMIT


def load(text: str) -> MachineState:
    program, _ = program_from_xml(text)
    if not program.instructions:
        raise XmlLoadError("el programa no contiene instrucciones")
    return MachineState(code=program.instructions)


# Decoded opcodes are small ints, numbered in the order the loop tests them,
# which is about how often programs execute them.  One test picks each group
# that shares code: CAR, ALM and LLA the static-chain walk, the ten
# operations on two operands their pops, SAC and SAL the jump, ODD and NEG
# the check for an operand.  OPR is split by its operation code; one no OPR
# has is _BAD_OPR.  _END is the sentinel entry after the last instruction.
(_CAR, _ALM, _LLA, _LIT, _ADD, _SUB, _MUL, _DIV, _LT, _GT, _LE, _GE, _EQ,
 _NE, _SAC, _SAL, _ODD, _NEG, _INS, _RET, _LEE, _ESC, _BAD_OPR,
 _END) = range(24)

# Keyed by mnemonic, the instruction's opcode.
_DECODED = {"CAR": _CAR, "LIT": _LIT, "ALM": _ALM, "SAC": _SAC, "SAL": _SAL,
            "LLA": _LLA, "INS": _INS, "RET": _RET, "LEE": _LEE, "ESC": _ESC}
# OPR's parameter to its decoded opcode, by its name in `pcode.OPERATIONS`.
_OPERATIONS = {number: {
    "negativo": _NEG, "suma": _ADD, "resta": _SUB, "multiplicacion": _MUL,
    "division": _DIV, "odd": _ODD, "comparacion": _EQ, "diferente": _NE,
    "menor_que": _LT, "mayor_igual": _GE, "mayor_que": _GT,
    "menor_igual": _LE}[name] for number, name in OPERATIONS.items()}


def _decode(code: list) -> list[tuple]:
    """The program as (opcode, level, param) tuples the loop dispatches on,
    followed by the _END sentinel; LIT's param is wrapped to a word here,
    once."""
    decoded = []
    for instruction in code:
        name, param = instruction.opcode, instruction.param
        if name == "OPR":
            number = _OPERATIONS.get(param, _BAD_OPR)
        else:
            number = _DECODED[name]
            if number == _LIT:
                param = wrap32(param)
        decoded.append((number, instruction.level, param))
    decoded.append((_END, None, None))
    return decoded


def _execute(state: MachineState, io, budget: int | None) -> None:
    """Execute the state's decoded code in place until the machine halts
    or budget instructions have run (None: no limit).

    The registers live in locals while the loop runs and go back to the
    state however it stops.  The stack is a list that only grows: t is
    kept apart from its length, because LLA writes the callee's linkage
    above t and the static chain is checked against the cells that exist.
    t never passes the list's end, so a push stores into its cell or, at
    the end, appends it.  Every cell t claims is checked against the
    stack limit, so t stays below it and an operation may write its
    result in place.  A result is wrapped to a word only when it leaves
    the word range.  A runtime error carries the address of the
    instruction that raised it.  CAR, ALM and LLA walk the static chain in
    one branch; SAC and SAL share one jump, ODD and NEG one operand check.

    A p set outside the code is kept in `target` while p is the _END
    sentinel's index; on the way out the state gets `target` in its
    place.  Running off the last instruction reaches the sentinel with
    `target` still its index.
    """
    if state.halted:
        return
    p, b, t = state.p, state.b, state.t
    code, stack = state.decoded, state.stack
    highest = state.stack_limit - 1   # the last cell t may claim
    end = target = len(code) - 1      # the sentinel's index
    if not 0 <= p < end:
        target, p = p, end
    halted = False
    try:
        for _ in repeat(None) if budget is None else repeat(None, budget):
            op, level, param = code[p]
            p += 1
            if op <= _LLA:   # CAR, ALM and LLA: one static-chain walk
                index = b
                while level > 0:
                    if not 0 <= index < len(stack):
                        raise PvmRuntimeError(BAD_STACK_ACCESS)
                    link = stack[index]
                    if not 0 <= link < index:
                        raise PvmRuntimeError(BAD_STACK_ACCESS)
                    index = link
                    level -= 1
                if op == _CAR:
                    index += param
                    if index < 0 or index > t or t >= highest:
                        raise PvmRuntimeError(BAD_STACK_ACCESS)
                    t += 1
                    try:
                        stack[t] = stack[index]
                    except IndexError:
                        stack.append(stack[index])
                elif op == _ALM:
                    if t < 0:
                        raise PvmRuntimeError(BAD_STACK_ACCESS)
                    t -= 1
                    index += param
                    if index < 0 or index > t:
                        raise PvmRuntimeError(BAD_STACK_ACCESS)
                    stack[index] = stack[t + 1]
                else:
                    if t + 3 > highest:
                        raise PvmRuntimeError(BAD_STACK_ACCESS)
                    # t < len(stack), so this writes cells t+1..t+3,
                    # growing the list by what it lacks
                    stack[t + 1:t + 4] = index, b, p
                    b = t + 1
                    p = param
                    if not 0 <= p < end:
                        target, p = p, end
            elif op == _LIT:
                if t >= highest:
                    raise PvmRuntimeError(BAD_STACK_ACCESS)
                t += 1
                try:
                    stack[t] = param
                except IndexError:
                    stack.append(param)
            elif op <= _NE:   # two operands, one result
                if t < 1:
                    raise PvmRuntimeError(BAD_STACK_ACCESS)
                right = stack[t]
                t -= 1
                left = stack[t]
                if op <= _DIV:
                    if op == _ADD:
                        value = left + right
                    elif op == _SUB:
                        value = left - right
                    elif op == _MUL:
                        value = left * right
                    elif right == 0:
                        raise PvmRuntimeError(DIVISION_BY_ZERO)
                    else:   # truncates toward zero
                        value = abs(left) // abs(right)
                        if (left < 0) != (right < 0):
                            value = -value
                    stack[t] = (value if WORD_MIN <= value <= WORD_MAX
                                else wrap32(value))
                elif op == _LT:
                    stack[t] = 1 if left < right else 0
                elif op == _GT:
                    stack[t] = 1 if left > right else 0
                elif op == _LE:
                    stack[t] = 1 if left <= right else 0
                elif op == _GE:
                    stack[t] = 1 if left >= right else 0
                elif op == _EQ:
                    stack[t] = 1 if left == right else 0
                else:
                    stack[t] = 1 if left != right else 0
            elif op <= _SAL:   # SAC and SAL: one jump
                if op == _SAC:
                    if t < 0:
                        raise PvmRuntimeError(BAD_STACK_ACCESS)
                    t -= 1
                    if stack[t + 1]:
                        continue
                p = param
                if not 0 <= p < end:
                    target, p = p, end
            elif op <= _NEG:   # ODD and NEG: one operand, in place
                if t < 0:
                    raise PvmRuntimeError(BAD_STACK_ACCESS)
                if op == _ODD:
                    stack[t] %= 2
                else:
                    value = -stack[t]
                    stack[t] = (value if WORD_MIN <= value <= WORD_MAX
                                else wrap32(value))
            elif op == _INS:
                top = t + param
                if top < -1 or top > highest:
                    raise PvmRuntimeError(BAD_STACK_ACCESS)
                if top >= len(stack):
                    stack.extend([0] * (top + 1 - len(stack)))
                for index in range(t + 1, top + 1):
                    # claim cells as fresh zeroed variables, but never
                    # clobber the linkage written by LLA (or the bootstrap)
                    if index < b or index > b + 2:
                        stack[index] = 0
                t = top
            elif op == _RET:
                frame = b
                if frame < 0 or frame + 2 >= len(stack):
                    raise PvmRuntimeError(BAD_STACK_ACCESS)
                t = frame - 1
                p = stack[frame + 2]
                b = stack[frame + 1]
                if frame == 0 and p == 0:
                    halted = True
                    return
                if not 0 <= p < end:
                    target, p = p, end
            elif op == _LEE:
                try:
                    value = io.read_integer()
                except InputError:
                    raise PvmRuntimeError(BAD_INPUT) from None
                if t >= highest:
                    raise PvmRuntimeError(BAD_STACK_ACCESS)
                t += 1
                try:
                    stack[t] = wrap32(value)
                except IndexError:
                    stack.append(wrap32(value))
            elif op == _ESC:
                if t < 0:
                    raise PvmRuntimeError(BAD_STACK_ACCESS)
                t -= 1
                io.write_integer(stack[t + 1])
            elif op == _END:
                raise PvmRuntimeError(BAD_CODE_ADDRESS, target)
            else:
                raise PvmRuntimeError(f"Operación inválida: {param}")
    except PvmRuntimeError as error:
        if error.address is None:
            error.address = p - 1
        raise
    finally:
        state.p = p if p < end else target
        state.b, state.t, state.halted = b, t, halted


def step(state: MachineState, io) -> MachineState:
    """Execute one instruction in place; also returns the state."""
    _execute(state, io, 1)
    return state


def _trace(state: MachineState, err) -> None:
    if 0 <= state.p < len(state.code):
        rendered = format_instruction(state.code[state.p])
    else:
        rendered = f"{state.p} ???"
    values = " ".join(str(state.stack[i])
                      for i in range(state.t, max(state.t - 4, -1), -1))
    print(f"p={state.p} b={state.b} t={state.t}  {rendered}  "
          f"pila: [{values}]", file=err)


def _source_line(code: list, address: int) -> str:
    """`, línea L` for the instruction at address: the `linea` of its
    first `informacion` whose `linea` is ASCII digits, or of the nearest
    such instruction before it; empty when there is none.  The digits are
    printed as a number, with no conversion to limit their count."""
    if 0 <= address < len(code):
        for instruction in reversed(code[:address + 1]):
            for annotation in instruction.annotations:
                line = annotation.attributes.get("linea", "")
                if line.isascii() and line.isdigit():
                    return f", línea {line.lstrip('0') or '0'}"
    return ""


def run(state: MachineState, io, debug: bool = False, control=None,
        err=None, max_steps: int | None = None) -> int:
    """Drive a freshly loaded machine to completion.

    Returns the exit status: 0 for a normal halt, 1 for a runtime error
    (reported to err, default stderr), which includes running more than
    max_steps instructions when that is given.  In debug mode one trace
    line per step goes to err and execution waits for a newline on the
    control stream (default stdin) before each step; with stdin closed
    (None) it steps without waiting, as at the end of the stream.
    """
    if err is None:
        err = sys.stderr
    if max_steps is not None:  # no run takes more steps than sys.maxsize
        max_steps = min(max_steps, sys.maxsize)
    state.stack[:3] = [-1, -1, 0]
    try:
        if not debug:
            _execute(state, io, max_steps)
        else:
            steps = repeat(None) if max_steps is None else range(max_steps)
            for _ in steps:
                if state.halted:
                    break
                _trace(state, err)
                stream = control if control is not None else sys.stdin
                if stream is not None:
                    stream.readline()
                _execute(state, io, 1)
        if not state.halted:
            raise PvmRuntimeError(STEP_LIMIT, state.p)
    except PvmRuntimeError as error:
        print(f"Error en tiempo de ejecución: {error.message} "
              f"(dirección {error.address}"
              f"{_source_line(state.code, error.address)})", file=err)
        return 1
    return 0


# ---------------------------------------------------------------------------
# The `interprete` command


class InterpretConfig(Record):
    __slots__ = ("input_path", "debug", "max_steps")

    def __init__(self, input_path: str, debug: bool = False,
                 max_steps: int | None = None):
        self.input_path = input_path
        self.debug = debug
        self.max_steps = max_steps


def _step_count(text: str) -> int:
    count = None if text[:1] == "-" else integer(text)
    if count is None:
        raise ValueError(f"no es un número de pasos: '{text}'")
    return count


INTERPRETER = Command(
    "interprete", "Intérprete de código p+ en su representación XML.",
    [Option(("-d", "--depurar"), "ejecuta paso a paso mostrando los "
            "registros, la instrucción y el tope de la pila"),
     Option(("--max-pasos",), "termina con un error en tiempo de ejecución "
            "si el programa no se detiene en N pasos", "N", _step_count)],
    "programa objeto (.p+)")


def parse_interpreter_args(argv=None) -> InterpretConfig:
    values, path = INTERPRETER.parse(argv)
    return InterpretConfig(path, "--depurar" in values,
                           values.get("--max-pasos"))


def interpreter_main(argv=None) -> int:
    return guard(lambda: _interpret(parse_interpreter_args(argv)))


def _interpret(config: InterpretConfig) -> int:
    text = read_input(config.input_path)
    if text is None:
        return 2
    try:
        state = load(text)
    except (XmlParseError, XmlLoadError) as exc:
        print(f"Error: '{config.input_path}': {exc}", file=sys.stderr)
        return 2

    control = None
    opened = None
    if config.debug:
        # With program input redirected from a file, stepping must still
        # read from the terminal; fall back to stdin when there is none.
        try:
            opened = open("/dev/tty", "r", encoding="utf-8")
            control = opened
        except OSError:
            control = None
    try:
        return run(state, StreamIo(), debug=config.debug, control=control,
                   max_steps=config.max_steps)
    finally:
        if opened is not None:
            opened.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(interpreter_main())
