"""Object code generation for the p+ stack machine.

Each block compiles to: a leading SAL over the nested procedure bodies to
its own INS (dead code for procedures, which are entered through LLA, but
the jump at address 0 is how execution reaches the main body), then the
nested procedures, then INS claiming 3 linkage cells plus one per local
variable, the body, and RET.  Variables live at frame offset 3 plus their
declaration index; every access pairs that offset with the static level
difference between the using and the declaring block.

Instructions carry optional `informacion` annotations (procedure markers,
variable references, statement notes).  The p+ format itself, with its XML
writer and reader, lives in `pcode`, which the machine shares: running a
`.p+` needs no compiler, and compiling never loads the machine.  The tree
comes from an analysis that found no error, or from the `.pl0+sem` check,
so every declaration and use carries its code; nothing here checks again.
"""

from __future__ import annotations

from .diagnostics import Diagnostic
from .parser import (Assign, BinOp, Block, Call, Cond, Ident, If, Neg, Num,
                     Program as Ast, Read, Sequence, While, Write)
from .pcode import OPERATIONS, Annotation, Instruction, Program
# The compiler's output format, reachable beside the generator.
from .pcode import program_from_xml, program_to_xml  # noqa: F401

# OPR's parameter by the name of its operation.
_OPR_PARAMS = {name: number for number, name in OPERATIONS.items()}

MAIN_LABEL = "--PRINCIPAL--"


class _Generator:
    def __init__(self):
        # What the revised tree's declarations say, by their codes: each
        # constant's value, and each variable's or procedure's declaring
        # depth, frame offset (read for variables only) and name.
        self.values: dict[str, int] = {}
        self.places: dict[str, tuple[int, int, str]] = {}
        self.code: list[Instruction] = []
        self.entries: dict[str, int] = {}   # procedure code -> INS address
        self.fixups: list[tuple[Instruction, str]] = []

    def emit(self, opcode: str, level: int | None = None,
             param: int | None = None, notes=None) -> Instruction:
        instruction = Instruction(len(self.code), opcode, level, param, notes)
        self.code.append(instruction)
        return instruction

    def operation(self, name: str) -> None:
        """OPR for the operation the tree names `name`, noted by it."""
        self.code.append(Instruction(len(self.code), "OPR", None,
                                     _OPR_PARAMS[name], [Annotation({}, name)]))

    def block(self, blk: Block, proc, depth: int) -> None:
        for const in blk.constants:
            self.values[const.code] = const.value
        for position, node in enumerate(blk.variables + blk.procedures):
            self.places[node.code] = (depth, 3 + position, node.name)
        if proc is None:
            name = MAIN_LABEL
            info = {"inicio_de_procedimiento": name, "codigo": blk.code}
        else:
            name = proc.name
            info = {"columna": str(proc.column), "linea": str(proc.line),
                    "inicio_de_procedimiento": name, "codigo": blk.code}
        jump = self.emit("SAL", None, None, [Annotation(dict(info))])
        for child in blk.procedures:
            self.block(child.block, child, depth + 1)
        jump.param = len(self.code)
        entry = self.emit("INS", None, 3 + len(blk.variables),
                          [Annotation(dict(info))])
        if proc is not None:
            self.entries[proc.code] = entry.address
        self.statement(blk.body, depth)
        self.emit("RET", None, None,
                  [Annotation({"fin_de_procedimiento": name})])

    def statement(self, node, depth: int) -> None:
        if isinstance(node, Assign):
            self.expression(node.expr, depth)
            self.access("ALM", node, depth)
        elif isinstance(node, Call):
            call = self.emit("LLA", level=depth - self.places[node.code][0])
            target = self.entries.get(node.code)
            if target is None:
                self.fixups.append((call, node.code))
            else:
                call.param = target
        elif isinstance(node, Sequence):
            for child in node.statements:
                self.statement(child, depth)
        elif isinstance(node, If):
            start = len(self.code)
            self.condition(node.condition, depth)
            branch = self.emit("SAC")
            self.statement(node.then_branch, depth)
            if node.else_branch is None:
                branch.param = len(self.code)
                note = "Inicio de condicional (if-then)"
            else:
                skip = self.emit("SAL")
                branch.param = len(self.code)
                self.statement(node.else_branch, depth)
                skip.param = len(self.code)
                note = "Inicio de condicional (if-then-else)"
            self.note_at(start, node, note)
        elif isinstance(node, While):
            start = len(self.code)
            self.condition(node.condition, depth)
            branch = self.emit("SAC")
            self.statement(node.body, depth)
            self.emit("SAL", param=start)
            branch.param = len(self.code)
            self.note_at(start, node, "Inicio de ciclo (while-do)")
        elif isinstance(node, Read):
            self.emit("LEE")
            self.access("ALM", node, depth)
        elif isinstance(node, Write):
            self.load(node, depth)
            self.emit("ESC")

    def condition(self, cond: Cond, depth: int) -> None:
        for operand in cond.operands:
            self.expression(operand, depth)
        self.operation(cond.op)

    def expression(self, node, depth: int) -> None:
        # Operands before their operator: the reverse of a pre-order walk
        # that visits the right operand first.  An explicit stack, so a
        # long flat sum does not hit Python's recursion limit.
        order = []
        stack = [node]
        while stack:
            node = stack.pop()
            order.append(node)
            if isinstance(node, BinOp):
                stack += (node.left, node.right)
            elif isinstance(node, Neg):
                stack.append(node.operand)
        for node in reversed(order):
            if isinstance(node, Num):
                self.code.append(Instruction(len(self.code), "LIT", None,
                                             node.value))
            elif isinstance(node, Ident):
                self.load(node, depth)
            elif isinstance(node, BinOp):
                self.operation(node.op)
            else:
                self.operation("negativo")

    def load(self, node, depth: int) -> None:
        """Push the value `node.code` names: LIT for a constant, CAR for a
        variable."""
        if node.code in self.values:
            self.code.append(Instruction(len(self.code), "LIT", None,
                                         self.values[node.code]))
        else:
            self.access("CAR", node, depth)

    def access(self, opcode: str, node, depth: int) -> None:
        """CAR or ALM of the variable `node.code` names, noted by it."""
        declared, offset, name = self.places[node.code]
        note = Annotation({"codigo": node.code, "linea": str(node.line),
                           "columna": str(node.column), "variable": name})
        self.code.append(Instruction(len(self.code), opcode,
                                     depth - declared, offset, [note]))

    def note_at(self, address: int, node, text: str) -> None:
        # Statement notes go before any variable note already on the
        # condition's first instruction.
        self.code[address].annotations.insert(
            0, Annotation({"linea": str(node.line),
                           "columna": str(node.column)}, text))


def generate(revised: Ast) -> tuple[Program, list[Diagnostic]]:
    """Translate a tree that analysis or the `.pl0+sem` check accepted."""
    generator = _Generator()
    generator.block(revised.block, None, 0)
    for call, code in generator.fixups:
        call.param = generator.entries[code]
    return Program(generator.code), []
