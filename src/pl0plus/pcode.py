"""The p+ object format: the records of a program, its assembly listing,
and its XML form, the `codigo_pmas` document.

A program is a list of instructions (opcode, level difference, parameter),
each with optional `informacion` annotations (procedure markers, variable
references, statement notes).  Annotations make the XML readable but are
never load-bearing: equality and execution ignore them.  `codegen` writes
programs in this format and `pvm` runs them; neither needs the other.
"""

from __future__ import annotations

from enum import Enum

from xml.parsers.expat import ParserCreate

from .xmldoc import (DECLARATION, Record, XmlLoadError, cdata_line,
                     check_name, element_text, escape_attr, escape_text,
                     indent, int_attr, read_document)

class Opcode(Enum):
    LIT = "LIT"
    CAR = "CAR"
    ALM = "ALM"
    LLA = "LLA"
    INS = "INS"
    SAL = "SAL"
    SAC = "SAC"
    OPR = "OPR"
    RET = "RET"
    LEE = "LEE"
    ESC = "ESC"


LEVEL_OPCODES = frozenset({Opcode.CAR, Opcode.ALM, Opcode.LLA})
PARAMLESS_OPCODES = frozenset({Opcode.RET, Opcode.LEE, Opcode.ESC})
JUMP_OPCODES = frozenset({Opcode.SAL, Opcode.SAC, Opcode.LLA})

OPR_CODES = frozenset({1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13})

# Keyed by mnemonic, `opcode._value_`: hashing an Enum member runs Python.
_ELEMENT_NAMES = {
    "LIT": "cargar_literal",
    "CAR": "cargar_variable",
    "ALM": "almacenar_variable",
    "LLA": "llamar_procedimiento",
    "INS": "instanciar_procedimiento",
    "SAL": "salto_incondicional",
    "SAC": "salto_condicional",
    "OPR": "operacion",
    "RET": "retornar",
    "LEE": "leer",
    "ESC": "escribir",
}
# Per instruction element, read once here since hashing an Enum member
# runs Python: the opcode, whether it takes a level difference and a
# parameter, and whether the parameter is a code address.
_INSTRUCTION_FORMS = {
    name: (opcode, opcode in LEVEL_OPCODES, opcode not in PARAMLESS_OPCODES,
           opcode in JUMP_OPCODES)
    for opcode, name in ((Opcode(op), name)
                         for op, name in _ELEMENT_NAMES.items())}


class Annotation(Record):
    __slots__ = ("attributes", "text")

    def __init__(self, attributes: dict[str, str] | None = None,
                 text: str | None = None):
        self.attributes = {} if attributes is None else attributes
        self.text = text


class Instruction(Record):
    __slots__ = ("address", "opcode", "level", "param", "annotations")
    _uncompared = ("annotations",)

    def __init__(self, address: int, opcode: Opcode, level: int | None = None,
                 param: int | None = None,
                 annotations: list[Annotation] | None = None):
        self.address = address
        self.opcode = opcode
        self.level = level
        self.param = param
        self.annotations = [] if annotations is None else annotations


class Program(Record):
    __slots__ = ("instructions", "source")
    _uncompared = ("source",)

    def __init__(self, instructions: list[Instruction],
                 source: str | None = None):
        self.instructions = instructions
        self.source = source


# ---------------------------------------------------------------------------
# Assembly listing

_LEVEL_END = 12    # column where the level field ends
_PARAM_START = 22  # column where the parameter field starts


def format_instruction(instruction: Instruction) -> str:
    """One listing line: address, mnemonic, level or -, parameter or -."""
    level = "-" if instruction.level is None else str(instruction.level)
    param = "-" if instruction.param is None else str(instruction.param)
    head = f"{instruction.address} {instruction.opcode._value_} "
    line = head.ljust(_LEVEL_END - len(level)) + level
    return line.ljust(_PARAM_START - 1) + " " + param


def assembly_listing(program: Program) -> str:
    return "".join([format_instruction(instruction) + "\n"
                    for instruction in program.instructions])


# ---------------------------------------------------------------------------
# XML form

ROOT_NAME = "codigo_pmas"


def program_to_xml(program: Program) -> str:
    """The `codigo_pmas` document's text: the instructions with their
    annotations, the listing, then `fuente` if the program has a source."""
    lines = [DECLARATION, f"<{ROOT_NAME}>"]
    pad, inner = indent(1), indent(2)
    keys = set()  # of the annotations' attributes, checked once at the end
    for instruction in program.instructions:
        name = _ELEMENT_NAMES[instruction.opcode._value_]
        head = f'{pad}<{name} direccion="{instruction.address}"'
        if instruction.level is not None:
            head += f' diffnivel="{instruction.level}"'
        if instruction.param is not None:
            head += f' parametro="{instruction.param}"'
        if not instruction.annotations:
            lines.append(head + "/>")
            continue
        lines.append(head + ">")
        for annotation in instruction.annotations:
            keys.update(annotation.attributes)
            info = f"{inner}<informacion" + "".join([
                f' {key}="{escape_attr(str(value))}"'
                for key, value in annotation.attributes.items()])
            if annotation.text is None:
                lines.append(info + "/>")
            else:
                lines.append(f"{info}>{escape_text(annotation.text)}"
                             f"</informacion>")
        lines.append(f"{pad}</{name}>")
    lines.append(cdata_line(1, "ensamblador", assembly_listing(program)))
    if program.source is not None:
        lines.append(cdata_line(1, "fuente", program.source))
    lines.append(f"</{ROOT_NAME}>")
    for key in keys:
        check_name(key)
    return "\n".join(lines)


def program_from_xml(text: str) -> Program:
    """Inverse of program_to_xml.  Annotations are carried along but the
    `ensamblador` text is not consulted; the instruction elements alone
    define the program.  An `informacion` written as an empty-element tag
    has no text (None), one with an end tag has its text, maybe ""."""
    instructions: list[Instruction] = []
    jumps: list[Instruction] = []
    source = None
    depth = 0  # of the open elements; instructions are at 2
    notes = None  # the annotations of the instruction element being read
    pieces = None  # of the text of the `informacion` being read, at 3
    sections = None  # of the `fuente` being read
    parser = ParserCreate()
    raw = text.encode()  # what expat's byte positions count

    def start(name, attributes):
        nonlocal depth, notes, pieces, sections
        depth += 1
        if depth == 3:
            if notes is not None and name == "informacion":
                pieces = []
                notes.append(Annotation(attributes))
            return
        if depth != 2:
            if depth == 1 and name != ROOT_NAME:
                raise XmlLoadError(
                    f"se esperaba el elemento '{ROOT_NAME}', no '{name}'")
            elif depth == 4 and pieces is not None:
                pieces.append(None)
            return
        if name == "ensamblador":
            return
        if name == "fuente":
            sections = []
            return
        form = _INSTRUCTION_FORMS.get(name)
        if form is None:
            raise XmlLoadError(f"instrucción desconocida: '{name}'")
        opcode, leveled, with_param, jump = form
        address = int_attr(name, attributes, "direccion")
        if address != len(instructions):
            raise XmlLoadError(
                f"direcciones no consecutivas: se esperaba "
                f"{len(instructions)} y aparece {address}")
        level = None
        if leveled:
            level = int_attr(name, attributes, "diffnivel")
        elif "diffnivel" in attributes:
            raise XmlLoadError(f"'{name}' no admite el atributo 'diffnivel'")
        param = None
        if with_param:
            param = int_attr(name, attributes, "parametro")
        elif "parametro" in attributes:
            raise XmlLoadError(f"'{name}' no admite el atributo 'parametro'")
        if opcode is Opcode.OPR and param not in OPR_CODES:
            raise XmlLoadError(f"código de operación inválido: {param}")
        notes = []
        instruction = Instruction(address, opcode, level, param, notes)
        instructions.append(instruction)
        if jump:
            jumps.append(instruction)

    def end(name):
        nonlocal depth, notes, pieces, sections, source
        depth -= 1
        if depth == 2:
            if pieces is not None:
                if pieces:
                    notes[-1].text = element_text(pieces)
                elif raw.startswith(b"</informacion", parser.CurrentByteIndex):
                    notes[-1].text = ""
                pieces = None
        elif depth == 1:
            notes = None
            if sections is not None:
                source = "".join(sections)
                sections = None

    def chars(data):
        if depth == 3 and pieces is not None:
            pieces.append(data)

    def cdata(data):
        if depth == 3:
            if pieces is not None:
                pieces.append(None)
        elif depth == 2 and sections is not None:
            sections.append(data)

    read_document(text, start, end, chars, cdata, parser)
    for instruction in jumps:
        if not 0 <= instruction.param < len(instructions):
            raise XmlLoadError(
                f"salto fuera de rango en la dirección "
                f"{instruction.address}: {instruction.param}")
    return Program(instructions, source)
