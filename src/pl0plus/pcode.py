"""The p+ object format: the records of a program, its assembly listing,
and its XML form, the `codigo_pmas` document.

A program is a list of instructions (opcode, level difference, parameter),
each with optional `informacion` annotations (procedure markers, variable
references, statement notes).  Annotations make the XML readable but are
never load-bearing: equality and execution ignore them.  `codegen` writes
programs in this format and `pvm` runs them; neither needs the other.
The instruction set and the document's checks are declared once, here:
`INSTRUCTIONS` gives each instruction's element and attributes,
`OPERATIONS` numbers OPR's operations, which the others look up by name,
and `instruction_reader` checks for `program_from_xml` and `pvm.load`.
"""

from __future__ import annotations

from xml.parsers.expat import ParserCreate

from .xmldoc import (ATTR_SPECIAL, DECLARATION, Integers, Record,
                     XmlLoadError, cdata_line, element_text, escape_attr,
                     escape_text, indent, int_attr, read_document)

# The instruction set, keyed by mnemonic: each instruction's element in
# the `codigo_pmas` document, whether it takes `diffnivel` and
# `parametro`, and whether its `parametro` is a code address.
INSTRUCTIONS = {
    "LIT": ("cargar_literal", False, True, False),
    "CAR": ("cargar_variable", True, True, False),
    "ALM": ("almacenar_variable", True, True, False),
    "LLA": ("llamar_procedimiento", True, True, True),
    "INS": ("instanciar_procedimiento", False, True, False),
    "SAL": ("salto_incondicional", False, True, True),
    "SAC": ("salto_condicional", False, True, True),
    "OPR": ("operacion", False, True, False),
    "RET": ("retornar", False, False, False),
    "LEE": ("leer", False, False, False),
    "ESC": ("escribir", False, False, False),
}

# OPR's parameter, mapped to the operation it performs, named as the syntax
# tree names it (`negativo` is the unary minus).  The generator writes that
# name as the instruction's `informacion` text.
OPERATIONS = {1: "negativo", 2: "suma", 3: "resta", 4: "multiplicacion",
              5: "division", 6: "odd", 8: "comparacion", 9: "diferente",
              10: "menor_que", 11: "mayor_igual", 12: "mayor_que",
              13: "menor_igual"}

# INSTRUCTIONS by element, with the mnemonic in place of the element, for
# instruction_reader.
_BY_ELEMENT = {element: (mnemonic, *form)
               for mnemonic, (element, *form) in INSTRUCTIONS.items()}


class Annotation(Record):
    __slots__ = ("attributes", "text")

    def __init__(self, attributes: dict[str, str] | None = None,
                 text: str | None = None):
        self.attributes = {} if attributes is None else attributes
        self.text = text


class Instruction(Record):
    __slots__ = ("address", "opcode", "level", "param", "annotations")
    _uncompared = ("annotations",)

    def __init__(self, address: int, opcode: str, level: int | None = None,
                 param: int | None = None,
                 annotations: list[Annotation] | None = None):
        self.address = address
        self.opcode = opcode
        self.level = level
        self.param = param
        self.annotations = [] if annotations is None else annotations


class Program(Record):
    __slots__ = ("instructions",)

    def __init__(self, instructions: list[Instruction]):
        self.instructions = instructions


# ---------------------------------------------------------------------------
# Assembly listing

_LEVEL_END = 12    # column where the level field ends
_PARAM_START = 22  # column where the parameter field starts


def format_instruction(instruction: Instruction) -> str:
    """One listing line: address, mnemonic, level or -, parameter or -."""
    level = "-" if instruction.level is None else str(instruction.level)
    param = "-" if instruction.param is None else str(instruction.param)
    head = f"{instruction.address} {instruction.opcode} "
    line = head.ljust(_LEVEL_END - len(level)) + level
    return line.ljust(_PARAM_START - 1) + " " + param


def assembly_listing(program: Program) -> str:
    return "".join([format_instruction(instruction) + "\n"
                    for instruction in program.instructions])


# ---------------------------------------------------------------------------
# XML form

ROOT_NAME = "codigo_pmas"


def program_to_xml(program: Program, source: str | None = None) -> str:
    """The `codigo_pmas` document's text: the instructions with their
    annotations, the listing, then `fuente` when a source is given."""
    lines = [DECLARATION, f"<{ROOT_NAME}>"]
    pad, inner = indent(1), indent(2)
    special = ATTR_SPECIAL.search
    for instruction in program.instructions:
        name = INSTRUCTIONS[instruction.opcode][0]
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
            info = f"{inner}<informacion"
            for key, value in annotation.attributes.items():
                if special(value):
                    value = escape_attr(value)
                info += f' {key}="{value}"'
            if annotation.text is None:
                lines.append(info + "/>")
            else:
                lines.append(f"{info}>{escape_text(annotation.text)}"
                             f"</informacion>")
        lines.append(f"{pad}</{name}>")
    lines.append(cdata_line(1, "ensamblador", assembly_listing(program)))
    if source is not None:
        lines.append(cdata_line(1, "fuente", source))
    lines.append(f"</{ROOT_NAME}>")
    return "\n".join(lines)


def check_root(name: str) -> None:
    if name != ROOT_NAME:
        raise XmlLoadError(
            f"se esperaba el elemento '{ROOT_NAME}', no '{name}'")


def instruction_reader(read: list) -> tuple:
    """For a reader that collects instructions in `read`: a function that
    gives the address, mnemonic, level and parameter of a `codigo_pmas`
    child, None for `ensamblador` and `fuente`, or raises for its first
    fault (name, `direccion`, `diffnivel`, `parametro`, OPR's code); and
    one that raises, once all is read, for the first jump out of range."""
    ints = Integers()
    jumps = []   # (address, parameter) of each jump and call

    def read_instruction(name, attributes):
        form = _BY_ELEMENT.get(name)
        if form is None:
            if name == "fuente" or name == "ensamblador":
                return None
            raise XmlLoadError(f"instrucción desconocida: '{name}'")
        opcode, leveled, with_param, jump = form
        address = len(read)
        if attributes.get("direccion") != str(address):
            found = int_attr(name, attributes, "direccion")
            if found != address:
                raise XmlLoadError(f"direcciones no consecutivas: se "
                                   f"esperaba {address} y aparece {found}")
        level = param = None
        if leveled:
            level = ints[attributes.get("diffnivel")]
            if level is None:
                int_attr(name, attributes, "diffnivel")
        elif "diffnivel" in attributes:
            raise XmlLoadError(f"'{name}' no admite el atributo 'diffnivel'")
        if with_param:
            param = ints[attributes.get("parametro")]
            if param is None:
                int_attr(name, attributes, "parametro")
        elif "parametro" in attributes:
            raise XmlLoadError(f"'{name}' no admite el atributo 'parametro'")
        if jump:
            jumps.append((address, param))
        elif opcode == "OPR" and param not in OPERATIONS:
            raise XmlLoadError(f"código de operación inválido: {param}")
        return address, opcode, level, param

    def check_jumps():
        for address, target in jumps:
            if not 0 <= target < len(read):
                raise XmlLoadError(f"salto fuera de rango en la dirección "
                                   f"{address}: {target}")

    return read_instruction, check_jumps


def program_from_xml(text: str) -> tuple[Program, str | None]:
    """Inverse of program_to_xml: the program, and the `fuente` text when
    the document carries it.  Annotations are carried along but the
    `ensamblador` text is not consulted; the instruction elements alone
    define the program.  An `informacion` written as an empty-element tag
    has no text (None), one with an end tag has its text, maybe ""."""
    instructions: list[Instruction] = []
    read_instruction, check_jumps = instruction_reader(instructions)
    source = None
    depth = 0  # of the open elements; instructions are at 2
    notes = None  # the annotations of the instruction element being read
    pieces = None  # the text of the `informacion` open at 3; expat adds it
    sections = None  # of the `fuente` being read
    new = object.__new__
    parser = ParserCreate()
    raw = text.encode()  # what expat's byte positions count

    def start(name, attributes):
        nonlocal depth, notes, pieces, sections
        depth += 1
        if depth == 2:
            fields = read_instruction(name, attributes)
            if fields is None:
                notes = None
                if name == "fuente":
                    sections = []
                return
            # Built field by field: __init__ would cost as much again.
            instruction = new(Instruction)
            (instruction.address, instruction.opcode, instruction.level,
             instruction.param) = fields
            instruction.annotations = notes = []
            instructions.append(instruction)
        elif depth == 3:
            if notes is not None and name == "informacion":
                pieces = []
                parser.CharacterDataHandler = pieces.append
                annotation = new(Annotation)
                annotation.attributes = attributes
                annotation.text = None
                notes.append(annotation)
        elif depth == 1:
            check_root(name)
        elif depth == 4 and pieces is not None:
            pieces.append(None)
            parser.CharacterDataHandler = None

    def end(name):
        nonlocal depth, pieces, sections, source
        depth -= 1
        if depth == 1:
            if sections is not None:
                source = "".join(sections)
                sections = None
        elif depth == 2:
            if pieces is not None:
                parser.CharacterDataHandler = None
                if pieces:
                    notes[-1].text = element_text(pieces)
                elif raw.startswith(b"</informacion", parser.CurrentByteIndex):
                    notes[-1].text = ""
                pieces = None
        elif depth == 3 and pieces is not None:
            parser.CharacterDataHandler = pieces.append

    def cdata(data):
        if depth == 3:
            if pieces is not None:
                pieces.append(None)
        elif depth == 2 and sections is not None:
            sections.append(data)

    read_document(text, start, end, cdata=cdata, parser=parser)
    check_jumps()
    return Program(instructions), source
