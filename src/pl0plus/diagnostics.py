"""Error and warning bookkeeping shared by all phases.

Every phase appends Diagnostic records to one flat list; the driver sorts
them once at the end and renders them either as text blocks on standard
output or, on request, as an `errores_y_advertencias` XML document.
All user-facing message text is Spanish.
"""

from __future__ import annotations

from .xmldoc import Record, Text, XmlDocument, XmlNode, cdata_element

ERROR = "error"
WARNING = "warning"

PHASES = ("lex", "sin", "sem", "gen")

PHASE_DESCRIPTIONS = {
    "lex": "Fase de análisis léxico",
    "sin": "Fase de análisis sintáctico",
    "sem": "Fase de análisis semántico",
    "gen": "Fase de generación de código",
}


class Diagnostic(Record):
    """One finding: where it happened, which phase saw it, and what it says.

    Lines are 1-based, columns 0-based.  `context` holds the offending
    source line once the driver attaches it; it stays empty when the source
    text is not available (e.g. when re-entering from a tree file that
    carries no `fuente`).
    """

    __slots__ = ("severity", "phase", "line", "column", "message", "context")

    def __init__(self, severity: str, phase: str, line: int, column: int,
                 message: str, context: str = ""):
        if severity not in (ERROR, WARNING):
            raise ValueError(f"unknown severity: {severity!r}")
        if phase not in PHASES:
            raise ValueError(f"unknown phase: {phase!r}")
        self.severity = severity
        self.phase = phase
        self.line = line
        self.column = column
        self.message = message
        self.context = context


def error(phase: str, line: int, column: int, message: str) -> Diagnostic:
    return Diagnostic(ERROR, phase, line, column, message)


def warning(phase: str, line: int, column: int, message: str) -> Diagnostic:
    return Diagnostic(WARNING, phase, line, column, message)


def has_errors(items) -> bool:
    return any(d.severity == ERROR for d in items)


def sort_diagnostics(items) -> list[Diagnostic]:
    """All errors before all warnings, each group by (line, column), stable."""
    return sorted(items, key=lambda d: (d.severity != ERROR, d.line, d.column))


def attach_context(items, source: str) -> None:
    lines = source.split("\n")
    for item in items:
        if 1 <= item.line <= len(lines):
            item.context = lines[item.line - 1]


def render_text(items) -> str:
    """The five-line terminal block per finding:

        ERROR*****
        Fase de origen:lex
        Línea 4: Caracter inválido.
            i := 2 % 4;
        -----------^
    """
    lines = []
    for item in items:
        header = "ERROR" if item.severity == ERROR else "ADVERTENCIA"
        lines.append(f"{header}*****")
        lines.append(f"Fase de origen:{item.phase}")
        lines.append(f"Línea {item.line}: {item.message}")
        lines.append(item.context)
        lines.append("-" * item.column + "^")
    return "\n".join(lines) + ("\n" if items else "")


def render_xml(items) -> XmlDocument:
    """The `-x` report.  Both the `errores` and `advertencias` groups are
    always present; each finding is an `error` element either way."""
    root = XmlNode("errores_y_advertencias")
    groups = {
        ERROR: root.element("errores"),
        WARNING: root.element("advertencias"),
    }
    for item in items:
        node = groups[item.severity].element(
            "error", columna=item.column, linea=item.line)
        node.element("mensaje").add(Text(item.message))
        node.add(cdata_element("contexto", item.context))
        node.element("fase", nombre=item.phase).add(
            Text(PHASE_DESCRIPTIONS[item.phase]))
    return XmlDocument(root)
