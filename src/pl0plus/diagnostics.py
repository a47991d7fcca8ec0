"""Error and warning bookkeeping shared by all phases.

Every phase appends Diagnostic records to one flat list; the driver sorts
them once at the end and renders them either as text blocks on standard
output or, on request, as the text of an `errores_y_advertencias` XML
document, written in the house style with no tree between.
All user-facing message text is Spanish.
"""

from __future__ import annotations

from .xmldoc import (DECLARATION, NOT_XML, Record, cdata_line, escape_text,
                     indent)

ERROR = "error"
WARNING = "warning"

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
        if phase not in PHASE_DESCRIPTIONS:
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


def newlines(text: str) -> str:
    """`text` with each `\r\n` and each lone `\r` made `\n`: a source's
    lines end as XML ends them."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text \
        else text


def attach_context(items, source: str) -> None:
    lines = newlines(source).split("\n")
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
        # The caret points into the line above it, never past its end.
        lines.append("-" * min(item.column, len(item.context)) + "^")
    return "\n".join(lines) + ("\n" if items else "")


def render_xml(items) -> str:
    """The `-x` report's text, in the house style of the phase documents.
    Both the `errores` and `advertencias` groups are always present; each
    finding is an `error` element either way."""
    lines = [DECLARATION, "<errores_y_advertencias>"]
    for severity, group in ((ERROR, "errores"), (WARNING, "advertencias")):
        found = [item for item in items if item.severity == severity]
        if not found:
            lines.append(f"{indent(1)}<{group}/>")
            continue
        lines.append(f"{indent(1)}<{group}>")
        for item in found:
            lines += [
                f'{indent(2)}<error columna="{item.column}" '
                f'linea="{item.line}">',
                f"{indent(3)}<mensaje>{escape_text(item.message)}</mensaje>",
                # A source line may hold a character XML cannot carry.
                cdata_line(3, "contexto", NOT_XML.sub("\ufffd", item.context)),
                f'{indent(3)}<fase nombre="{item.phase}">'
                f"{PHASE_DESCRIPTIONS[item.phase]}</fase>",
                f"{indent(2)}</error>"]
        lines.append(f"{indent(1)}</{group}>")
    lines.append("</errores_y_advertencias>")
    return "\n".join(lines)
