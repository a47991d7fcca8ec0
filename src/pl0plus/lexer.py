"""Lexical analysis: pl0+ source text to a token list, and its XML form.

Tokens remember exactly where they came from (1-based line, 0-based column,
length in characters) so later phases can report positions without ever
looking at the source again.
"""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, error
from .xmldoc import (DECLARATION, NOT_XML, Integers, Record, XmlLoadError,
                     cdata_line, escape_attr, indent, int_attr, read_document,
                     str_attr)

MAX_NUMBER = 2**31 - 1


# Reserved words are recognized in lowercase only; identifiers are
# case-sensitive, so e.g. `Begin` is an ordinary identifier.
KEYWORDS = {word: word.upper() for word in (
    "begin", "call", "const", "do", "end", "if", "odd", "procedure", "then",
    "var", "while", "else", "write", "read")}

SYMBOL_TEXT = {
    "igual": "=",
    "asignacion": ":=",
    "coma": ",",
    "punto_y_coma": ";",
    "parentesis_apertura": "(",
    "parentesis_cierre": ")",
    "diferente": "<>",
    "menor_que": "<",
    "mayor_que": ">",
    "menor_igual": "<=",
    "mayor_igual": ">=",
    "mas": "+",
    "menos": "-",
    "por": "*",
    "entre": "/",
    "punto": ".",
}

_SYMBOL_KINDS = {text: kind for kind, text in SYMBOL_TEXT.items()}

# A token's kind is the name of its element in the `lexemas` document.
KINDS = {*KEYWORDS.values(), *SYMBOL_TEXT, "IDENTIFICADOR", "NUMERO"}

# One alternative per lexical class, tried in order at each position, so
# a comment opener wins over `(`, and two-character symbols (listed
# longest first) over their one-character prefixes.  Comments are
# `(* ... *)` and `{ ... }`; they do not nest, and each form ignores the
# other's delimiters.  An unterminated comment swallows the rest of the
# input.  `\d` is exactly the digits `int()` reads.  Only `space` and the
# comments can span lines.
_TOKEN_PATTERNS = (
    ("space", r"[ \t\r\n]+"),
    ("comment", r"\(\*.*?\*\)|\{[^}]*\}"),
    ("unclosed", r"\(\*.*|\{.*"),
    ("word", r"[A-Za-z][A-Za-z\d_]*"),
    ("number", r"\d+"),
    ("symbol", "|".join(re.escape(text) for text in
                        sorted(SYMBOL_TEXT.values(), key=len, reverse=True))),
    ("invalid", "."),
)
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})"
                                for name, pattern in _TOKEN_PATTERNS),
                       re.DOTALL)


class Token(Record):
    __slots__ = ("kind", "line", "column", "length", "name", "value")

    def __init__(self, kind: str, line: int, column: int, length: int,
                 name: str | None = None, value: int | None = None):
        self.kind = kind
        self.line = line
        self.column = column
        self.length = length
        self.name = name    # IDENTIFICADOR only
        self.value = value  # NUMERO only


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Scan the whole source with maximal munch.

    Lexical errors never abort the scan: an invalid character is skipped,
    an oversized number is clamped to 2**31 - 1, and an unterminated
    comment is reported at the position where it opened.
    """
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        text = match.group()
        column = match.start() - line_start
        if group == "word":
            kind = KEYWORDS.get(text)
            if kind is not None:
                tokens.append(Token(kind, line, column, len(text)))
            else:
                tokens.append(Token("IDENTIFICADOR", line, column, len(text),
                                    name=text))
        elif group == "number":
            # A nonzero digit before the last ten makes the value too
            # large, so int() never reads more than ten digits.
            value = (MAX_NUMBER + 1 if any(map(int, text[:-10]))
                     else int(text[-10:]))
            if value > MAX_NUMBER:
                diags.append(error("lex", line, column,
                                   "Número demasiado grande"))
                value = MAX_NUMBER
            tokens.append(Token("NUMERO", line, column, len(text),
                                value=value))
        elif group == "symbol":
            tokens.append(Token(_SYMBOL_KINDS[text], line, column,
                                len(text)))
        elif group == "invalid":
            diags.append(error("lex", line, column, "Caracter inválido."))
        else:
            if group == "unclosed":
                diags.append(error("lex", line, column,
                                   "Comentario sin cerrar"))
            if group != "space":
                # The `fuente` of every phase document carries comments,
                # so a character XML cannot carry is invalid there too.
                for bad in NOT_XML.finditer(text):
                    at = match.start() + bad.start()
                    diags.append(error(
                        "lex", line + text.count("\n", 0, bad.start()),
                        at - source.rfind("\n", 0, at) - 1,
                        "Caracter inválido."))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
    return tokens, diags


# ---------------------------------------------------------------------------
# XML representation (`lexemas`)


def tokens_to_xml(tokens, source: str | None = None) -> str:
    """The `lexemas` document's text: the tokens, then `fuente` if given."""
    lines = [DECLARATION, "<lexemas>"]
    pad = indent(1)
    for tok in tokens:
        kind = tok.kind
        if kind == "IDENTIFICADOR":
            attrs = f' nombre="{escape_attr(tok.name)}"'
        elif kind == "NUMERO":
            attrs = f' valor="{tok.value}"'
        else:
            attrs = ""
        lines.append(f'{pad}<{kind}{attrs} linea="{tok.line}" '
                     f'columna="{tok.column}" longitud="{tok.length}"/>')
    if source is not None:
        lines.append(cdata_line(1, "fuente", source))
    if len(lines) == 2:
        return f"{DECLARATION}\n<lexemas/>"
    lines.append("</lexemas>")
    return "\n".join(lines)


def tokens_from_xml(text: str) -> tuple[list[Token], str | None]:
    """Rebuild a token list from a `lexemas` document's text.

    Returns the recovered source text as well when the document carries a
    `fuente` section.
    """
    tokens: list[Token] = []
    source: str | None = None
    sections: list[str] | None = None  # of the `fuente` being read
    depth = 0  # of the open elements; tokens are at 2, below the root
    ints = Integers()

    def start(name, attributes):
        nonlocal depth, sections
        depth += 1
        if depth != 2:
            if depth == 1 and name != "lexemas":
                raise XmlLoadError(f"se esperaba el elemento raíz 'lexemas', "
                                   f"no '{name}'")
            return
        if name == "fuente":
            sections = []
            return
        if name not in KINDS:
            raise XmlLoadError(f"lexema desconocido: '{name}'")
        line = (ints[attributes.get("linea")]
                or int_attr(name, attributes, "linea"))
        column = (ints[attributes.get("columna")]
                  or int_attr(name, attributes, "columna"))
        length = (ints[attributes.get("longitud")]
                  or int_attr(name, attributes, "longitud"))
        if name == "IDENTIFICADOR":
            tokens.append(Token(name, line, column, length,
                                name=str_attr(name, attributes, "nombre")))
        elif name == "NUMERO":
            tokens.append(Token(name, line, column, length,
                                value=int_attr(name, attributes, "valor")))
        else:
            tokens.append(Token(name, line, column, length))

    def end(name):
        nonlocal depth, sections, source
        depth -= 1
        if depth == 1 and sections is not None:
            source = "".join(sections)
            sections = None

    def cdata(data):
        if depth == 2 and sections is not None:
            sections.append(data)

    read_document(text, start, end, cdata=cdata)
    return tokens, source
