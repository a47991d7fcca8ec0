"""Lexical analysis: pl0+ source text to a token list, and its XML form.

Tokens remember exactly where they came from (1-based line, 0-based column,
length in characters) so later phases can report positions without ever
looking at the source again.
"""

from __future__ import annotations

import re
from enum import Enum, unique

from .diagnostics import Diagnostic, error
from .xmldoc import (DECLARATION, Record, XmlLoadError, cdata_line,
                     escape_attr, indent, int_attr, read_document, str_attr)

MAX_NUMBER = 2**31 - 1


@unique
class TokenKind(Enum):
    """Token kinds; the member value doubles as the XML element name."""

    # reserved words
    BEGIN = "BEGIN"
    CALL = "CALL"
    CONST = "CONST"
    DO = "DO"
    END = "END"
    IF = "IF"
    ODD = "ODD"
    PROCEDURE = "PROCEDURE"
    THEN = "THEN"
    VAR = "VAR"
    WHILE = "WHILE"
    ELSE = "ELSE"
    WRITE = "WRITE"
    READ = "READ"
    # symbols
    IGUAL = "igual"
    ASIGNACION = "asignacion"
    COMA = "coma"
    PUNTO_Y_COMA = "punto_y_coma"
    PARENTESIS_APERTURA = "parentesis_apertura"
    PARENTESIS_CIERRE = "parentesis_cierre"
    DIFERENTE = "diferente"
    MENOR_QUE = "menor_que"
    MAYOR_QUE = "mayor_que"
    MENOR_IGUAL = "menor_igual"
    MAYOR_IGUAL = "mayor_igual"
    MAS = "mas"
    MENOS = "menos"
    POR = "por"
    ENTRE = "entre"
    PUNTO = "punto"
    # open classes
    IDENTIFICADOR = "IDENTIFICADOR"
    NUMERO = "NUMERO"


_KEYWORD_KINDS = (
    TokenKind.BEGIN, TokenKind.CALL, TokenKind.CONST, TokenKind.DO,
    TokenKind.END, TokenKind.IF, TokenKind.ODD, TokenKind.PROCEDURE,
    TokenKind.THEN, TokenKind.VAR, TokenKind.WHILE, TokenKind.ELSE,
    TokenKind.WRITE, TokenKind.READ,
)

# Reserved words are recognized in lowercase only; identifiers are
# case-sensitive, so e.g. `Begin` is an ordinary identifier.
KEYWORDS = {kind.value.lower(): kind for kind in _KEYWORD_KINDS}

SYMBOL_TEXT = {
    TokenKind.IGUAL: "=",
    TokenKind.ASIGNACION: ":=",
    TokenKind.COMA: ",",
    TokenKind.PUNTO_Y_COMA: ";",
    TokenKind.PARENTESIS_APERTURA: "(",
    TokenKind.PARENTESIS_CIERRE: ")",
    TokenKind.DIFERENTE: "<>",
    TokenKind.MENOR_QUE: "<",
    TokenKind.MAYOR_QUE: ">",
    TokenKind.MENOR_IGUAL: "<=",
    TokenKind.MAYOR_IGUAL: ">=",
    TokenKind.MAS: "+",
    TokenKind.MENOS: "-",
    TokenKind.POR: "*",
    TokenKind.ENTRE: "/",
    TokenKind.PUNTO: ".",
}

_SYMBOL_KINDS = {text: kind for kind, text in SYMBOL_TEXT.items()}

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

_KIND_BY_ELEMENT = {kind.value: kind for kind in TokenKind}


class Token(Record):
    __slots__ = ("kind", "line", "column", "length", "name", "value")

    def __init__(self, kind: TokenKind, line: int, column: int, length: int,
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
                tokens.append(Token(TokenKind.IDENTIFICADOR, line, column,
                                    len(text), name=text))
        elif group == "number":
            # A nonzero digit before the last ten makes the value too
            # large, so int() never reads more than ten digits.
            value = (MAX_NUMBER + 1 if any(map(int, text[:-10]))
                     else int(text[-10:]))
            if value > MAX_NUMBER:
                diags.append(error("lex", line, column,
                                   "Número demasiado grande"))
                value = MAX_NUMBER
            tokens.append(Token(TokenKind.NUMERO, line, column, len(text),
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
        if kind is TokenKind.IDENTIFICADOR:
            attrs = f' nombre="{escape_attr(tok.name)}"'
        elif kind is TokenKind.NUMERO:
            attrs = f' valor="{tok.value}"'
        else:
            attrs = ""
        lines.append(f'{pad}<{kind._value_}{attrs} linea="{tok.line}" '
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
        kind = _KIND_BY_ELEMENT.get(name)
        if kind is None:
            raise XmlLoadError(f"lexema desconocido: '{name}'")
        line = int_attr(name, attributes, "linea")
        column = int_attr(name, attributes, "columna")
        length = int_attr(name, attributes, "longitud")
        if kind is TokenKind.IDENTIFICADOR:
            tokens.append(Token(kind, line, column, length,
                                name=str_attr(name, attributes, "nombre")))
        elif kind is TokenKind.NUMERO:
            tokens.append(Token(kind, line, column, length,
                                value=int_attr(name, attributes, "valor")))
        else:
            tokens.append(Token(kind, line, column, length))

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
