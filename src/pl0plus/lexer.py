"""Lexical analysis: pl0+ source text to a token list, and its XML form.

Tokens remember exactly where they came from (1-based line, 0-based column,
length in characters) so later phases can report positions without ever
looking at the source again.
"""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, error, newlines
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

# A match is the spaces and tabs before a token, then one alternative per
# lexical class, tried in order, so a comment opener wins over `(`, and
# two-character symbols (longest first) over their prefixes.  A line
# break (`tokenize` makes each line end `\n`) takes the space after it.
# Comments are `(* ... *)` and `{ ... }`; they do not nest, and each form
# ignores the other's delimiters.  An unterminated comment swallows the
# rest of the input.
# `\d` is exactly the digits `int()` reads.
_TOKEN_PATTERNS = (
    ("word", r"[A-Za-z][A-Za-z\d_]*"),
    ("comment", r"\(\*.*?\*\)|\{[^}]*\}"),
    ("unclosed", r"\(\*.*|\{.*"),
    ("number", r"\d+"),
    ("symbol", "|".join(re.escape(text) for text in
                        sorted(SYMBOL_TEXT.values(), key=len, reverse=True))),
    ("newline", r"\n[ \t\n]*"),
    ("invalid", "."),
)
_TOKEN_RE = re.compile("[ \t]*(?:" + "|".join(
    f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_PATTERNS) + ")",
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
    comment is reported at the position where it opened.  `\r\n`, a lone
    `\r` and `\n` each end one line, as in XML.
    """
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0
    # No match takes the space that ends the input.
    source = newlines(source).rstrip(" \t")
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        text = match[group]
        column = match.start(group) - line_start
        if group == "word":
            kind = KEYWORDS.get(text)
            if kind is None:
                tokens.append(Token("IDENTIFICADOR", line, column, len(text),
                                    text))
            else:
                tokens.append(Token(kind, line, column, len(text)))
        elif group == "symbol":
            tokens.append(Token(_SYMBOL_KINDS[text], line, column, len(text)))
        elif group == "number":
            # A nonzero digit before the last ten makes the value too
            # large, so int() never reads more than ten digits.
            value = (MAX_NUMBER + 1 if any(map(int, text[:-10]))
                     else int(text[-10:]))
            if value > MAX_NUMBER:
                diags.append(error("lex", line, column,
                                   "Número demasiado grande"))
                value = MAX_NUMBER
            tokens.append(Token("NUMERO", line, column, len(text), None,
                                value))
        elif group == "invalid":
            diags.append(error("lex", line, column, "Caracter inválido."))
        else:
            if group != "newline":
                if group == "unclosed":
                    diags.append(error("lex", line, column,
                                       "Comentario sin cerrar"))
                # The `fuente` of every phase document carries comments,
                # so a character XML cannot carry is invalid there too.
                for bad in NOT_XML.finditer(text):
                    at = line_start + column + bad.start()
                    diags.append(error(
                        "lex", line + text.count("\n", 0, bad.start()),
                        at - source.rfind("\n", 0, at) - 1,
                        "Caracter inválido."))
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start += column + text.rindex("\n") + 1
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
    new = object.__new__

    def start(name, attributes):
        nonlocal depth, sections
        depth += 1
        if depth != 2:
            if depth == 1 and name != "lexemas":
                raise XmlLoadError(f"se esperaba el elemento raíz 'lexemas', "
                                   f"no '{name}'")
            return
        line = ints[attributes.get("linea")]
        column = ints[attributes.get("columna")]
        length = ints[attributes.get("longitud")]
        if line is None or column is None or length is None \
                or name not in KINDS:
            if name == "fuente":
                sections = []
                return
            if name not in KINDS:
                raise XmlLoadError(f"lexema desconocido: '{name}'")
            for key in ("linea", "columna", "longitud"):
                int_attr(name, attributes, key)  # the first fault
        # Built field by field, which costs less than a call to __init__.
        token = new(Token)
        token.kind = name
        token.line = line
        token.column = column
        token.length = length
        token.name = token.value = None
        if name == "IDENTIFICADOR":
            token.name = (attributes.get("nombre")
                          or str_attr(name, attributes, "nombre"))
        elif name == "NUMERO":
            token.value = ints[attributes.get("valor")]
            if token.value is None:
                int_attr(name, attributes, "valor")
        tokens.append(token)

    def end(name):
        nonlocal depth, sections, source
        depth -= 1
        if sections is not None and depth == 1:
            source = "".join(sections)
            sections = None

    def cdata(data):
        if depth == 2 and sections is not None:
            sections.append(data)

    read_document(text, start, end, cdata=cdata)
    return tokens, source
