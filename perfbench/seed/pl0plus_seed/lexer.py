"""Lexical analysis: pl0+ source text to a token list, and its XML form.

Tokens remember exactly where they came from (1-based line, 0-based column,
length in characters) so later phases can report positions without ever
looking at the source again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

from .diagnostics import Diagnostic, error
from .xmldoc import (XmlDocument, XmlLoadError, XmlNode, cdata_element)

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

_TWO_CHAR = {text: kind for kind, text in SYMBOL_TEXT.items()
             if len(text) == 2}
_ONE_CHAR = {text: kind for kind, text in SYMBOL_TEXT.items()
             if len(text) == 1}

_KIND_BY_ELEMENT = {kind.value: kind for kind in TokenKind}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    line: int
    column: int
    length: int
    name: str | None = None   # IDENTIFICADOR only
    value: int | None = None  # NUMERO only


def _is_letter(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def _is_ident_char(ch: str) -> bool:
    return _is_letter(ch) or ch.isdigit() or ch == "_"


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Scan the whole source with maximal munch.

    Lexical errors never abort the scan: an invalid character is skipped,
    an oversized number is clamped to 2**31 - 1, and an unterminated
    comment is reported at the position where it opened.
    """
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col, i = 1, 0, 0
    n = len(source)

    def advance(count=1):
        nonlocal line, col, i
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 0
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "(" and i + 1 < n and source[i + 1] == "*":
            start_line, start_col = line, col
            advance(2)
            closed = False
            while i < n:
                if source[i] == "*" and i + 1 < n and source[i + 1] == ")":
                    advance(2)
                    closed = True
                    break
                advance()
            if not closed:
                diags.append(error("lex", start_line, start_col,
                                   "Comentario sin cerrar"))
            continue
        if _is_letter(ch):
            start_line, start_col = line, col
            start = i
            while i < n and _is_ident_char(source[i]):
                advance()
            word = source[start:i]
            kind = KEYWORDS.get(word)
            if kind is not None:
                tokens.append(Token(kind, start_line, start_col, len(word)))
            else:
                tokens.append(Token(TokenKind.IDENTIFICADOR, start_line,
                                    start_col, len(word), name=word))
            continue
        if ch.isdigit():
            start_line, start_col = line, col
            start = i
            while i < n and source[i].isdigit():
                advance()
            digits = source[start:i]
            value = int(digits)
            if value > MAX_NUMBER:
                diags.append(error("lex", start_line, start_col,
                                   "Número demasiado grande"))
                value = MAX_NUMBER
            tokens.append(Token(TokenKind.NUMERO, start_line, start_col,
                                len(digits), value=value))
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(_TWO_CHAR[two], line, col, 2))
            advance(2)
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token(_ONE_CHAR[ch], line, col, 1))
            advance()
            continue
        diags.append(error("lex", line, col, "Caracter inválido."))
        advance()

    return tokens, diags


# ---------------------------------------------------------------------------
# XML representation (`lexemas`)


def tokens_to_xml(tokens, source: str | None = None) -> XmlDocument:
    root = XmlNode("lexemas")
    for tok in tokens:
        if tok.kind is TokenKind.IDENTIFICADOR:
            root.element(tok.kind.value, nombre=tok.name, linea=tok.line,
                         columna=tok.column, longitud=tok.length)
        elif tok.kind is TokenKind.NUMERO:
            root.element(tok.kind.value, valor=tok.value, linea=tok.line,
                         columna=tok.column, longitud=tok.length)
        else:
            root.element(tok.kind.value, linea=tok.line, columna=tok.column,
                         longitud=tok.length)
    if source is not None:
        root.add(cdata_element("fuente", source))
    return XmlDocument(root)


def _int_attr(element: XmlNode, name: str) -> int:
    raw = element.get(name)
    if raw is None:
        raise XmlLoadError(
            f"elemento '{element.name}': falta el atributo '{name}'")
    try:
        return int(raw)
    except ValueError:
        raise XmlLoadError(
            f"elemento '{element.name}': el atributo '{name}' no es un "
            f"entero: {raw!r}") from None


def tokens_from_xml(doc: XmlDocument) -> tuple[list[Token], str | None]:
    """Rebuild a token list from a `lexemas` document.

    Returns the recovered source text as well when the document carries a
    `fuente` section.
    """
    root = doc.root
    if root.name != "lexemas":
        raise XmlLoadError(f"se esperaba el elemento raíz 'lexemas', "
                           f"no '{root.name}'")
    tokens: list[Token] = []
    source: str | None = None
    for element in root.elements():
        if element.name == "fuente":
            source = element.cdata()
            continue
        kind = _KIND_BY_ELEMENT.get(element.name)
        if kind is None:
            raise XmlLoadError(f"lexema desconocido: '{element.name}'")
        line = _int_attr(element, "linea")
        column = _int_attr(element, "columna")
        length = _int_attr(element, "longitud")
        if kind is TokenKind.IDENTIFICADOR:
            name = element.get("nombre")
            if name is None:
                raise XmlLoadError("elemento 'IDENTIFICADOR': falta el "
                                   "atributo 'nombre'")
            tokens.append(Token(kind, line, column, length, name=name))
        elif kind is TokenKind.NUMERO:
            tokens.append(Token(kind, line, column, length,
                                value=_int_attr(element, "valor")))
        else:
            tokens.append(Token(kind, line, column, length))
    return tokens, source
