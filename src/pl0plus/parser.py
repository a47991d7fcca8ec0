"""Syntactic analysis: token list to syntax tree, and the tree's XML form.

The parser is recursive descent with one method per construct.  It never
gives up on the first problem; instead it applies three recovery rules so
that one typo yields one message and a usable tree:

* a missing `;` where the next statement clearly begins is a warning,
  reported at the end of the previous statement, and parsing continues;
* two adjacent operands with no operator in between is an error at the end
  of the left operand; the right operand is consumed and discarded;
* at most one syntax error is reported per source line, and on anything
  unrecoverable the parser skips ahead to `;`, `end`, or `.`.

Every node records the line and column of its anchor token.  Statements
anchor at their leading keyword, except that assignment, call, read, and
write anchor at the identifier they mention; binary operators anchor at the
operator token, conditions at their first operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .diagnostics import Diagnostic, error, warning
from .lexer import Token, TokenKind
from .xmldoc import (Cdata, Text, XmlDocument, XmlLoadError, XmlNode,
                     cdata_element, int_attr, str_attr)

# ---------------------------------------------------------------------------
# Tree nodes.  `code` fields stay None until semantic analysis fills them.


@dataclass
class ConstDecl:
    name: str
    value: int  # sign already folded in
    line: int
    column: int
    code: str | None = None


@dataclass
class VarDecl:
    name: str
    line: int
    column: int
    code: str | None = None


@dataclass
class ProcDecl:
    name: str
    block: "Block"
    line: int
    column: int
    code: str | None = None


@dataclass
class Num:
    value: int
    line: int
    column: int


@dataclass
class Ident:
    name: str
    line: int
    column: int
    code: str | None = None


@dataclass
class BinOp:
    op: str  # suma | resta | multiplicacion | division
    left: "Expr"
    right: "Expr"
    line: int
    column: int


@dataclass
class Neg:
    operand: "Expr"
    line: int
    column: int


Expr = Union[Num, Ident, BinOp, Neg]


@dataclass
class Cond:
    op: str  # comparacion | diferente | menor_que | mayor_que |
    #          menor_igual | mayor_igual | odd
    operands: list  # one expression for odd, two otherwise
    line: int
    column: int


@dataclass
class Assign:
    target: str
    expr: Expr
    line: int
    column: int
    code: str | None = None


@dataclass
class Call:
    procedure: str
    line: int
    column: int
    code: str | None = None


@dataclass
class Sequence:
    statements: list
    line: int
    column: int


@dataclass
class If:
    condition: Cond
    then_branch: "Stmt"
    else_branch: "Stmt | None"
    line: int
    column: int


@dataclass
class While:
    condition: Cond
    body: "Stmt"
    line: int
    column: int


@dataclass
class Read:
    variable: str
    line: int
    column: int
    code: str | None = None


@dataclass
class Write:
    symbol: str
    line: int
    column: int
    code: str | None = None


@dataclass
class Empty:
    line: int
    column: int


Stmt = Union[Assign, Call, Sequence, If, While, Read, Write, Empty]


@dataclass
class Block:
    constants: list
    variables: list
    procedures: list
    body: Stmt
    line: int
    column: int
    code: str | None = None


@dataclass
class Program:
    block: Block
    line: int
    column: int


_NODE_TYPES = frozenset({
    ConstDecl, VarDecl, ProcDecl, Num, Ident, BinOp, Neg, Cond, Assign, Call,
    Sequence, If, While, Read, Write, Empty, Block, Program,
})


def walk(node):
    """Yield `node` and every node below it in source order: a parent
    before its children, children in field declaration order.

    Uses an explicit stack, so the depth of the tree is not limited by
    Python's recursion limit.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = []
        for value in vars(node).values():
            if type(value) is list:
                children.extend(value)
            elif type(value) in _NODE_TYPES:
                children.append(value)
        stack.extend(reversed(children))


def _block_anchor(block: Block) -> tuple[int, int]:
    # A block starts where its first declaration (or, failing that, its
    # statement) starts.  Recomputed identically when loading from XML,
    # since `bloque` elements carry no position attributes.
    for group in (block.constants, block.variables, block.procedures):
        if group:
            return group[0].line, group[0].column
    return block.body.line, block.body.column


# ---------------------------------------------------------------------------
# Parsing

_STATEMENT_INITIAL = {
    TokenKind.IDENTIFICADOR, TokenKind.CALL, TokenKind.BEGIN, TokenKind.IF,
    TokenKind.WHILE, TokenKind.READ, TokenKind.WRITE,
}

_SYNC = {TokenKind.PUNTO_Y_COMA, TokenKind.END, TokenKind.PUNTO}

_RELATIONAL = {
    TokenKind.IGUAL: "comparacion",
    TokenKind.DIFERENTE: "diferente",
    TokenKind.MENOR_QUE: "menor_que",
    TokenKind.MAYOR_QUE: "mayor_que",
    TokenKind.MENOR_IGUAL: "menor_igual",
    TokenKind.MAYOR_IGUAL: "mayor_igual",
}


class _Resync(Exception):
    """Internal signal: skip to a synchronization token."""


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self._error_lines: set[int] = set()

    # -- token plumbing

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def prev(self) -> Token:
        return self.tokens[self.pos - 1]

    def at(self, *kinds) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind in kinds

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind) -> Token | None:
        if self.at(kind):
            return self.advance()
        return None

    def eof_pos(self) -> tuple[int, int]:
        if self.tokens:
            last = self.tokens[-1]
            return last.line, last.column + last.length
        return 1, 0

    def cur_pos(self) -> tuple[int, int]:
        tok = self.peek()
        if tok is None:
            return self.eof_pos()
        return tok.line, tok.column

    # -- reporting and recovery

    def error_at(self, line: int, column: int, message: str) -> None:
        if line not in self._error_lines:
            self._error_lines.add(line)
            self.diags.append(error("sin", line, column, message))

    def warn_at(self, line: int, column: int, message: str) -> None:
        self.diags.append(warning("sin", line, column, message))

    def expect(self, kind, what: str) -> Token:
        tok = self.accept(kind)
        if tok is None:
            line, column = self.cur_pos()
            self.error_at(line, column, f"Se esperaba {what}")
            raise _Resync
        return tok

    def expect_ident(self) -> Token:
        tok = self.accept(TokenKind.IDENTIFICADOR)
        if tok is None:
            line, column = self.cur_pos()
            self.error_at(line, column, "Se esperaba un identificador")
            raise _Resync
        return tok

    def skip_to_sync(self) -> None:
        while self.peek() is not None and self.peek().kind not in _SYNC:
            self.advance()

    def sync(self) -> None:
        self.skip_to_sync()
        self.accept(TokenKind.PUNTO_Y_COMA)

    # -- grammar

    def program(self) -> Program | None:
        if not self.tokens:
            self.diags.append(error("sin", 1, 0, "Se esperaba '.'"))
            return None
        block = self.block()
        if not self.accept(TokenKind.PUNTO):
            line, column = self.cur_pos()
            self.error_at(line, column, "Se esperaba '.'")
            while self.peek() is not None and not self.at(TokenKind.PUNTO):
                self.advance()
            self.accept(TokenKind.PUNTO)
        tok = self.peek()
        if tok is not None:
            self.error_at(tok.line, tok.column,
                          "Se esperaba el fin del programa")
        return Program(block, *_block_anchor(block))

    def block(self) -> Block:
        constants: list[ConstDecl] = []
        variables: list[VarDecl] = []
        procedures: list[ProcDecl] = []
        if self.at(TokenKind.CONST):
            try:
                constants = self.const_section()
            except _Resync:
                self.sync()
        if self.at(TokenKind.VAR):
            try:
                variables = self.var_section()
            except _Resync:
                self.sync()
        while self.at(TokenKind.PROCEDURE):
            try:
                procedures.append(self.proc_decl())
            except _Resync:
                self.sync()
        body = self.statement()
        # Optional trailing `;` after the block's statement; take it only
        # when the terminator the parent itself needs still follows.
        if (self.at(TokenKind.PUNTO_Y_COMA) and self.pos + 1 < len(self.tokens)
                and self.tokens[self.pos + 1].kind
                in (TokenKind.PUNTO_Y_COMA, TokenKind.PUNTO)):
            self.advance()
        block = Block(constants, variables, procedures, body, 0, 0)
        block.line, block.column = _block_anchor(block)
        return block

    def const_section(self) -> list[ConstDecl]:
        self.advance()  # const
        decls = []
        while True:
            name = self.expect_ident()
            self.expect(TokenKind.IGUAL, "'='")
            sign = 1
            if not self.accept(TokenKind.MAS) and self.accept(TokenKind.MENOS):
                sign = -1
            num = self.expect(TokenKind.NUMERO, "un número")
            decls.append(ConstDecl(name.name, sign * num.value,
                                   name.line, name.column))
            if not self.accept(TokenKind.COMA):
                break
        self.expect(TokenKind.PUNTO_Y_COMA, "';'")
        return decls

    def var_section(self) -> list[VarDecl]:
        self.advance()  # var
        decls = []
        while True:
            name = self.expect_ident()
            decls.append(VarDecl(name.name, name.line, name.column))
            if not self.accept(TokenKind.COMA):
                break
        self.expect(TokenKind.PUNTO_Y_COMA, "';'")
        return decls

    def proc_decl(self) -> ProcDecl:
        self.advance()  # procedure
        name = self.expect_ident()
        self.expect(TokenKind.PUNTO_Y_COMA, "';'")
        block = self.block()
        self.expect(TokenKind.PUNTO_Y_COMA, "';'")
        return ProcDecl(name.name, block, name.line, name.column)

    def statement(self) -> Stmt:
        start = self.cur_pos()
        try:
            return self._statement()
        except _Resync:
            self.sync()
            return Empty(*start)

    def _statement(self) -> Stmt:
        tok = self.peek()
        if tok is None or tok.kind not in _STATEMENT_INITIAL:
            return Empty(*self.cur_pos())
        if tok.kind is TokenKind.IDENTIFICADOR:
            target = self.advance()
            self.expect(TokenKind.ASIGNACION, "':='")
            expr = self.expression()
            return Assign(target.name, expr, target.line, target.column)
        if tok.kind is TokenKind.CALL:
            self.advance()
            name = self.expect_ident()
            return Call(name.name, name.line, name.column)
        if tok.kind is TokenKind.BEGIN:
            return self.sequence()
        if tok.kind is TokenKind.IF:
            kw = self.advance()
            condition = self.condition()
            self.expect(TokenKind.THEN, "'then'")
            then_branch = self.statement()
            else_branch = None
            if self.accept(TokenKind.ELSE):
                else_branch = self.statement()
            return If(condition, then_branch, else_branch, kw.line, kw.column)
        if tok.kind is TokenKind.WHILE:
            kw = self.advance()
            condition = self.condition()
            self.expect(TokenKind.DO, "'do'")
            body = self.statement()
            return While(condition, body, kw.line, kw.column)
        if tok.kind is TokenKind.READ:
            self.advance()
            name = self.expect_ident()
            return Read(name.name, name.line, name.column)
        # write
        self.advance()
        name = self.expect_ident()
        return Write(name.name, name.line, name.column)

    def sequence(self) -> Sequence:
        kw = self.advance()  # begin
        statements = [self.statement()]
        while True:
            if self.accept(TokenKind.PUNTO_Y_COMA):
                if self.at(TokenKind.END) or self.peek() is None:
                    break
                statements.append(self.statement())
                continue
            if self.at(TokenKind.END) or self.at(TokenKind.PUNTO) \
                    or self.peek() is None:
                break
            tok = self.peek()
            if tok.kind in _STATEMENT_INITIAL:
                prev = self.prev()
                self.warn_at(prev.line, prev.column + prev.length,
                             "Falta un ';'")
                statements.append(self.statement())
                continue
            self.error_at(tok.line, tok.column, "Se esperaba ';' o 'end'")
            self.skip_to_sync()
        if not self.accept(TokenKind.END):
            line, column = self.cur_pos()
            self.error_at(line, column, "Se esperaba 'end'")
        return Sequence(statements, kw.line, kw.column)

    def condition(self) -> Cond:
        if self.accept(TokenKind.ODD):
            operand = self.expression()
            return Cond("odd", [operand], operand.line, operand.column)
        left = self.expression()
        tok = self.peek()
        if tok is None or tok.kind not in _RELATIONAL:
            line, column = self.cur_pos()
            self.error_at(line, column, "Se esperaba un operador relacional")
            raise _Resync
        self.advance()
        right = self.expression()
        return Cond(_RELATIONAL[tok.kind], [left, right],
                    left.line, left.column)

    def expression(self) -> Expr:
        neg = None
        if not self.accept(TokenKind.MAS) and self.at(TokenKind.MENOS):
            neg = self.advance()
        node = self.term()
        if neg is not None:
            node = Neg(node, neg.line, neg.column)
        while True:
            if self.at(TokenKind.MAS, TokenKind.MENOS):
                op = self.advance()
                right = self.term()
                name = "suma" if op.kind is TokenKind.MAS else "resta"
                node = BinOp(name, node, right, op.line, op.column)
            elif self.at(TokenKind.IDENTIFICADOR, TokenKind.NUMERO,
                         TokenKind.PARENTESIS_APERTURA):
                # Two operands with nothing in between: the lexer probably
                # dropped an invalid character here.
                prev = self.prev()
                self.error_at(prev.line, prev.column + prev.length,
                              "Falta un operador")
                self.term()
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at(TokenKind.POR, TokenKind.ENTRE):
            op = self.advance()
            right = self.factor()
            name = "multiplicacion" if op.kind is TokenKind.POR else "division"
            node = BinOp(name, node, right, op.line, op.column)
        return node

    def factor(self) -> Expr:
        minus: list[Token] = []
        while self.at(TokenKind.MENOS):
            minus.append(self.advance())
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.IDENTIFICADOR:
            self.advance()
            node: Expr = Ident(tok.name, tok.line, tok.column)
        elif tok is not None and tok.kind is TokenKind.NUMERO:
            self.advance()
            node = Num(tok.value, tok.line, tok.column)
        elif tok is not None and tok.kind is TokenKind.PARENTESIS_APERTURA:
            self.advance()
            node = self.expression()
            self.expect(TokenKind.PARENTESIS_CIERRE, "')'")
        else:
            line, column = self.cur_pos()
            self.error_at(line, column, "Se esperaba una expresión")
            raise _Resync
        for sign in reversed(minus):
            node = Neg(node, sign.line, sign.column)
        return node


def parse(tokens: list[Token]) -> tuple[Program | None, list[Diagnostic]]:
    """Parse a token list.  The tree is absent only when there was nothing
    to parse at all; otherwise recovery always yields some Program."""
    parser = _Parser(tokens)
    program = parser.program()
    return program, parser.diags


# ---------------------------------------------------------------------------
# XML representation (`arbol_de_sintaxis`)


def _positioned(parent: XmlNode, name: str, node, **attrs) -> XmlNode:
    element = XmlNode(name, {"linea": node.line, "columna": node.column})
    for key, value in attrs.items():
        element.set(key, value)
    parent.add(element)
    return element


def _set_code(element: XmlNode, node, with_codes: bool) -> None:
    if with_codes:
        if node.code is None:
            raise ValueError("tree node carries no symbol code; run "
                             "semantic analysis first")
        element.set("codigo", node.code)


def _emit_block(parent: XmlNode, block: Block, with_codes: bool) -> None:
    element = parent.element("bloque")
    if with_codes:
        if block.code is None:
            raise ValueError("tree node carries no symbol code; run "
                             "semantic analysis first")
        element.set("codigo", block.code)
    for const in block.constants:
        child = _positioned(element, "constante", const, nombre=const.name,
                            valor=const.value)
        _set_code(child, const, with_codes)
    for var in block.variables:
        child = _positioned(element, "variable", var, nombre=var.name)
        _set_code(child, var, with_codes)
    for proc in block.procedures:
        child = _positioned(element, "procedimiento", proc, nombre=proc.name)
        _emit_block(child, proc.block, with_codes)
    _emit_stmt(element, block.body, with_codes)


def _emit_stmt(parent: XmlNode, node, with_codes: bool) -> None:
    if isinstance(node, Assign):
        element = _positioned(parent, "asignacion", node, variable=node.target)
        _set_code(element, node, with_codes)
        _emit_expr(element, node.expr, with_codes)
    elif isinstance(node, Call):
        _positioned(parent, "llamada", node, procedimiento=node.procedure)
    elif isinstance(node, Sequence):
        element = _positioned(parent, "secuencia", node)
        for child in node.statements:
            _emit_stmt(element, child, with_codes)
    elif isinstance(node, If):
        element = _positioned(parent, "condicional", node)
        _emit_cond(element, node.condition, with_codes)
        _emit_stmt(element, node.then_branch, with_codes)
        if node.else_branch is not None:
            _emit_stmt(element, node.else_branch, with_codes)
    elif isinstance(node, While):
        element = _positioned(parent, "ciclo", node)
        _emit_cond(element, node.condition, with_codes)
        _emit_stmt(element, node.body, with_codes)
    elif isinstance(node, Read):
        _positioned(parent, "leer", node, variable=node.variable)
    elif isinstance(node, Write):
        _positioned(parent, "escribir", node, simbolo=node.symbol)
    elif isinstance(node, Empty):
        _positioned(parent, "nada", node)
    else:
        raise TypeError(f"not a statement node: {node!r}")


def _emit_cond(parent: XmlNode, cond: Cond, with_codes: bool) -> None:
    element = _positioned(parent, "condicion", cond, operacion=cond.op)
    for operand in cond.operands:
        _emit_expr(element, operand, with_codes)


def _emit_expr(parent: XmlNode, node, with_codes: bool) -> None:
    if isinstance(node, Num):
        _positioned(parent, "numero", node, valor=node.value)
    elif isinstance(node, Ident):
        element = _positioned(parent, "identificador", node, simbolo=node.name)
        _set_code(element, node, with_codes)
    elif isinstance(node, BinOp):
        element = _positioned(parent, node.op, node)
        _emit_expr(element, node.left, with_codes)
        _emit_expr(element, node.right, with_codes)
    elif isinstance(node, Neg):
        element = _positioned(parent, "negativo", node)
        _emit_expr(element, node.operand, with_codes)
    else:
        raise TypeError(f"not an expression node: {node!r}")


def ast_to_element(ast: Program, with_codes: bool = False) -> XmlNode:
    """The `programa` element (shared with the revised-tree emitter)."""
    element = XmlNode("programa")
    _emit_block(element, ast.block, with_codes)
    return element


def ast_to_xml(ast: Program, source: str | None = None) -> XmlDocument:
    root = XmlNode("arbol_de_sintaxis")
    root.add(ast_to_element(ast, with_codes=False))
    if source is not None:
        root.add(cdata_element("fuente", source))
    return XmlDocument(root)


# -- reading back

_BINOP_NAMES = {"suma", "resta", "multiplicacion", "division"}
_COND_OPS = {"comparacion", "diferente", "menor_que", "mayor_que",
             "menor_igual", "mayor_igual", "odd"}


def _load_error(element: XmlNode, detail: str) -> XmlLoadError:
    return XmlLoadError(f"elemento '{element.name}': {detail}")


def _position(element: XmlNode) -> tuple[int, int]:
    return int_attr(element, "linea"), int_attr(element, "columna")


def _no_stray_content(element: XmlNode) -> None:
    for child in element.children:
        if isinstance(child, Text) and child.data.strip():
            raise _load_error(element, "texto inesperado")
        if isinstance(child, Cdata):
            raise _load_error(element, "CDATA inesperado")


def _read_code(element: XmlNode, node, keep_codes: bool) -> None:
    if keep_codes:
        node.code = element.get("codigo")


def _read_block(element: XmlNode, keep_codes: bool) -> Block:
    _no_stray_content(element)
    constants: list[ConstDecl] = []
    variables: list[VarDecl] = []
    procedures: list[ProcDecl] = []
    statements: list = []
    for child in element.elements():
        if child.name == "constante":
            node = ConstDecl(str_attr(child, "nombre"),
                             int_attr(child, "valor"), *_position(child))
            _read_code(child, node, keep_codes)
            constants.append(node)
        elif child.name == "variable":
            node = VarDecl(str_attr(child, "nombre"), *_position(child))
            _read_code(child, node, keep_codes)
            variables.append(node)
        elif child.name == "procedimiento":
            inner = child.find("bloque")
            if inner is None or len(child.elements()) != 1:
                raise _load_error(child, "se esperaba exactamente un 'bloque'")
            procedures.append(ProcDecl(str_attr(child, "nombre"),
                                       _read_block(inner, keep_codes),
                                       *_position(child)))
        else:
            statements.append(_read_stmt(child, keep_codes))
    if len(statements) > 1:
        raise _load_error(element, "más de una instrucción")
    body = statements[0] if statements else Empty(0, 0)
    block = Block(constants, variables, procedures, body, 0, 0)
    if keep_codes:
        block.code = element.get("codigo")
    block.line, block.column = _block_anchor(block)
    return block


def _read_stmt(element: XmlNode, keep_codes: bool):
    _no_stray_content(element)
    name = element.name
    children = element.elements()
    if name == "asignacion":
        if len(children) != 1:
            raise _load_error(element, "se esperaba exactamente una expresión")
        node = Assign(str_attr(element, "variable"),
                      _read_expr(children[0], keep_codes), *_position(element))
        _read_code(element, node, keep_codes)
        return node
    if name == "llamada":
        if children:
            raise _load_error(element, "no admite hijos")
        return Call(str_attr(element, "procedimiento"), *_position(element))
    if name == "secuencia":
        return Sequence([_read_stmt(c, keep_codes) for c in children],
                        *_position(element))
    if name == "condicional":
        if len(children) not in (2, 3) or children[0].name != "condicion":
            raise _load_error(
                element, "se esperaba una condición y una o dos instrucciones")
        condition = _read_cond(children[0], keep_codes)
        then_branch = _read_stmt(children[1], keep_codes)
        else_branch = (_read_stmt(children[2], keep_codes)
                       if len(children) == 3 else None)
        return If(condition, then_branch, else_branch, *_position(element))
    if name == "ciclo":
        if len(children) != 2 or children[0].name != "condicion":
            raise _load_error(
                element, "se esperaba una condición y una instrucción")
        return While(_read_cond(children[0], keep_codes),
                     _read_stmt(children[1], keep_codes), *_position(element))
    if name == "leer":
        if children:
            raise _load_error(element, "no admite hijos")
        return Read(str_attr(element, "variable"), *_position(element))
    if name == "escribir":
        if children:
            raise _load_error(element, "no admite hijos")
        return Write(str_attr(element, "simbolo"), *_position(element))
    if name == "nada":
        if children:
            raise _load_error(element, "no admite hijos")
        return Empty(*_position(element))
    raise XmlLoadError(f"instrucción desconocida: '{name}'")


def _read_cond(element: XmlNode, keep_codes: bool) -> Cond:
    _no_stray_content(element)
    op = str_attr(element, "operacion")
    if op not in _COND_OPS:
        raise _load_error(element, f"operación desconocida: '{op}'")
    children = element.elements()
    expected = 1 if op == "odd" else 2
    if len(children) != expected:
        raise _load_error(
            element, f"la operación '{op}' requiere {expected} operando(s)")
    return Cond(op, [_read_expr(c, keep_codes) for c in children],
                *_position(element))


def _read_expr(element: XmlNode, keep_codes: bool):
    _no_stray_content(element)
    name = element.name
    children = element.elements()
    if name == "numero":
        if children:
            raise _load_error(element, "no admite hijos")
        return Num(int_attr(element, "valor"), *_position(element))
    if name == "identificador":
        if children:
            raise _load_error(element, "no admite hijos")
        node = Ident(str_attr(element, "simbolo"), *_position(element))
        _read_code(element, node, keep_codes)
        return node
    if name in _BINOP_NAMES:
        if len(children) != 2:
            raise _load_error(element, "se esperaban dos operandos")
        return BinOp(name, _read_expr(children[0], keep_codes),
                     _read_expr(children[1], keep_codes), *_position(element))
    if name == "negativo":
        if len(children) != 1:
            raise _load_error(element, "se esperaba un operando")
        return Neg(_read_expr(children[0], keep_codes), *_position(element))
    raise XmlLoadError(f"expresión desconocida: '{name}'")


def ast_from_element(element: XmlNode, keep_codes: bool = False) -> Program:
    """Read a `programa` element (shared with the revised-tree reader)."""
    _no_stray_content(element)
    children = element.elements()
    if len(children) != 1 or children[0].name != "bloque":
        raise _load_error(element, "se esperaba exactamente un 'bloque'")
    block = _read_block(children[0], keep_codes)
    return Program(block, *_block_anchor(block))


def ast_from_xml(doc: XmlDocument) -> tuple[Program, str | None]:
    """Inverse of ast_to_xml.  Also accepts a revised tree, in which case
    the symbol codes are simply ignored."""
    root = doc.root
    if root.name not in ("arbol_de_sintaxis", "arbol_de_sintaxis_revisado"):
        raise XmlLoadError(f"se esperaba el elemento raíz 'arbol_de_sintaxis',"
                           f" no '{root.name}'")
    programa = None
    source = None
    for child in root.elements():
        if child.name == "programa":
            if programa is not None:
                raise XmlLoadError("más de un elemento 'programa'")
            programa = child
        elif child.name == "fuente":
            source = child.cdata()
        else:
            raise XmlLoadError(f"elemento inesperado: '{child.name}'")
    if programa is None:
        raise XmlLoadError("falta el elemento 'programa'")
    return ast_from_element(programa, keep_codes=False), source
