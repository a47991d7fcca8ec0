"""Syntactic analysis: token list to syntax tree, and the tree's XML form.

The parser is recursive descent with one method per construct.  It never
gives up on the first problem; instead it applies three recovery rules so
that one typo yields one message and a usable tree:

* a missing `;` where the next statement clearly begins is a warning,
  reported at the end of the previous statement, and parsing continues;
* two adjacent operands with no operator in between is an error at the end
  of the left operand; the right operand is consumed and discarded;
* at most one syntax error is reported per source line, and on anything
  unrecoverable the parser skips ahead to `;`, `end`, or `.`;
* a fault inside a `const` or `var` section keeps the declarations read
  before it.

The one problem it does give up on is nesting deeper than MAX_NESTING:
statements inside statements, procedures inside procedures and
parentheses inside parentheses all count, together.  The token that
opens the level past the limit gets the error and the parse yields no
tree.  The limit keeps this parser, and the code generator that recurses
the same way over statements, within Python's recursion limit.

Every node records the line and column of its anchor token.  Statements
anchor at their leading keyword, except that assignment, call, read, and
write anchor at the identifier they mention; binary operators anchor at the
operator token, conditions at their first operand.
"""

from __future__ import annotations

from collections import namedtuple

from .diagnostics import Diagnostic, error, warning
from .lexer import Token
from .xmldoc import (DECLARATION, Record, XmlLoadError, cdata_line,
                     escape_attr, indent, int_attr, str_attr)

# ---------------------------------------------------------------------------
# Tree nodes.  A node that names a symbol holds the name in `name`, and
# `code` fields stay None until semantic analysis fills them.


class ConstDecl(Record):
    __slots__ = ("name", "value", "line", "column", "code")

    def __init__(self, name: str, value: int, line: int, column: int,
                 code=None):
        self.name = name
        self.value = value  # sign already folded in
        self.line = line
        self.column = column
        self.code = code


class _Named(Record):
    """The one constructor of the nodes whose fields are a name, its
    position and its code.  Each subclass lists them in its own
    `__slots__`, which `Record`'s equality and repr read."""

    __slots__ = ()

    def __init__(self, name: str, line: int, column: int, code=None):
        self.name = name
        self.line = line
        self.column = column
        self.code = code


class VarDecl(_Named):
    __slots__ = ("name", "line", "column", "code")


class ProcDecl(Record):
    __slots__ = ("name", "block", "line", "column", "code")

    def __init__(self, name: str, block: Block, line: int, column: int,
                 code=None):
        self.name = name
        self.block = block
        self.line = line
        self.column = column
        self.code = code


class Num(Record):
    __slots__ = ("value", "line", "column")

    def __init__(self, value: int, line: int, column: int):
        self.value = value
        self.line = line
        self.column = column


class Ident(_Named):
    __slots__ = ("name", "line", "column", "code")


class BinOp(Record):
    __slots__ = ("op", "left", "right", "line", "column")

    def __init__(self, op: str, left: Expr, right: Expr, line: int,
                 column: int):
        self.op = op  # suma | resta | multiplicacion | division
        self.left = left
        self.right = right
        self.line = line
        self.column = column


class Neg(Record):
    __slots__ = ("operand", "line", "column")

    def __init__(self, operand: Expr, line: int, column: int):
        self.operand = operand
        self.line = line
        self.column = column


class Cond(Record):
    __slots__ = ("op", "operands", "line", "column")

    def __init__(self, op: str, operands: list, line: int, column: int):
        self.op = op  # comparacion | diferente | menor_que | mayor_que |
        #               menor_igual | mayor_igual | odd
        self.operands = operands  # one expression for odd, two otherwise
        self.line = line
        self.column = column


class Assign(Record):
    __slots__ = ("name", "expr", "line", "column", "code")

    def __init__(self, name: str, expr: Expr, line: int, column: int,
                 code=None):
        self.name = name
        self.expr = expr
        self.line = line
        self.column = column
        self.code = code


class Call(_Named):
    __slots__ = ("name", "line", "column", "code")


class Sequence(Record):
    __slots__ = ("statements", "line", "column")

    def __init__(self, statements: list, line: int, column: int):
        self.statements = statements
        self.line = line
        self.column = column


class If(Record):
    __slots__ = ("condition", "then_branch", "else_branch", "line", "column")

    def __init__(self, condition: Cond, then_branch: Stmt,
                 else_branch: Stmt | None, line: int, column: int):
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch
        self.line = line
        self.column = column


class While(Record):
    __slots__ = ("condition", "body", "line", "column")

    def __init__(self, condition: Cond, body: Stmt, line: int, column: int):
        self.condition = condition
        self.body = body
        self.line = line
        self.column = column


class Read(_Named):
    __slots__ = ("name", "line", "column", "code")


class Write(_Named):
    __slots__ = ("name", "line", "column", "code")


class Empty(Record):
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        self.line = line
        self.column = column


class Block(Record):
    __slots__ = ("constants", "variables", "procedures", "body", "line",
                 "column", "code")

    def __init__(self, constants: list, variables: list, procedures: list,
                 body: Stmt, line: int, column: int, code=None):
        self.constants = constants
        self.variables = variables
        self.procedures = procedures
        self.body = body
        self.line = line
        self.column = column
        self.code = code


class Program(Record):
    __slots__ = ("block", "line", "column")

    def __init__(self, block: Block, line: int, column: int):
        self.block = block
        self.line = line
        self.column = column


# How each node class appears in the tree's XML form (`arbol_de_sintaxis`),
# and the order of its child fields, which is also the source order:
# `element` (None: named by the node's `op`), `attributes` ((name, field,
# reader) after linea/columna; None: no position attributes either),
# `children` (child fields in declaration order) and `coded` (a revised
# tree adds `codigo`).  Reading only: the allowed numbers of child elements
# (None: any, read as one list), the message when they do not fit, the
# class the first child must have, and those the other children may have.
_Form = namedtuple("_Form", "element attributes children coded arity shape "
                            "first kinds")
Expr = (Num, Ident, BinOp, Neg)  # the expression node classes
Stmt = (Assign, Call, Sequence, If, While, Read, Write, Empty)  # statements
_EXPRESSIONS = frozenset(Expr)
_STATEMENTS = frozenset(Stmt)
_MEMBERS = _STATEMENTS | {ConstDecl, VarDecl, ProcDecl}
_NAME = (("nombre", "name", str_attr),)
_LEAF = ((0,), "no admite hijos", None, None)
_ONE_BLOCK = ((1,), "se esperaba exactamente un 'bloque'", Block, None)

_FORMS = {
    Program: _Form("programa", None, ("block",), False, *_ONE_BLOCK),
    Block: _Form("bloque", None,
                 ("constants", "variables", "procedures", "body"), True,
                 None, None, None, _MEMBERS),
    ConstDecl: _Form("constante", _NAME + (("valor", "value", int_attr),),
                     (), True, *_LEAF),
    VarDecl: _Form("variable", _NAME, (), True, *_LEAF),
    ProcDecl: _Form("procedimiento", _NAME, ("block",), False, *_ONE_BLOCK),
    Assign: _Form("asignacion", (("variable", "name", str_attr),),
                  ("expr",), True,
                  (1,), "se esperaba exactamente una expresión", None,
                  _EXPRESSIONS),
    Call: _Form("llamada", (("procedimiento", "name", str_attr),),
                (), False, *_LEAF),
    Sequence: _Form("secuencia", (), ("statements",), False,
                    None, None, None, _STATEMENTS),
    If: _Form("condicional", (), ("condition", "then_branch", "else_branch"),
              False, (2, 3),
              "se esperaba una condición y una o dos instrucciones", Cond,
              _STATEMENTS),
    While: _Form("ciclo", (), ("condition", "body"), False,
                 (2,), "se esperaba una condición y una instrucción", Cond,
                 _STATEMENTS),
    Read: _Form("leer", (("variable", "name", str_attr),), (), False, *_LEAF),
    Write: _Form("escribir", (("simbolo", "name", str_attr),), (), False,
                 *_LEAF),
    Empty: _Form("nada", (), (), False, *_LEAF),
    # The operand count depends on the operation; the reader checks it.
    Cond: _Form("condicion", (("operacion", "op", str_attr),), ("operands",),
                False, None, None, None, _EXPRESSIONS),
    Num: _Form("numero", (("valor", "value", int_attr),), (), False, *_LEAF),
    Ident: _Form("identificador", (("simbolo", "name", str_attr),), (), True,
                 *_LEAF),
    BinOp: _Form(None, (), ("left", "right"), False,
                 (2,), "se esperaban dos operandos", None, _EXPRESSIONS),
    Neg: _Form("negativo", (), ("operand",), False,
               (1,), "se esperaba un operando", None, _EXPRESSIONS),
}


# Each node class's child fields, the last first.
_BACKWARD = {cls: form.children[::-1] for cls, form in _FORMS.items()}


def walk(node, classes=None):
    """Yield `node` and every node below it in source order: a parent
    before its children, children in field declaration order; only those
    whose class is in `classes`, when given.

    Uses an explicit stack, so the depth of the tree is not limited by
    Python's recursion limit.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if classes is None or kind in classes:
            yield node
        for name in _BACKWARD[kind]:
            value = getattr(node, name)
            if type(value) is list:
                stack += reversed(value)
            elif value is not None:
                stack.append(value)


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

_STATEMENT_INITIAL = {"IDENTIFICADOR", "CALL", "BEGIN", "IF", "WHILE", "READ",
                      "WRITE"}

# None is the kind of the end-of-input token.
_SYNC = {"punto_y_coma", "END", "punto", None}

MAX_NESTING = 200
TOO_DEEP = "Anidamiento demasiado profundo."

# Each operator token's kind, mapped to the tree's name for its operation.
_RELATIONAL = {"igual": "comparacion", "diferente": "diferente",
               "menor_que": "menor_que", "mayor_que": "mayor_que",
               "menor_igual": "menor_igual", "mayor_igual": "mayor_igual"}
_ADDING = {"mas": "suma", "menos": "resta"}
_MULTIPLYING = {"por": "multiplicacion", "entre": "division"}


class _Resync(Exception):
    """Internal signal: skip to a synchronization token."""


class _TooDeep(Exception):
    """Internal signal: nesting past MAX_NESTING, the parse ends."""


class _Parser:
    def __init__(self, tokens: list[Token]):
        # One end-of-input token of no kind, just past the last token, so
        # there is always a current token; a missing one is reported there.
        last = tokens[-1] if tokens else Token(None, 1, 0, 0)
        self.tokens = tokens + [Token(None, last.line,
                                      last.column + last.length, 0)]
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self._error_lines: set[int] = set()
        self.depth = 0

    # -- token plumbing

    def at(self, *kinds) -> bool:
        return self.tokens[self.pos].kind in kinds

    def accept(self, kind) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def cur_pos(self) -> tuple[int, int]:
        tok = self.tokens[self.pos]
        return tok.line, tok.column

    # -- reporting and recovery

    def error_at(self, line: int, column: int, message: str) -> None:
        if line not in self._error_lines:
            self._error_lines.add(line)
            self.diags.append(error("sin", line, column, message))

    def expect(self, kind, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.error_at(tok.line, tok.column, f"Se esperaba {what}")
            raise _Resync
        self.pos += 1
        return tok

    def nest(self) -> None:
        """Enter one more level of nesting at the current token.  The
        caller leaves it with `self.depth -= 1` in a `finally`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.diags.append(error("sin", *self.cur_pos(), TOO_DEEP))
            raise _TooDeep

    def skip_to_sync(self) -> None:
        while self.tokens[self.pos].kind not in _SYNC:
            self.pos += 1

    def sync(self) -> None:
        self.skip_to_sync()
        self.accept("punto_y_coma")

    # -- grammar

    def program(self) -> Program | None:
        if self.at(None):
            self.diags.append(error("sin", 1, 0, "Se esperaba '.'"))
            return None
        block = self.block()
        if not self.accept("punto"):
            self.error_at(*self.cur_pos(), "Se esperaba '.'")
            while not self.at("punto", None):
                self.pos += 1
            self.accept("punto")
        if not self.at(None):
            self.error_at(*self.cur_pos(), "Se esperaba el fin del programa")
        return Program(block, *_block_anchor(block))

    def block(self) -> Block:
        block = Block([], [], [], None, 0, 0)
        if self.at("CONST"):
            try:
                self.const_section(block.constants)
            except _Resync:
                self.sync()
        if self.at("VAR"):
            try:
                self.var_section(block.variables)
            except _Resync:
                self.sync()
        while self.at("PROCEDURE"):
            try:
                self.proc_decl(block.procedures)
            except _Resync:
                self.sync()
        block.body = self.statement()
        # Optional trailing `;` after the block's statement; take it only
        # when the terminator the parent itself needs still follows.
        if self.at("punto_y_coma") and self.tokens[self.pos + 1].kind \
                in ("punto_y_coma", "punto"):
            self.pos += 1
        block.line, block.column = _block_anchor(block)
        return block

    def const_section(self, decls: list[ConstDecl]) -> None:
        self.pos += 1  # const
        while True:
            name = self.expect("IDENTIFICADOR", "un identificador")
            self.expect("igual", "'='")
            sign = 1
            if not self.accept("mas") and self.accept("menos"):
                sign = -1
            num = self.expect("NUMERO", "un número")
            decls.append(ConstDecl(name.name, sign * num.value,
                                   name.line, name.column))
            if not self.accept("coma"):
                break
        self.expect("punto_y_coma", "';'")

    def var_section(self, decls: list[VarDecl]) -> None:
        self.pos += 1  # var
        while True:
            name = self.expect("IDENTIFICADOR", "un identificador")
            decls.append(VarDecl(name.name, name.line, name.column))
            if not self.accept("coma"):
                break
        self.expect("punto_y_coma", "';'")

    def proc_decl(self, decls: list[ProcDecl]) -> None:
        self.nest()
        try:
            self.pos += 1  # procedure
            name = self.expect("IDENTIFICADOR", "un identificador")
            self.expect("punto_y_coma", "';'")
            block = self.block()
            self.expect("punto_y_coma", "';'")
            decls.append(ProcDecl(name.name, block, name.line, name.column))
        finally:
            self.depth -= 1

    def statement(self) -> Stmt:
        start = self.tokens[self.pos]
        self.nest()
        try:
            return self._statement()
        except _Resync:
            self.sync()
            return Empty(start.line, start.column)
        finally:
            self.depth -= 1

    def _statement(self) -> Stmt:
        tok = self.tokens[self.pos]
        if tok.kind not in _STATEMENT_INITIAL:
            return Empty(tok.line, tok.column)
        self.pos += 1
        if tok.kind == "IDENTIFICADOR":
            self.expect("asignacion", "':='")
            expr = self.expression()
            return Assign(tok.name, expr, tok.line, tok.column)
        if tok.kind == "BEGIN":
            return self.sequence(tok)
        if tok.kind == "IF":
            condition = self.condition()
            self.expect("THEN", "'then'")
            then_branch = self.statement()
            else_branch = self.statement() if self.accept("ELSE") else None
            return If(condition, then_branch, else_branch, tok.line,
                      tok.column)
        if tok.kind == "WHILE":
            condition = self.condition()
            self.expect("DO", "'do'")
            body = self.statement()
            return While(condition, body, tok.line, tok.column)
        # call, read or write, then the name
        name = self.expect("IDENTIFICADOR", "un identificador")
        if tok.kind == "CALL":
            return Call(name.name, name.line, name.column)
        if tok.kind == "READ":
            return Read(name.name, name.line, name.column)
        return Write(name.name, name.line, name.column)

    def sequence(self, begin: Token) -> Sequence:
        statements = [self.statement()]
        while True:
            if self.accept("punto_y_coma"):
                if self.at("END", None):
                    break
                statements.append(self.statement())
                continue
            if self.at("END", "punto", None):
                break
            tok = self.tokens[self.pos]
            if tok.kind in _STATEMENT_INITIAL:
                prev = self.tokens[self.pos - 1]
                self.diags.append(warning(
                    "sin", prev.line, prev.column + prev.length, "Falta un ';'"))
                statements.append(self.statement())
                continue
            self.error_at(tok.line, tok.column, "Se esperaba ';' o 'end'")
            self.skip_to_sync()
        if not self.accept("END"):
            self.error_at(*self.cur_pos(), "Se esperaba 'end'")
        return Sequence(statements, begin.line, begin.column)

    def condition(self) -> Cond:
        if self.accept("ODD"):
            operand = self.expression()
            return Cond("odd", [operand], operand.line, operand.column)
        left = self.expression()
        tok = self.tokens[self.pos]
        if tok.kind not in _RELATIONAL:
            self.error_at(tok.line, tok.column,
                          "Se esperaba un operador relacional")
            raise _Resync
        self.pos += 1
        right = self.expression()
        return Cond(_RELATIONAL[tok.kind], [left, right],
                    left.line, left.column)

    def expression(self) -> Expr:
        sign = self.tokens[self.pos]
        if sign.kind in _ADDING:
            self.pos += 1
        node = self.term()
        if sign.kind == "menos":
            node = Neg(node, sign.line, sign.column)
        while True:
            op = self.tokens[self.pos]
            if op.kind in _ADDING:
                self.pos += 1
                right = self.term()
                node = BinOp(_ADDING[op.kind], node, right, op.line, op.column)
            elif op.kind in ("IDENTIFICADOR", "NUMERO", "parentesis_apertura"):
                # Two operands with nothing in between: the lexer probably
                # dropped an invalid character here.
                prev = self.tokens[self.pos - 1]
                self.error_at(prev.line, prev.column + prev.length,
                              "Falta un operador")
                self.term()
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while (op := self.tokens[self.pos]).kind in _MULTIPLYING:
            self.pos += 1
            right = self.factor()
            node = BinOp(_MULTIPLYING[op.kind], node, right, op.line,
                         op.column)
        return node

    def factor(self) -> Expr:
        minus: list[Token] = []
        tok = self.tokens[self.pos]
        while tok.kind == "menos":
            minus.append(tok)
            self.pos += 1
            tok = self.tokens[self.pos]
        if tok.kind == "IDENTIFICADOR":
            self.pos += 1
            node: Expr = Ident(tok.name, tok.line, tok.column)
        elif tok.kind == "NUMERO":
            self.pos += 1
            node = Num(tok.value, tok.line, tok.column)
        elif tok.kind == "parentesis_apertura":
            self.nest()
            try:
                self.pos += 1
                node = self.expression()
                self.expect("parentesis_cierre", "')'")
            finally:
                self.depth -= 1
        else:
            self.error_at(tok.line, tok.column, "Se esperaba una expresión")
            raise _Resync
        for sign in reversed(minus):
            node = Neg(node, sign.line, sign.column)
        return node


def parse(tokens: list[Token]) -> tuple[Program | None, list[Diagnostic]]:
    """Parse a token list.  The tree is absent only when there was nothing
    to parse at all or the nesting went past MAX_NESTING; otherwise
    recovery always yields some Program."""
    parser = _Parser(tokens)
    try:
        program = parser.program()
    except _TooDeep:
        program = None
    return program, parser.diags


# ---------------------------------------------------------------------------
# XML representation (`arbol_de_sintaxis`); `treereader` reads it back


def tree_to_xml(root_name: str, tree: Program, source: str | None,
                with_codes: bool) -> str:
    """A tree document's text: the `programa` element, with codes for a
    revised tree, then `fuente` if given."""
    lines = [DECLARATION, f"<{root_name}>"]
    # Entries: a node and its depth, or a closing tag and None.
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth is None:
            lines.append(node)
            continue
        tag, attributes, fields, coded, _, _, _, _ = _FORMS[type(node)]
        tag = tag or node.op
        head = f"{indent(depth)}<{tag}"
        if attributes is not None:
            head += f' linea="{node.line}" columna="{node.column}"'
            for key, name, read in attributes:
                value = getattr(node, name)
                if read is str_attr:
                    value = escape_attr(value)
                head += f' {key}="{value}"'
        if with_codes and coded:
            head += f' codigo="{escape_attr(node.code)}"'
        kids = []
        for name in fields:
            value = getattr(node, name)
            if type(value) is list:
                kids += value
            elif value is not None:
                kids.append(value)
        if kids:
            lines.append(head + ">")
            stack.append((f"{indent(depth)}</{tag}>", None))
            stack += [(kid, depth + 1) for kid in reversed(kids)]
        else:
            lines.append(head + "/>")
    if source is not None:
        lines.append(cdata_line(1, "fuente", source))
    lines.append(f"</{root_name}>")
    return "\n".join(lines)


def ast_to_xml(ast: Program, source: str | None = None) -> str:
    return tree_to_xml("arbol_de_sintaxis", ast, source, with_codes=False)


def ast_from_xml(text: str) -> tuple[Program, str | None]:
    """Inverse of ast_to_xml.  Also accepts a revised tree, in which case
    the symbol codes are simply ignored."""

    from .treereader import tree_from_xml  # not loaded to compile a source

    def check_root(name):
        if name not in ("arbol_de_sintaxis", "arbol_de_sintaxis_revisado"):
            raise XmlLoadError(f"se esperaba el elemento raíz "
                               f"'arbol_de_sintaxis', no '{name}'")

    return tree_from_xml(text, check_root, keep_codes=False)
