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
from .xmldoc import (DECLARATION, Integers, Record, XmlLoadError,
                     cdata_line, escape_attr, indent, int_attr, read_document,
                     str_attr)

# ---------------------------------------------------------------------------
# Tree nodes.  `code` fields stay None until semantic analysis fills them.


class ConstDecl(Record):
    __slots__ = ("name", "value", "line", "column", "code")

    def __init__(self, name: str, value: int, line: int, column: int,
                 code=None):
        self.name = name
        self.value = value  # sign already folded in
        self.line = line
        self.column = column
        self.code = code


class VarDecl(Record):
    __slots__ = ("name", "line", "column", "code")

    def __init__(self, name: str, line: int, column: int, code=None):
        self.name = name
        self.line = line
        self.column = column
        self.code = code


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


class Ident(Record):
    __slots__ = ("name", "line", "column", "code")

    def __init__(self, name: str, line: int, column: int, code=None):
        self.name = name
        self.line = line
        self.column = column
        self.code = code


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
    __slots__ = ("target", "expr", "line", "column", "code")

    def __init__(self, target: str, expr: Expr, line: int, column: int,
                 code=None):
        self.target = target
        self.expr = expr
        self.line = line
        self.column = column
        self.code = code


class Call(Record):
    __slots__ = ("procedure", "line", "column", "code")

    def __init__(self, procedure: str, line: int, column: int, code=None):
        self.procedure = procedure
        self.line = line
        self.column = column
        self.code = code


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


class Read(Record):
    __slots__ = ("variable", "line", "column", "code")

    def __init__(self, variable: str, line: int, column: int, code=None):
        self.variable = variable
        self.line = line
        self.column = column
        self.code = code


class Write(Record):
    __slots__ = ("symbol", "line", "column", "code")

    def __init__(self, symbol: str, line: int, column: int, code=None):
        self.symbol = symbol
        self.line = line
        self.column = column
        self.code = code


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
    Assign: _Form("asignacion", (("variable", "target", str_attr),),
                  ("expr",), True,
                  (1,), "se esperaba exactamente una expresión", None,
                  _EXPRESSIONS),
    Call: _Form("llamada", (("procedimiento", "procedure", str_attr),),
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
    Read: _Form("leer", (("variable", "variable", str_attr),), (), False,
                *_LEAF),
    Write: _Form("escribir", (("simbolo", "symbol", str_attr),), (), False,
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
        for name in reversed(_FORMS[type(node)].children):
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
# XML representation (`arbol_de_sintaxis`)


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


# -- reading back

_CLASSES = {form.element: cls for cls, form in _FORMS.items()
            if form.element is not None}
_CLASSES |= dict.fromkeys((*_ADDING.values(), *_MULTIPLYING.values()), BinOp)
_COND_OPS = {*_RELATIONAL.values(), "odd"}


# Statements and procedures count toward MAX_NESTING here as they do in
# the parser, so a tree document admits the nesting a source admits.
# Expressions do not count: a flat sum is as deep as it is long.
_NESTED = _STATEMENTS | {ProcDecl}


def _load_error(name: str, detail: str) -> XmlLoadError:
    return XmlLoadError(f"elemento '{name}': {detail}")


def _shape_error(name: str, cls, arity, args: list) -> XmlLoadError:
    """The error of an element whose children do not fit its shape."""
    if cls is Cond:
        return _load_error(name, f"la operación '{args[0]}' requiere "
                                 f"{arity[0]} operando(s)")
    return _load_error(name, _FORMS[cls].shape)


def tree_from_xml(text: str, check_root,
                  keep_codes: bool) -> tuple[Program, str | None]:
    """The tree and the source text of a tree document; `check_root(name)`
    raises XmlLoadError for a root element the caller does not take.

    The first fault counts: the root's; then those of the elements below
    it (a second `programa`, an element other than `programa` and
    `fuente`, then a missing `programa`); then that of `programa`.  An
    element of `programa` settles on its first fault when it closes, in
    this order: (1) stray text or CDATA in it, (2) its name or nesting,
    (3) its number of children and the class of the first, (4) its
    attributes in field order and a condition's operation, (5) its
    children's faults in document order, (6) a block's one statement,
    then its position.  It hands that fault to its parent as a child's."""
    tree = source = root = fault = sections = None
    seen = False  # a `programa`
    skipped = 0  # open elements whose content is not read
    # One frame per open element of `programa`: its name, class, allowed
    # numbers of children (None: not checked), form, leading arguments,
    # the nodes of its children read so far (None for a child with a
    # fault, or only counted), its attributes, its nesting, its stray
    # content fault and its other fault: the one it opened with, a child's,
    # or its shape's when a child breaks it.  While it holds that fault,
    # its children are only counted.
    stack: list[list] = []
    ints = Integers()

    def start(name, attributes):
        nonlocal root, seen, sections, skipped
        if skipped:
            skipped += 1
        elif stack:
            frame = stack[-1]
            parity, pform, kids = frame[2], frame[3], frame[5]
            cls = _CLASSES.get(name)
            if parity is not None and (
                    len(kids) == parity[-1] or not kids
                    and pform.first is not None and cls is not pform.first):
                frame[9] = _shape_error(frame[0], frame[1], parity, frame[4])
                skipped = 1
                return
            if frame[9] is not None:
                kids.append(None)
                skipped = 1
                return
            form = _FORMS.get(cls)
            nesting = frame[7]
            args = arity = failure = None
            if cls in _NESTED:
                nesting += 1
            if (kids or pform.first is None) and cls not in pform.kinds:
                what = "expresión" if pform.kinds is _EXPRESSIONS \
                    else "instrucción"
                failure = XmlLoadError(f"{what} desconocida: '{name}'")
            elif nesting > MAX_NESTING:
                failure = _load_error(name, f"anidamiento de más de "
                                          f"{MAX_NESTING} niveles")
            else:
                arity = form.arity
                args = [] if form.element is not None else [name]
                try:
                    for key, _, read in form.attributes or ():
                        args.append(read(name, attributes, key))
                except XmlLoadError as exc:
                    # with its traceback, it would hold this frame
                    failure = exc.with_traceback(None)
                else:
                    if cls is Cond:
                        op = args[0]
                        if op in _COND_OPS:
                            arity = (1,) if op == "odd" else (2,)
                        else:
                            failure = _load_error(
                                name, f"operación desconocida: '{op}'")
            stack.append([name, cls, arity, form, args, [], attributes,
                          nesting, None, failure])
        elif root is None:
            check_root(name)
            root = name
        elif name == "programa":
            if seen:
                raise XmlLoadError("más de un elemento 'programa'")
            seen = True
            form = _FORMS[Program]
            stack.append([name, Program, form.arity, form, [], [],
                          attributes, 0, None, None])
        elif name == "fuente":
            sections = []
            skipped = 1
        else:
            raise XmlLoadError(f"elemento inesperado: '{name}'")

    def end(name):
        nonlocal tree, fault, sections, skipped, source
        if skipped:
            skipped -= 1
            if not skipped and sections is not None:
                source = "".join(sections)
                sections = None
            return
        if not stack:
            return
        _, cls, arity, form, args, kids, attributes, _, failure, held = \
            stack.pop()
        node = None
        if failure is None:
            if arity is not None and len(kids) not in arity:
                failure = _shape_error(name, cls, arity, args)
            else:
                failure = held
        if failure is None:
            try:
                if cls is Block:
                    groups = {ConstDecl: [], VarDecl: [], ProcDecl: []}
                    statements: list = []
                    for kid in kids:
                        groups.get(type(kid), statements).append(kid)
                    if len(statements) > 1:
                        raise _load_error(name, "más de una instrucción")
                    body = statements[0] if statements else Empty(0, 0)
                    node = Block(*groups.values(), body, 0, 0)
                    node.line, node.column = _block_anchor(node)
                elif cls is Program:
                    node = Program(kids[0], kids[0].line, kids[0].column)
                else:
                    if form.arity is None:
                        args.append(kids)
                    else:
                        args += kids + [None] * (len(form.children)
                                                 - len(kids))
                    node = cls(*args, ints[attributes.get("linea")]
                               or int_attr(name, attributes, "linea"),
                               ints[attributes.get("columna")]
                               or int_attr(name, attributes, "columna"))
                if keep_codes and form.coded:
                    node.code = attributes.get("codigo")
            except XmlLoadError as exc:
                failure = exc.with_traceback(None)
        if stack:
            parent = stack[-1]
            parent[5].append(node)
            parent[9] = failure  # None before: else it skips its children
        else:
            tree, fault = node, failure

    def chars(data):
        if stack and not skipped and not data.isspace():
            stray("texto inesperado")

    def cdata(data):
        if stack and not skipped:
            stray("CDATA inesperado")
        elif skipped == 1 and sections is not None:
            sections.append(data)

    def stray(detail: str) -> None:
        """Stray content in the innermost element read: its first fault."""
        frame = stack[-1]
        if frame[8] is None:
            frame[8] = _load_error(frame[0], detail)

    read_document(text, start, end, chars, cdata)
    if not seen:
        raise XmlLoadError("falta el elemento 'programa'")
    if fault is not None:
        try:
            raise fault
        finally:
            fault = None  # or this frame and the error would hold each other
    return tree, source


def ast_from_xml(text: str) -> tuple[Program, str | None]:
    """Inverse of ast_to_xml.  Also accepts a revised tree, in which case
    the symbol codes are simply ignored."""

    def check_root(name):
        if name not in ("arbol_de_sintaxis", "arbol_de_sintaxis_revisado"):
            raise XmlLoadError(f"se esperaba el elemento raíz "
                               f"'arbol_de_sintaxis', no '{name}'")

    return tree_from_xml(text, check_root, keep_codes=False)
