"""Semantic analysis: name resolution over nested scopes.

Every declaration receives a short textual code that encodes where it
lives: blocks are `b` plus the scope path joined with underscores (`b0`,
`b0_0`), other symbols are a kind prefix (`c`, `v`, `p`) plus the scope
path joined with slashes, an underscore, and the 0-based declaration index
among symbols of the same kind (`v0_1`, `v0/0_2`).  The revised tree links
every use back to its declaration through these codes; that tree is all
the code generator reads.

Visibility follows declaration order: a procedure sees itself (recursion
works) and everything declared before it, but not siblings declared later.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, error
from .parser import (Assign, Block, Call, Ident, Program, Read, Write,
                     tree_from_xml, tree_to_xml, walk)
from .xmldoc import Record, XmlLoadError

CONSTANT = "constant"
VARIABLE = "variable"
PROCEDURE = "procedure"
BLOCK = "block"

_PREFIXES = {BLOCK: "b", CONSTANT: "c", VARIABLE: "v", PROCEDURE: "p"}


def symbol_code(kind: str, scope_path, index: int | None = None) -> str:
    """The textual id for a declaration (or a block, which has no index)."""
    prefix = _PREFIXES[kind]
    if kind == BLOCK:
        return prefix + "_".join(str(step) for step in scope_path)
    if index is None:
        raise ValueError(f"{kind} symbols need a declaration index")
    path = "/".join(str(step) for step in scope_path)
    return f"{prefix}{path}_{index}"


class Symbol(Record):
    __slots__ = ("name", "kind", "code", "depth", "value")

    def __init__(self, name: str, kind: str, code: str, depth: int,
                 value: int | None = None):
        self.name = name
        self.kind = kind
        self.code = code
        self.depth = depth
        self.value = value  # constants only


class Scope:
    """One block's symbols plus a link to the enclosing scope."""

    def __init__(self, path: list[int], parent: "Scope | None" = None):
        self.path = list(path)
        self.code = symbol_code(BLOCK, path)
        self.parent = parent
        self.symbols: dict[str, Symbol] = {}
        self._counts = {CONSTANT: 0, VARIABLE: 0, PROCEDURE: 0}

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    def declare(self, name: str, kind: str,
                value: int | None = None) -> Symbol | None:
        """Add a symbol; None signals a duplicate name in this scope."""
        if name in self.symbols:
            return None
        index = self._counts[kind]
        self._counts[kind] += 1
        symbol = Symbol(name, kind, symbol_code(kind, self.path, index),
                        self.depth, value)
        self.symbols[name] = symbol
        return symbol

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SymbolTable:
    """The `.pl0+sem` validator's state: every symbol and every block
    scope of a revised tree, by code."""

    def __init__(self):
        self.by_code: dict[str, Symbol] = {}
        self.scopes_by_code: dict[str, Scope] = {}

    def register_scope(self, scope: Scope) -> None:
        if scope.code in self.scopes_by_code:
            raise XmlLoadError(f"código de bloque duplicado: '{scope.code}'")
        self.scopes_by_code[scope.code] = scope

    def register(self, symbol: Symbol) -> None:
        if symbol.code in self.by_code:
            raise XmlLoadError(f"código duplicado: '{symbol.code}'")
        self.by_code[symbol.code] = symbol


# ---------------------------------------------------------------------------
# Analysis proper


class _Analyzer:
    def __init__(self):
        self.diags: list[Diagnostic] = []

    def err(self, node, message: str) -> None:
        self.diags.append(error("sem", node.line, node.column, message))

    def visit_block(self, block: Block, scope: Scope) -> None:
        block.code = scope.code
        for const in block.constants:
            self.declare(const, CONSTANT, scope, value=const.value)
        for var in block.variables:
            self.declare(var, VARIABLE, scope)
        for position, proc in enumerate(block.procedures):
            self.declare(proc, PROCEDURE, scope)
            # The child scope index is the syntactic position, so block
            # codes stay unique even when a duplicate name was rejected.
            self.visit_block(proc.block,
                             Scope(scope.path + [position], scope))
        self.visit_body(block.body, scope)

    def declare(self, node, kind: str, scope: Scope, value=None) -> None:
        symbol = scope.declare(node.name, kind, value)
        if symbol is None:
            self.err(node, "Símbolo duplicado")
        else:
            node.code = symbol.code

    def resolve(self, node, name: str, scope: Scope,
                target: bool = False) -> str | None:
        """The code of an identifier used where a value is needed, or that
        is about to be stored into if `target`; None if it is not one."""
        symbol = scope.lookup(name)
        if symbol is None:
            self.err(node, "Referencia a variable no declarada")
        elif symbol.kind == PROCEDURE:
            self.err(node, "Uso inválido de procedimiento")
        elif target and symbol.kind == CONSTANT:
            self.err(node, "Asignación a constante")
        else:
            return symbol.code
        return None

    def visit_body(self, body, scope: Scope) -> None:
        # A statement never contains declarations, so the whole body
        # resolves in the block's own scope.
        for node in walk(body):
            if isinstance(node, Assign):
                node.code = self.resolve(node, node.target, scope, True)
            elif isinstance(node, Call):
                symbol = scope.lookup(node.procedure)
                if symbol is None or symbol.kind != PROCEDURE:
                    self.err(node, "Referencia a procedimiento no declarado")
                else:
                    node.code = symbol.code
            elif isinstance(node, Read):
                node.code = self.resolve(node, node.variable, scope, True)
            elif isinstance(node, Write):
                node.code = self.resolve(node, node.symbol, scope)
            elif isinstance(node, Ident):
                node.code = self.resolve(node, node.name, scope)


def analyze(ast: Program) -> tuple[Program, list[Diagnostic]]:
    """Fill in the symbol codes of `ast` in place and return that same
    tree and any findings.  Running analyze again on the annotated tree
    assigns identical codes."""
    analyzer = _Analyzer()
    analyzer.visit_block(ast.block, Scope([0]))
    return ast, analyzer.diags


# ---------------------------------------------------------------------------
# XML form of the revised tree

ROOT_NAME = "arbol_de_sintaxis_revisado"


def revised_to_xml(revised: Program, source: str | None = None) -> str:
    """Requires a tree where analyze found no errors."""
    return tree_to_xml(ROOT_NAME, revised, source, with_codes=True)


def rebuild_symbol_table(revised: Program) -> SymbolTable:
    """Reconstruct the table implied by a code-annotated tree.

    Declarations keep the codes they carry (so hand-renamed codes keep
    working as link keys); procedure codes and depths are recomputed from
    the tree shape.  Read, write and call statements carry no code in the
    XML form, so their links are re-resolved here by name.
    Raises XmlLoadError for duplicate codes, dangling references,
    references to a symbol of the wrong kind, and references to a symbol
    that no scope around the use declares.
    """
    table, root = SymbolTable(), Scope([0])
    _rebuild_block(revised.block, root, table)
    _relink_block(revised.block, root, table)
    return table


def _require_code(node, what: str) -> str:
    if node.code is None:
        raise XmlLoadError(
            f"{what} '{node.name}' sin atributo 'codigo' (línea {node.line})")
    return node.code


def _rebuild_block(block: Block, scope: Scope, table: SymbolTable) -> None:
    if block.code is None:
        raise XmlLoadError(
            f"bloque sin atributo 'codigo' (línea {block.line})")
    scope.code = block.code
    table.register_scope(scope)

    def declare(node, kind: str, value=None) -> None:
        code = _require_code(node, {CONSTANT: "constante",
                                    VARIABLE: "variable",
                                    PROCEDURE: "procedimiento"}[kind])
        symbol = scope.declare(node.name, kind, value)
        if symbol is None:
            raise XmlLoadError(
                f"símbolo duplicado en el bloque: '{node.name}'")
        symbol.code = code
        table.register(symbol)

    for const in block.constants:
        declare(const, CONSTANT, const.value)
    for var in block.variables:
        declare(var, VARIABLE)
    for position, proc in enumerate(block.procedures):
        proc.code = None  # assigned canonically below
        symbol = scope.declare(proc.name, PROCEDURE)
        if symbol is None:
            raise XmlLoadError(
                f"símbolo duplicado en el bloque: '{proc.name}'")
        table.register(symbol)
        proc.code = symbol.code
        _rebuild_block(proc.block, Scope(scope.path + [position], scope),
                       table)


def _lookup_code(table: SymbolTable, scope: Scope, node,
                 kinds: tuple[str, ...]) -> Symbol:
    """The symbol `node.code` names, which must be of one of `kinds` and
    declared in `scope` or a scope around it, maybe shadowed there."""
    code = node.code
    if code is None:
        raise XmlLoadError(
            f"referencia sin atributo 'codigo' (línea {node.line})")
    symbol = table.by_code.get(code)
    if symbol is None:
        raise XmlLoadError(f"referencia a un código inexistente: '{code}'")
    if symbol.kind not in kinds:
        raise XmlLoadError(
            f"el código '{code}' no es de la clase de símbolo esperada")
    while scope is not None and scope.symbols.get(symbol.name) is not symbol:
        scope = scope.parent
    if scope is None:
        raise XmlLoadError(f"referencia a un código que no es visible: "
                           f"'{code}' (línea {node.line})")
    return symbol


def _resolve_name(scope: Scope, node, name: str,
                  kinds: tuple[str, ...]) -> Symbol:
    symbol = scope.lookup(name)
    if symbol is None or symbol.kind not in kinds:
        raise XmlLoadError(
            f"referencia irresoluble a '{name}' (línea {node.line})")
    return symbol


def _relink_block(block: Block, scope: Scope, table: SymbolTable) -> None:
    for proc in block.procedures:
        _relink_block(proc.block, table.scopes_by_code[proc.block.code],
                      table)
    for node in walk(block.body):
        if isinstance(node, Assign):
            _lookup_code(table, scope, node, (VARIABLE,))
        elif isinstance(node, Ident):
            _lookup_code(table, scope, node, (VARIABLE, CONSTANT))
        elif isinstance(node, Call):
            node.code = _resolve_name(scope, node, node.procedure,
                                      (PROCEDURE,)).code
        elif isinstance(node, Read):
            node.code = _resolve_name(scope, node, node.variable,
                                      (VARIABLE,)).code
        elif isinstance(node, Write):
            node.code = _resolve_name(scope, node, node.symbol,
                                      (VARIABLE, CONSTANT)).code


def revised_from_xml(text: str) -> tuple[Program, str | None]:
    """Inverse of revised_to_xml; also validates every code reference.
    Returns the tree and the source text when the document carries it."""

    def check_root(name):
        if name != ROOT_NAME:
            raise XmlLoadError(
                f"se esperaba el elemento '{ROOT_NAME}', no '{name}'")

    revised, source = tree_from_xml(text, check_root, keep_codes=True)
    rebuild_symbol_table(revised)
    return revised, source
