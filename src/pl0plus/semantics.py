"""Semantic analysis: name resolution over nested scopes.

Every declaration receives a short textual code that encodes where it
lives: blocks are `b` plus the scope path joined with underscores (`b0`,
`b0_0`), other declarations are a kind prefix (`c`, `v`, `p`) plus the
scope path joined with slashes, an underscore, and the 0-based declaration
index among declarations of the same kind (`v0_1`, `v0/0_2`).  The
revised tree links every use back to its declaration through these codes;
that tree is all the code generator reads.

The declaration nodes are the symbol table: a scope maps each name to the
`ConstDecl`, `VarDecl` or `ProcDecl` that declares it, and the `.pl0+sem`
validator returns the declarations by code.

Visibility follows declaration order: a procedure sees itself (recursion
works) and everything declared before it, but not siblings declared later.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, error
from .parser import (Assign, Block, Call, ConstDecl, Ident, ProcDecl, Program,
                     Read, VarDecl, Write, tree_from_xml, tree_to_xml, walk)
from .xmldoc import XmlLoadError

# Each kind of declaration's code prefix, and the noun that names it in
# the validator's messages.
_KINDS = {ConstDecl: ("c", "constante"), VarDecl: ("v", "variable"),
          ProcDecl: ("p", "procedimiento")}


class Scope:
    """One block's declarations by name, each with its ordinal, plus a
    link to the enclosing scope.  A procedure's scope opens once the
    procedure is declared, and sees only the names its parent held then."""

    def __init__(self, path: list[int], parent: "Scope | None" = None):
        self.path = path
        self.code = "b" + "_".join(map(str, path))
        self.parent = parent
        self.seen = len(parent.names) if parent is not None else 0
        self.names: dict = {}
        self.ordinals: dict[str, int] = {}
        self._counts = dict.fromkeys(_KINDS, 0)

    def declare(self, node) -> str | None:
        """Add a declaration node and return its canonical code; None
        signals a duplicate name in this scope."""
        if node.name in self.names:
            return None
        self.ordinals[node.name] = len(self.names)
        self.names[node.name] = node
        kind = type(node)
        index = self._counts[kind]
        self._counts[kind] = index + 1
        return f"{_KINDS[kind][0]}{'/'.join(map(str, self.path))}_{index}"

    def lookup(self, name: str):
        """The declaration of `name` in this scope or one around it, among
        the names each scope around it sees."""
        scope: Scope | None = self
        seen = len(self.names)
        while scope is not None:
            if scope.ordinals.get(name, seen) < seen:
                return scope.names[name]
            scope, seen = scope.parent, scope.seen
        return None


# ---------------------------------------------------------------------------
# Analysis proper


class _Analyzer:
    def __init__(self):
        self.diags: list[Diagnostic] = []

    def err(self, node, message: str) -> None:
        self.diags.append(error("sem", node.line, node.column, message))

    def visit_block(self, block: Block, scope: Scope) -> None:
        block.code = scope.code
        for node in block.constants + block.variables:
            self.declare(node, scope)
        for position, proc in enumerate(block.procedures):
            self.declare(proc, scope)
            # The child scope index is the syntactic position, so block
            # codes stay unique even when a duplicate name was rejected.
            self.visit_block(proc.block,
                             Scope(scope.path + [position], scope))
        self.visit_body(block.body, scope)

    def declare(self, node, scope: Scope) -> None:
        code = scope.declare(node)
        if code is None:
            self.err(node, "Símbolo duplicado")
        else:
            node.code = code

    def resolve(self, node, name: str, scope: Scope,
                target: bool = False) -> str | None:
        """The code of an identifier used where a value is needed, or that
        is about to be stored into if `target`; None if it is not one."""
        decl = scope.lookup(name)
        if decl is None:
            self.err(node, "Referencia a variable no declarada")
        elif isinstance(decl, ProcDecl):
            self.err(node, "Uso inválido de procedimiento")
        elif target and isinstance(decl, ConstDecl):
            self.err(node, "Asignación a constante")
        else:
            return decl.code
        return None

    def visit_body(self, body, scope: Scope) -> None:
        # A statement never contains declarations, so the whole body
        # resolves in the block's own scope.
        for node in walk(body):
            if isinstance(node, Assign):
                node.code = self.resolve(node, node.target, scope, True)
            elif isinstance(node, Call):
                decl = scope.lookup(node.procedure)
                if not isinstance(decl, ProcDecl):
                    self.err(node, "Referencia a procedimiento no declarado")
                else:
                    node.code = decl.code
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


def rebuild_symbol_table(revised: Program) -> dict:
    """Check the codes of a code-annotated tree and return its
    declarations by code.

    Declarations keep the codes they carry (so hand-renamed codes keep
    working as link keys); procedure codes are recomputed from the tree
    shape.  Read, write and call statements carry no code in the XML form,
    so their links are re-resolved here by name.
    Raises XmlLoadError for duplicate codes, dangling references,
    references to a declaration of the wrong kind, and references to a
    declaration that no scope around the use makes.
    """
    declarations: dict = {}
    scopes: dict[str, Scope] = {}
    root = Scope([0])
    _declare_block(revised.block, root, declarations, scopes)
    _relink_block(revised.block, root, declarations, scopes)
    return declarations


def _declare(scope: Scope, node, declarations: dict) -> None:
    """Declare `node` in `scope` and file it under its code, which is
    the canonical one for a procedure and the one it carries otherwise."""
    proc = isinstance(node, ProcDecl)
    if not proc and node.code is None:
        raise XmlLoadError(f"{_KINDS[type(node)][1]} '{node.name}' sin "
                           f"atributo 'codigo' (línea {node.line})")
    code = scope.declare(node)
    if code is None:
        raise XmlLoadError(f"símbolo duplicado en el bloque: '{node.name}'")
    if proc:
        node.code = code
    if node.code in declarations:
        raise XmlLoadError(f"código duplicado: '{node.code}'")
    declarations[node.code] = node


def _declare_block(block: Block, scope: Scope, declarations: dict,
                   scopes: dict[str, Scope]) -> None:
    if block.code is None:
        raise XmlLoadError(
            f"bloque sin atributo 'codigo' (línea {block.line})")
    if block.code in scopes:
        raise XmlLoadError(f"código de bloque duplicado: '{block.code}'")
    scopes[block.code] = scope
    for node in block.constants + block.variables:
        _declare(scope, node, declarations)
    for position, proc in enumerate(block.procedures):
        _declare(scope, proc, declarations)
        _declare_block(proc.block, Scope(scope.path + [position], scope),
                       declarations, scopes)


def _check_code(declarations: dict, scope: Scope, node, kinds) -> None:
    """`node.code` must name a declaration of one of `kinds`, made in
    `scope` or a scope around it, maybe shadowed there."""
    code = node.code
    if code is None:
        raise XmlLoadError(
            f"referencia sin atributo 'codigo' (línea {node.line})")
    decl = declarations.get(code)
    if decl is None:
        raise XmlLoadError(f"referencia a un código inexistente: '{code}'")
    if not isinstance(decl, kinds):
        raise XmlLoadError(
            f"el código '{code}' no es de la clase de símbolo esperada")
    while scope is not None and scope.names.get(decl.name) is not decl:
        scope = scope.parent
    if scope is None:
        raise XmlLoadError(f"referencia a un código que no es visible: "
                           f"'{code}' (línea {node.line})")


def _resolve_name(scope: Scope, node, name: str, kinds) -> str:
    decl = scope.lookup(name)
    if not isinstance(decl, kinds):
        raise XmlLoadError(
            f"referencia irresoluble a '{name}' (línea {node.line})")
    return decl.code


def _relink_block(block: Block, scope: Scope, declarations: dict,
                  scopes: dict[str, Scope]) -> None:
    for proc in block.procedures:
        _relink_block(proc.block, scopes[proc.block.code], declarations,
                      scopes)
    for node in walk(block.body):
        if isinstance(node, Assign):
            _check_code(declarations, scope, node, VarDecl)
        elif isinstance(node, Ident):
            _check_code(declarations, scope, node, (VarDecl, ConstDecl))
        elif isinstance(node, Call):
            node.code = _resolve_name(scope, node, node.procedure, ProcDecl)
        elif isinstance(node, Read):
            node.code = _resolve_name(scope, node, node.variable, VarDecl)
        elif isinstance(node, Write):
            node.code = _resolve_name(scope, node, node.symbol,
                                      (VarDecl, ConstDecl))


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
