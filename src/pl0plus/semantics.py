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
validator returns the declarations by code.  One walk over the blocks
declares their names and lists each block with its scope, and one table
says which node classes use a name; the analysis and the validator share
both and differ only in what they do with a declaration and with a use.

Visibility follows declaration order: a procedure sees itself (recursion
works) and everything declared before it, but not siblings declared later.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, error
from .parser import (_FORMS, Assign, Block, Call, ConstDecl, Ident, ProcDecl,
                     Program, Read, VarDecl, Write, tree_from_xml,
                     tree_to_xml, walk)
from .xmldoc import XmlLoadError

# Each kind of declaration's code prefix, and the noun that names it in
# the validator's messages.
_KINDS = {ConstDecl: ("c", "constante"), VarDecl: ("v", "variable"),
          ProcDecl: ("p", "procedimiento")}
# Each node class that uses a name: the field that holds the name, and
# the kinds of declaration the name may denote there.
_USES = {Assign: ("target", VarDecl), Read: ("variable", VarDecl),
         Call: ("procedure", ProcDecl),
         Write: ("symbol", (VarDecl, ConstDecl)),
         Ident: ("name", (VarDecl, ConstDecl))}


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


def _declare_blocks(block: Block, scope: Scope, declare) -> list:
    """Declare the names of `block` in `scope` through `declare(node,
    scope)`: its constants and variables, then each procedure followed by
    the names of the procedure's block, in a child scope.  Returns each
    block with its scope, a procedure's block before the block that
    declares it."""
    for node in block.constants + block.variables:
        declare(node, scope)
    blocks = []
    for position, proc in enumerate(block.procedures):
        declare(proc, scope)
        # The child scope index is the syntactic position, so block
        # codes stay unique even when a duplicate name was rejected.
        blocks += _declare_blocks(
            proc.block, Scope(scope.path + [position], scope), declare)
    return blocks + [(block, scope)]


def analyze(ast: Program) -> tuple[Program, list[Diagnostic]]:
    """Fill in the symbol codes of `ast` in place and return that same
    tree and any findings.  Running analyze again on the annotated tree
    assigns identical codes."""
    diags: list[Diagnostic] = []

    def declare(node, scope: Scope) -> None:
        code = scope.declare(node)
        if code is None:
            diags.append(error("sem", node.line, node.column,
                               "Símbolo duplicado"))
        else:
            node.code = code

    for block, scope in _declare_blocks(ast.block, Scope([0]), declare):
        block.code = scope.code
        # A statement never contains declarations, so the whole body
        # resolves in the block's own scope.
        for node in walk(block.body):
            use = _USES.get(type(node))
            if use is None:
                continue
            field, kinds = use
            decl = scope.lookup(getattr(node, field))
            if isinstance(decl, kinds):
                node.code = decl.code
                continue
            if kinds is ProcDecl:
                message = "Referencia a procedimiento no declarado"
            elif decl is None:
                message = "Referencia a variable no declarada"
            elif isinstance(decl, ProcDecl):
                message = "Uso inválido de procedimiento"
            else:
                message = "Asignación a constante"
            diags.append(error("sem", node.line, node.column, message))
    return ast, diags


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
    block_codes: set[str] = set()

    def enter(block: Block) -> None:
        if block.code is None:
            raise XmlLoadError(
                f"bloque sin atributo 'codigo' (línea {block.line})")
        if block.code in block_codes:
            raise XmlLoadError(f"código de bloque duplicado: '{block.code}'")
        block_codes.add(block.code)

    def declare(node, scope: Scope) -> None:
        proc = isinstance(node, ProcDecl)
        if not proc and node.code is None:
            raise XmlLoadError(f"{_KINDS[type(node)][1]} '{node.name}' sin "
                               f"atributo 'codigo' (línea {node.line})")
        code = scope.declare(node)
        if code is None:
            raise XmlLoadError(
                f"símbolo duplicado en el bloque: '{node.name}'")
        if proc:
            node.code = code
        if node.code in declarations:
            raise XmlLoadError(f"código duplicado: '{node.code}'")
        declarations[node.code] = node
        if proc:  # before the names its block declares
            enter(node.block)

    enter(revised.block)
    for block, scope in _declare_blocks(revised.block, Scope([0]), declare):
        for node in walk(block.body):
            use = _USES.get(type(node))
            if use is None:
                continue
            field, kinds = use
            if _FORMS[type(node)].coded:
                _check_code(declarations, scope, node, kinds)
                continue
            name = getattr(node, field)
            decl = scope.lookup(name)
            if not isinstance(decl, kinds):
                raise XmlLoadError(
                    f"referencia irresoluble a '{name}' (línea {node.line})")
            node.code = decl.code
    return declarations


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
