"""Reading a tree document, `.pl0+sin` or `.pl0+sem`, back into the
syntax tree of `parser`.

`parser.ast_from_xml` and `semantics.revised_from_xml` import this module
when they first run, so a command that compiles a source and reads no
tree document never loads it.
"""

from __future__ import annotations

from xml.parsers.expat import ParserCreate

from .parser import (_ADDING, _EXPRESSIONS, _FORMS, _MULTIPLYING,
                     _RELATIONAL, _STATEMENTS, MAX_NESTING, BinOp, Block,
                     Cond, ConstDecl, Empty, If, Num, ProcDecl, Program,
                     Sequence, VarDecl, _block_anchor)
from .xmldoc import (Integers, XmlLoadError, int_attr, read_document,
                     str_attr)

_CLASSES = {form.element: cls for cls, form in _FORMS.items()
            if form.element is not None}
_CLASSES |= dict.fromkeys((*_ADDING.values(), *_MULTIPLYING.values()), BinOp)
_COND_OPS = {*_RELATIONAL.values(), "odd"}


# Statements and procedures count toward MAX_NESTING here as they do in
# the parser, so a tree document admits the nesting a source admits.
# Expressions do not count: a flat sum is as deep as it is long.
_NESTED = _STATEMENTS | {ProcDecl}


def _quick(name: str, cls, keep_codes: bool):
    """The quick path's reader of an element `name` of `cls`: a function
    of its attributes, its children, the reader's integers and its
    `linea` and `columna` as those read them, that gives its node, or None
    when the element has a fault or is the program or a constant, which
    `_build` reads."""
    form = _FORMS[cls]
    key = form.attributes[0][0] if form.attributes else None
    coded = keep_codes and form.coded
    kinds = form.kinds
    first = {form.first} if form.first else kinds

    def leaf(attributes, kids, ints, line, column):
        value = attributes.get(key) if key else name
        if cls is Num:
            value = ints[value]
        if kids or value is None or line is None or column is None:
            return None
        node = cls(value, line, column) if key else cls(line, column)
        if coded:
            node.code = attributes.get("codigo")
        return node

    def unary(attributes, kids, ints, line, column):
        value = attributes.get(key) if key else name
        if len(kids) != 1 or type(kids[0]) not in first or value is None \
                or line is None or column is None:
            return None
        node = cls(value, kids[0], line, column) if key \
            else cls(kids[0], line, column)
        if coded:
            node.code = attributes.get("codigo")
        return node

    def binary(attributes, kids, ints, line, column):
        # operations, `ciclo`, `condicional`
        if len(kids) not in form.arity or type(kids[0]) not in first \
                or type(kids[1]) not in kinds or type(kids[-1]) not in kinds \
                or line is None or column is None:  # [-1]: an else branch
            return None
        if cls is BinOp:
            return BinOp(name, *kids, line, column)
        return cls(*kids, line, column) if len(kids) == len(form.children) \
            else If(*kids, None, line, column)

    def listed(attributes, kids, ints, line, column):
        # `secuencia`, `condicion`, `bloque`
        if not kinds.issuperset(map(type, kids)):
            return None
        if cls is Block:
            node = _block(kids)
            if node is not None and coded:
                node.code = attributes.get("codigo")
            return node
        value = attributes.get(key) if key else name
        if value is None or line is None or column is None:
            return None
        if cls is Sequence:
            return Sequence(kids, line, column)
        if value in _COND_OPS and len(kids) == 2 - (value == "odd"):
            return Cond(value, kids, line, column)
        return None

    if cls is Program or cls is ConstDecl:
        return None
    return (leaf, unary, binary, binary)[len(form.children)] \
        if form.arity is not None else listed


# The quick path's readers by element, without and with codes.
_QUICK = [{name: _quick(name, cls, keep_codes)
           for name, cls in _CLASSES.items()}
          for keep_codes in (False, True)]


def _block(kids: list) -> Block | None:
    """The block of these declarations and statements; None when more than
    one statement is among them."""
    groups = {ConstDecl: [], VarDecl: [], ProcDecl: []}
    statements: list = []
    for kid in kids:
        groups.get(type(kid), statements).append(kid)
    if len(statements) > 1:
        return None
    node = Block(*groups.values(),
                 statements[0] if statements else Empty(0, 0), 0, 0)
    node.line, node.column = _block_anchor(node)
    return node


def _load_error(name: str, detail: str) -> XmlLoadError:
    return XmlLoadError(f"elemento '{name}': {detail}")


def _build(name: str, cls, attributes: dict, kids: list, keep_codes: bool):
    """The node of an element of `cls` whose children have been read, or
    XmlLoadError for its first fault after its name and nesting, in the
    order tree_from_xml gives.  A child with a fault is a tuple: its name,
    its class, its stray content and its fault after its name."""
    _, attrs, fields, coded, arity, shape, first, kinds = _FORMS[cls]
    if cls is Cond:
        op = str_attr(name, attributes, "operacion")
        if op not in _COND_OPS:
            raise _load_error(name, f"operación desconocida: '{op}'")
        arity = (1,) if op == "odd" else (2,)
        shape = f"la operación '{op}' requiere {arity[0]} operando(s)"
    if arity is not None and (len(kids) not in arity or first and (
            kids[0][1] if type(kids[0]) is tuple
            else type(kids[0])) is not first):
        raise _load_error(name, shape)
    args = [] if cls is not BinOp else [name]
    for key, _, read in attrs or ():
        args.append(read(name, attributes, key))
    what = "expresión" if kinds is _EXPRESSIONS else "instrucción"
    for index, kid in enumerate(kids):
        kid_name, kind, stray, fault = kid if type(kid) is tuple else (
            _FORMS[type(kid)].element or kid.op, type(kid), None, None)
        if stray:
            raise XmlLoadError(stray)
        if (index or first is None) and kind not in kinds:
            raise XmlLoadError(f"{what} desconocida: '{kid_name}'")
        if fault:
            raise XmlLoadError(fault)
    if cls is Block:
        node = _block(kids)
        if node is None:
            raise _load_error(name, "más de una instrucción")
    elif cls is Program:
        node = Program(kids[0], kids[0].line, kids[0].column)
    else:
        if arity is None or cls is Cond:
            args.append(kids)
        else:
            args += kids + [None] * (len(fields) - len(kids))
        node = cls(*args, int_attr(name, attributes, "linea"),
                   int_attr(name, attributes, "columna"))
    if keep_codes and coded:
        node.code = attributes.get("codigo")
    return node


def tree_from_xml(text: str, check_root,
                  keep_codes: bool) -> tuple[Program, str | None]:
    """The tree and the source text of a tree document; `check_root(name)`
    raises XmlLoadError for a root element the caller does not take.

    The first fault counts: the root's; then those of the elements below
    it (a second `programa`, an element other than `programa` and
    `fuente`, then a missing `programa`); then that of `programa`.  An
    element of `programa` settles on its first fault when it closes, its
    children read, in this order: (1) stray text or CDATA in it, (2) its
    name or nesting, (3) its number of children and the class of the
    first, (4) its attributes in field order, (5) its children's faults in
    document order, (6) a block's one statement, then its position; a
    condition's operation comes before (3).  It hands that fault to its
    parent as a child's.  The quick path builds the node of an element
    with no fault; `_build` reads the others."""
    tree = source = root = sections = None
    seen = False  # a `programa`
    skipped = 0  # open elements of a `fuente`, which is not read
    stack: list[tuple] = []  # (name, attributes, children) per open element
    # What an open element found before its children, by the id of its
    # children's list: its stray content, or, more than MAX_NESTING
    # elements below `programa`, its nesting.
    early: dict = {}
    ints = Integers()
    table = _QUICK[keep_codes]
    parser = ParserCreate()

    def start(name, attributes):
        kids = []
        stack.append((name, attributes, kids))
        if len(stack) > MAX_NESTING + 1:  # `programa` is not counted
            above = early.get(id(stack[-2][2]))
            if type(above) is not int:  # the nesting above, not yet counted
                above = sum([_CLASSES.get(frame[0]) in _NESTED
                             for frame in stack[1:-1]])
            early[id(kids)] = above + (_CLASSES.get(name) in _NESTED)

    def end(name):
        nonlocal tree
        _, attributes, kids = stack.pop()
        found = early and early.pop(id(kids), None)
        quick = table.get(name)
        node = None if found or quick is None else quick(
            attributes, kids, ints, ints[attributes.get("linea")],
            ints[attributes.get("columna")])
        if node is None:
            cls = _CLASSES.get(name)
            if type(found) is str:
                node = (name, cls, f"elemento '{name}': {found}", None)
            elif found and found > MAX_NESTING:
                node = (name, cls, None, f"elemento '{name}': anidamiento "
                                         f"de más de {MAX_NESTING} niveles")
            elif cls is None:  # its parent reports its name
                node = (name, None, None, None)
            else:
                try:
                    node = _build(name, cls, attributes, kids, keep_codes)
                except XmlLoadError as exc:
                    node = (name, cls, None, str(exc))
            if not stack:  # `programa` closed
                tree = node
                parser.StartElementHandler = root_start
                parser.EndElementHandler = root_end
                parser.CharacterDataHandler = None
                return
        stack[-1][2].append(node)

    def chars(data):
        if not data.isspace():
            stray("texto inesperado")

    def cdata(data):
        if stack:
            stray("CDATA inesperado")
        elif skipped == 1:
            sections.append(data)

    def stray(detail: str) -> None:
        """Stray content in the innermost open element: its first fault."""
        key = id(stack[-1][2])
        if type(early.get(key)) is not str:
            early[key] = detail

    def root_start(name, attributes):
        nonlocal root, seen, sections, skipped
        if skipped:
            skipped += 1
        elif root is None:
            check_root(name)
            root = name
        elif name == "programa":
            if seen:
                raise XmlLoadError("más de un elemento 'programa'")
            seen = True
            stack.append((name, attributes, []))
            parser.StartElementHandler = start
            parser.EndElementHandler = end
            parser.CharacterDataHandler = chars
        elif name == "fuente":
            sections = []
            skipped = 1
        else:
            raise XmlLoadError(f"elemento inesperado: '{name}'")

    def root_end(name):
        nonlocal skipped, source
        if skipped:
            skipped -= 1
            if not skipped:
                source = "".join(sections)

    try:
        read_document(text, root_start, root_end, cdata=cdata, parser=parser)
    finally:
        root_start = None  # it and `end` hold each other
    if not seen:
        raise XmlLoadError("falta el elemento 'programa'")
    if type(tree) is tuple:
        raise XmlLoadError(tree[2] or tree[3])
    return tree, source
