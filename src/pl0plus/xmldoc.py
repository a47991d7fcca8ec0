"""Minimal XML document model shared by every compiler phase.

The phases exchange their results as small XML documents (token lists,
syntax trees, object code, error reports).  This module covers exactly what
those documents need: elements with ordered attributes, text, and CDATA
sections.  Parsing is delegated to expat; serialization follows the fixed
house style (one XML declaration, two-space indentation up to 32 levels,
self-closing empty elements, CDATA kept inline with its parent tag).  The
`Record` base here also serves the p+ format's records in `pvm`.

The reader trusts expat: it only delivers well-formed names and `str`
values, so the reader's nodes skip the name check and the `str` coercion.
The building API (`XmlNode(...)`, `.set()`, `.element()`) keeps both, and
checks each name in full only the first time it sees it.
"""

from __future__ import annotations

import re
import xml.parsers.expat


class XmlParseError(Exception):
    """Malformed XML input.  Carries the position of the first offense."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (línea {line}, columna {column})")
        self.message = message
        self.line = line
        self.column = column


class XmlLoadError(Exception):
    """A well-formed document does not encode what a phase expected."""


# Element and attribute names: non-empty, no whitespace, none of the
# characters that XML reserves for markup.
_NAME_RE = re.compile(r"[^\s<>&'\"/=?!]+")


# Names that have passed the check.  Only exact `str` values go in, so a
# `str` subclass is always checked in full; the cap bounds the memory that
# names taken from documents can claim in a long-lived process.
_valid_names: set = set()
_MAX_VALID_NAMES = 1024


def _check_name(name: str) -> str:
    if type(name) is str and name in _valid_names:
        return name
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid XML name: {name!r}")
    if type(name) is str and len(_valid_names) < _MAX_VALID_NAMES:
        _valid_names.add(name)
    return name


class Record:
    """A slotted record: equality and repr over the fields in `__slots__`.

    Two records compare equal when they have the same class and equal
    fields, leaving out those named in `_uncompared`.  Defining `__eq__`
    leaves them unhashable, as mutable records should be.
    """

    __slots__ = ()
    _uncompared = ()

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__
                     if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Text(Record):
    __slots__ = ("data",)

    def __init__(self, data: str):
        self.data = data


class Cdata(Record):
    """A CDATA section.  The payload is reproduced verbatim on output.

    A single section can never contain the terminator "]]>"; callers with
    arbitrary payloads use cdata_sections() which applies the standard
    split-into-adjacent-sections escape.
    """

    __slots__ = ("data",)

    def __init__(self, data: str):
        if "]]>" in data:
            raise ValueError('CDATA payload must not contain "]]>"')
        self.data = data


def cdata_sections(text: str) -> list[Cdata]:
    """Split arbitrary text into CDATA sections, escaping any "]]>"."""
    parts = []
    while "]]>" in text:
        cut = text.index("]]>") + 2
        parts.append(Cdata(text[:cut]))
        text = text[cut:]
    parts.append(Cdata(text))
    return parts


class XmlNode(Record):
    """An element: a name, ordered unique attributes, ordered children."""

    __slots__ = ("name", "attributes", "children")

    def __init__(self, name: str, attributes: dict | None = None,
                 children: list | None = None):
        self.name = _check_name(name)
        self.attributes = {_check_name(key): str(value)
                           for key, value in (attributes or {}).items()}
        self.children = [] if children is None else children

    def set(self, name: str, value) -> None:
        self.attributes[_check_name(name)] = str(value)

    def get(self, name: str, default=None):
        return self.attributes.get(name, default)

    def add(self, child):
        self.children.append(child)
        return child

    def element(self, name: str, **attributes) -> "XmlNode":
        """Append and return a new child element (attribute order preserved)."""
        return self.add(XmlNode(name, attributes))

    def elements(self) -> list["XmlNode"]:
        return [c for c in self.children if isinstance(c, XmlNode)]

    def find(self, name: str) -> "XmlNode | None":
        for child in self.children:
            if isinstance(child, XmlNode) and child.name == name:
                return child
        return None

    def text(self) -> str:
        return "".join(c.data for c in self.children if isinstance(c, Text))

    def cdata(self) -> str:
        return "".join(c.data for c in self.children if isinstance(c, Cdata))


class XmlDocument(Record):
    __slots__ = ("root",)

    def __init__(self, root: XmlNode):
        self.root = root


def cdata_element(name: str, text: str) -> XmlNode:
    """An element wrapping arbitrary text as CDATA (used for `fuente` etc.)."""
    return XmlNode(name, {}, list(cdata_sections(text)))


def str_attr(element: XmlNode, name: str) -> str:
    """A required attribute; XmlLoadError when it is missing."""
    raw = element.get(name)
    if raw is None:
        raise XmlLoadError(
            f"elemento '{element.name}': falta el atributo '{name}'")
    return raw


def int_attr(element: XmlNode, name: str) -> int:
    """A required integer attribute: an optional "-" and ASCII digits.
    XmlLoadError when it is missing or anything else, such as "+3", " 7",
    "0_1" or non-ASCII digits, all of which int() would take."""
    raw = str_attr(element, name)
    if raw.isascii() and (raw.isdigit()
                          or raw[:1] == "-" and raw[1:].isdigit()):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    raise XmlLoadError(
        f"elemento '{element.name}': el atributo '{name}' no es un "
        f"entero: {raw!r}")


# ---------------------------------------------------------------------------
# Parsing


def parse_document(text: str) -> XmlDocument:
    """Parse XML text into a document tree.

    Only elements, attributes, text, and CDATA are accepted; comments are
    discarded.  Processing instructions and DTDs raise XmlParseError, as
    does any well-formedness violation (with the line and column of the
    first offense; lines are 1-based, columns 0-based).  Whitespace-only
    text between sibling elements is dropped.
    """
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    # expat admits exactly one root element, so the holder at the bottom
    # of the stack ends up with exactly that one child.
    stack = [XmlNode("documento")]
    in_cdata = False
    new_node = XmlNode.__new__

    def fail(message: str):
        raise XmlParseError(message, parser.CurrentLineNumber,
                            parser.CurrentColumnNumber)

    def drop_blank(children: list) -> None:
        # Indentation whitespace next to a child element or CDATA section
        # is formatting, not content; text-only elements keep their text.
        if children and type(children[-1]) is Text \
                and not children[-1].data.strip():
            children.pop()

    def start_element(name, attributes):
        siblings = stack[-1].children
        drop_blank(siblings)
        # expat hands over checked names and a fresh dict of `str` values
        # in document order, so the node is built without XmlNode's checks.
        node = new_node(XmlNode)
        node.name = name
        node.attributes = attributes
        node.children = []
        siblings.append(node)
        stack.append(node)

    def end_element(name):
        children = stack.pop().children
        if len(children) > 1:
            drop_blank(children)

    def char_data(data):
        children = stack[-1].children
        if in_cdata or (children and type(children[-1]) is Text):
            children[-1].data += data
        else:
            children.append(Text(data))

    def start_cdata():
        nonlocal in_cdata
        children = stack[-1].children
        drop_blank(children)
        children.append(Cdata(""))
        in_cdata = True

    def end_cdata():
        nonlocal in_cdata
        in_cdata = False

    def reject_pi(target, data):
        fail("instrucción de procesamiento no admitida")

    def reject_doctype(*args):
        fail("declaración DOCTYPE no admitida")

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = char_data
    parser.StartCdataSectionHandler = start_cdata
    parser.EndCdataSectionHandler = end_cdata
    parser.ProcessingInstructionHandler = reject_pi
    parser.StartDoctypeDeclHandler = reject_doctype
    parser.CommentHandler = lambda data: None

    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlParseError(
            xml.parsers.expat.errors.messages[exc.code],
            exc.lineno, exc.offset) from None
    return XmlDocument(stack[0].children[0])


# ---------------------------------------------------------------------------
# Serialization


# The characters each escape function rewrites; most values have none.
_TEXT_SPECIAL = re.compile("[&<>\r]")
_ATTR_SPECIAL = re.compile('[&<>\r"\n\t]')


def _escape_text(data: str) -> str:
    if _TEXT_SPECIAL.search(data) is None:
        return data
    data = data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    # Bare carriage returns would be line-end-normalized away on reparse.
    return data.replace("\r", "&#13;")


def _escape_attr(data: str) -> str:
    if _ATTR_SPECIAL.search(data) is None:
        return data
    # Newlines and tabs in attribute values must become character references
    # or the reparse would whitespace-normalize them to plain spaces.
    return (_escape_text(data).replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\t", "&#9;"))


def _inline_content(children) -> str:
    parts = []
    for child in children:
        if isinstance(child, Text):
            parts.append(_escape_text(child.data))
        else:
            parts.append(f"<![CDATA[{child.data}]]>")
    return "".join(parts)


# Elements deeper than this many levels get no more indentation than it,
# so a document's size grows with its element count, not with the square
# of its depth.  Every phase document of a sensible program is shallower.
MAX_INDENT_LEVELS = 32
_MAX_PAD = 2 * MAX_INDENT_LEVELS   # spaces


def serialize_document(doc: XmlDocument) -> str:
    """Pretty-print a document in the fixed style used by every phase."""
    lines = ['<?xml version="1.0" ?>']
    # One entry per open element: an iterator over the children still to
    # render, their indentation, and the element's closing tag.
    stack = [(iter((doc.root,)), "", None)]
    while stack:
        children, pad, closing = stack[-1]
        for child in children:
            if not isinstance(child, XmlNode):
                lines.append(pad + _inline_content((child,)))
                continue
            name = child.name
            attrs = "".join([f' {k}="{_escape_attr(v)}"'
                             for k, v in child.attributes.items()])
            if not child.children:
                lines.append(f"{pad}<{name}{attrs}/>")
            elif XmlNode not in map(type, child.children):
                content = _inline_content(child.children)
                lines.append(f"{pad}<{name}{attrs}>{content}</{name}>")
            else:
                lines.append(f"{pad}<{name}{attrs}>")
                inner = pad + "  " if len(pad) < _MAX_PAD else pad
                stack.append((iter(child.children), inner,
                              f"{pad}</{name}>"))
                break
        else:
            stack.pop()
            if closing is not None:
                lines.append(closing)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Canonical comparison


def _canonical_children(children) -> list:
    """Children as (kind, payload) pairs: adjacent text runs merged and
    trimmed, adjacent CDATA sections concatenated verbatim (undoing the
    "]]>" split escape, so no Cdata value is re-validated here)."""
    merged: list = []
    for child in children:
        if isinstance(child, (Text, Cdata)):
            kind = type(child)
            if merged and merged[-1][0] is kind:
                merged[-1] = (kind, merged[-1][1] + child.data)
            else:
                merged.append((kind, child.data))
        else:
            merged.append((XmlNode, child))
    out = []
    for kind, payload in merged:
        if kind is Text:
            stripped = payload.strip()
            if stripped:
                out.append((Text, stripped))
        else:
            out.append((kind, payload))
    return out


def _canonical_node_equal(a: XmlNode, b: XmlNode) -> bool:
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a.name != b.name or a.attributes != b.attributes:
            return False
        ca = _canonical_children(a.children)
        cb = _canonical_children(b.children)
        if len(ca) != len(cb):
            return False
        for (ka, pa), (kb, pb) in zip(ca, cb):
            if ka is not kb:
                return False
            if ka is XmlNode:
                pairs.append((pa, pb))
            elif pa != pb:
                return False
    return True


def canonical_equal(a, b) -> bool:
    """Structural equality: attribute order is irrelevant, text nodes are
    compared with surrounding whitespace trimmed (adjacent runs merged),
    CDATA is compared verbatim (adjacent sections merged first, so the
    "]]>" split escape does not affect equality)."""
    ra = a.root if isinstance(a, XmlDocument) else a
    rb = b.root if isinstance(b, XmlDocument) else b
    return _canonical_node_equal(ra, rb)
