"""Minimal XML document model shared by every compiler phase.

The phases exchange their results as small XML documents (token lists,
syntax trees, object code, error reports).  This module covers exactly what
those documents need: elements with ordered attributes, text, and CDATA
sections.  Parsing is delegated to expat; the output follows the fixed
house style (one XML declaration, two-space indentation up to 32 levels,
self-closing empty elements, text and CDATA kept inline with their parent
tag).  Its `Record` base serves every record of the compiler and the
machine too.

No command builds a tree.  The phase writers and the `-x` error report
emit their text with the writing helpers that `serialize_document` uses
too, and each phase reader hands its own handlers to `read_document`,
which runs expat and builds the phase's records as the events arrive.
Python runs only where a reader keeps something: one that keeps no text
outside CDATA sets no character-data handler, and one that keeps the text
of some elements sets the parser's only while such an element is open.
`XmlNode` trees, `parse_document` and `serialize_document` remain as the
tests' oracle for each writer's text, and because perfbench's tracer
looks both functions up here; the tests compare two trees with their own
`xmltree.canonical_equal`.  The readers trust expat's names and `str`
values; the building API (`XmlNode(...)`, `.set()`, `.element()`) checks
names and coerces values to `str`.
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


def check_name(name: str) -> str:
    """`name` if it is a valid element or attribute name, else ValueError."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid XML name: {name!r}")
    return name


class Record:
    """A slotted record: equality and repr over the fields in `__slots__`.

    The one record base of the compiler and the machine.  Each subclass
    sets its fields in a plain `__init__`, which costs nothing at import,
    unlike a generated one.  Two records compare equal when they have the
    same class and equal fields, leaving out those named in `_uncompared`.
    Defining `__eq__` leaves them unhashable, as mutable records should be.
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
        self.name = check_name(name)
        self.attributes = {check_name(key): str(value)
                           for key, value in (attributes or {}).items()}
        self.children = [] if children is None else children

    def set(self, name: str, value) -> None:
        self.attributes[check_name(name)] = str(value)

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


def str_attr(tag: str, attributes: dict, name: str) -> str:
    """A required attribute of a `tag` element; XmlLoadError when it is
    missing."""
    raw = attributes.get(name)
    if raw is None:
        raise XmlLoadError(f"elemento '{tag}': falta el atributo '{name}'")
    return raw


def integer(raw: str | None) -> int | None:
    """`raw` as an integer if it is an optional "-" and ASCII digits, else
    None; int() alone would also take "+3", " 7", "0_1" or "٣"."""
    if raw is not None and raw.isascii() and (
            raw.isdigit() or raw[:1] == "-" and raw[1:].isdigit()):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    return None


class Integers(dict):
    """`integer` of each value looked up, by the value.  Readers write
    `ints[value] or int_attr(...)`: a value seen before costs one lookup,
    and a 0 or a None takes int_attr's way, to the same 0 or the error."""

    def __missing__(self, raw):
        value = self[raw] = integer(raw)
        return value


def int_attr(tag: str, attributes: dict, name: str) -> int:
    """A required integer attribute, read by `integer`; XmlLoadError when
    it is missing or not an integer."""
    value = integer(attributes.get(name))
    if value is None:
        raw = str_attr(tag, attributes, name)  # when missing, that error
        raise XmlLoadError(
            f"elemento '{tag}': el atributo '{name}' no es un entero: {raw!r}")
    return value


# ---------------------------------------------------------------------------
# Reading

# The expat handlers read_document sets, and clears again.
_HANDLERS = ("StartElementHandler", "EndElementHandler",
             "CharacterDataHandler", "StartCdataSectionHandler",
             "EndCdataSectionHandler", "ProcessingInstructionHandler",
             "StartDoctypeDeclHandler")


def read_document(text: str, start, end, chars=None, cdata=None,
                  parser=None) -> None:
    """Run expat over `text`, handing its events to a reader's handlers.

    `start(name, attributes)` and `end(name)` see every element, with the
    name expat checked and a fresh dict of `str` attribute values in
    document order.  `chars(data)` gets the character data outside CDATA
    sections, where one run of text may come in several pieces;
    `cdata(data)` gets each CDATA section whole, at its end.  Comments are
    skipped.  A reader whose handlers ask the expat parser for positions,
    or set its `CharacterDataHandler` in place of `chars` as they go,
    creates it and passes it in as `parser`; after a CDATA section the
    handler set before it is back.

    Processing instructions, DTDs and every well-formedness violation raise
    XmlParseError, with the line and column of the first offense (lines
    1-based, columns 0-based).  A handler stops the reading by raising
    XmlLoadError; that error is raised only when the rest of the text is
    well-formed too, so what is malformed is always reported as such.
    """
    if parser is None:
        parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    sections: list[str] = []
    outer = []  # the character-data handler outside the CDATA section

    def fail(message: str):
        raise XmlParseError(message, parser.CurrentLineNumber,
                            parser.CurrentColumnNumber)

    def start_cdata():
        outer.append(parser.CharacterDataHandler)
        parser.CharacterDataHandler = sections.append

    def end_cdata():
        parser.CharacterDataHandler = outer.pop()
        section = "".join(sections)
        sections.clear()
        if cdata is not None:
            cdata(section)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    parser.StartCdataSectionHandler = start_cdata
    parser.EndCdataSectionHandler = end_cdata
    parser.ProcessingInstructionHandler = \
        lambda target, data: fail("instrucción de procesamiento no admitida")
    parser.StartDoctypeDeclHandler = \
        lambda *args: fail("declaración DOCTYPE no admitida")
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlParseError(xml.parsers.expat.errors.messages[exc.code],
                            exc.lineno, exc.offset) from None
    except XmlLoadError:
        # The reader stopped here; the rest of the text must still be
        # checked, and a malformed document is reported as such.
        read_document(text, None, None)
        raise
    finally:
        # The parser holds the handlers, and they may hold the parser: with
        # that cycle broken, what the reader built is freed without the
        # collector.
        for handler in _HANDLERS:
            setattr(parser, handler, None)


def parse_document(text: str) -> XmlDocument:
    """Parse XML text into a document tree.

    Only elements, attributes, text, and CDATA are accepted; comments are
    discarded.  Processing instructions and DTDs raise XmlParseError, as
    does any well-formedness violation.  Whitespace-only text next to a
    child element or CDATA section is dropped: an element keeps a blank
    text only when that text is all it holds.
    """
    # expat admits exactly one root element, so the holder at the bottom
    # of the stack ends up with exactly that one child.
    stack = [XmlNode("documento")]
    new_node = XmlNode.__new__

    def drop_blank(children: list) -> None:
        # Indentation whitespace next to a child element or CDATA section
        # is formatting, not content; text-only elements keep their text.
        if children and type(children[-1]) is Text \
                and not children[-1].data.strip():
            children.pop()

    def start(name, attributes):
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

    def end(name):
        children = stack.pop().children
        if len(children) > 1:
            drop_blank(children)

    def chars(data):
        children = stack[-1].children
        if children and type(children[-1]) is Text:
            children[-1].data += data
        else:
            children.append(Text(data))

    def cdata(data):
        children = stack[-1].children
        drop_blank(children)
        children.append(Cdata(data))

    read_document(text, start, end, chars, cdata)
    return XmlDocument(stack[0].children[0])


def element_text(pieces: list) -> str:
    """An element's text as parse_document keeps it, from the pieces of
    character data the element holds directly, in order, with a None
    where a child element or CDATA section stands: the pieces joined when
    there is no None, else the runs between the Nones that are not blank.
    """
    if None not in pieces:
        return "".join(pieces)
    # XML text never holds U+0000, so it can mark where the runs part.
    runs = "".join([piece if piece is not None else "\0"
                    for piece in pieces]).split("\0")
    return "".join([run for run in runs if not run.isspace()])


# ---------------------------------------------------------------------------
# Writing: the house style, for `serialize_document` and the phase writers


DECLARATION = '<?xml version="1.0" ?>'

# Elements deeper than this many levels get no more indentation than it,
# so a document's size grows with its element count, not with the square
# of its depth.  Every phase document of a sensible program is shallower.
MAX_INDENT_LEVELS = 32
_INDENTS = tuple("  " * depth for depth in range(MAX_INDENT_LEVELS + 1))


def indent(depth: int) -> str:
    """The indentation of an element `depth` levels below the root."""
    return _INDENTS[min(depth, MAX_INDENT_LEVELS)]


# The characters XML 1.0 cannot carry at all, not even as a reference.
NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")

# The characters each escape function rewrites; most values have none.
_TEXT_SPECIAL = re.compile("[&<>\r]")
ATTR_SPECIAL = re.compile('[&<>\r"\n\t]')


def escape_text(data: str) -> str:
    if _TEXT_SPECIAL.search(data) is None:
        return data
    data = data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    # Bare carriage returns would be line-end-normalized away on reparse.
    return data.replace("\r", "&#13;")


def escape_attr(data: str) -> str:
    if ATTR_SPECIAL.search(data) is None:
        return data
    # Newlines and tabs in attribute values must become character references
    # or the reparse would whitespace-normalize them to plain spaces.
    return (escape_text(data).replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\t", "&#9;"))


def cdata(text: str) -> str:
    """Arbitrary text as CDATA, each "]]>" split as by cdata_sections()."""
    return "<![CDATA[" + text.replace("]]>", "]]]]><![CDATA[>") + "]]>"


def cdata_line(depth: int, name: str, text: str) -> str:
    """An element at `depth` holding only `text`, as CDATA."""
    return f"{indent(depth)}<{name}>{cdata(text)}</{name}>"


def _inline_content(children) -> str:
    return "".join([escape_text(child.data) if isinstance(child, Text)
                    else cdata(child.data) for child in children])


def serialize_document(doc: XmlDocument) -> str:
    """Pretty-print a document in the fixed style used by every phase."""
    lines = [DECLARATION]
    # One entry per open element: an iterator over the children still to
    # render, their depth, and the element's closing tag.
    stack = [(iter((doc.root,)), 0, None)]
    while stack:
        children, depth, closing = stack[-1]
        pad = indent(depth)
        for child in children:
            if not isinstance(child, XmlNode):
                lines.append(pad + _inline_content((child,)))
                continue
            name = child.name
            attrs = "".join([f' {k}="{escape_attr(v)}"'
                             for k, v in child.attributes.items()])
            if not child.children:
                lines.append(f"{pad}<{name}{attrs}/>")
            elif XmlNode not in map(type, child.children):
                content = _inline_content(child.children)
                lines.append(f"{pad}<{name}{attrs}>{content}</{name}>")
            else:
                lines.append(f"{pad}<{name}{attrs}>")
                stack.append((iter(child.children), depth + 1,
                              f"{pad}</{name}>"))
                break
        else:
            stack.pop()
            if closing is not None:
                lines.append(closing)
    return "\n".join(lines)
