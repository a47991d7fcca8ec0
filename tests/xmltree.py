"""Canonical comparison of `xmldoc` trees, the tests' oracle for the
phase writers: two documents are equal when they say the same thing,
whatever their attribute order, whitespace between elements, or the
split of their CDATA sections.
"""

from pl0plus.xmldoc import Cdata, Text, XmlDocument, XmlNode


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
