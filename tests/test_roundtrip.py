"""Exact round-trip properties for every XML representation.

Two sources of instances: hypothesis strategies for documents and token
lists built directly from the data model, and the seeded program
generator for trees and object code, where instances must come out of
the real pipeline to be meaningful.
"""

from copy import deepcopy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checks
from pl0plus.diagnostics import error, render_xml, warning
from pl0plus.lexer import KINDS, Token, tokens_from_xml, tokens_to_xml
from pl0plus.parser import ast_from_xml, ast_to_xml, walk
from pl0plus.pcode import (Annotation, Instruction, Program, program_from_xml,
                           program_to_xml)
from pl0plus.pvm import WORD_MAX
from pl0plus.semantics import revised_from_xml, revised_to_xml
from pl0plus.xmldoc import (MAX_INDENT_LEVELS, Cdata, Text, XmlDocument,
                            XmlNode)

SEEDS = range(200)

EXACT = settings(max_examples=200, deadline=None, derandomize=True)

# Characters that survive an XML document unchanged: no controls beyond
# tab, newline and carriage return, no surrogates, no U+FFFE/U+FFFF.
_XML_CHARACTERS = st.characters(
    min_codepoint=32, exclude_categories=("Cs",),
    include_characters="\t\n\r", exclude_characters="￾￿")

_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
_ATTRIBUTES = st.dictionaries(_NAMES, st.text(_XML_CHARACTERS, max_size=12),
                              max_size=3)
# Text payloads must be nonempty: an empty run leaves no trace in the
# serialized form.  CDATA cannot carry its terminator or a bare carriage
# return (line-end normalization would eat the latter).
_TEXTS = st.builds(Text, st.text(_XML_CHARACTERS, min_size=1, max_size=12))
_CDATAS = st.builds(Cdata, st.text(
    st.characters(min_codepoint=32, exclude_categories=("Cs",),
                  include_characters="\t\n", exclude_characters="￾￿"),
    max_size=12).filter(lambda data: "]]>" not in data))


def _leaf(name, attributes, children):
    node = XmlNode(name, attributes)
    for child in children:
        # Two text runs in a row read back as one; keep the first.
        if (isinstance(child, Text) and node.children
                and isinstance(node.children[-1], Text)):
            continue
        node.add(child)
    return node


def _interior(name, attributes, children):
    node = XmlNode(name, attributes)
    for child in children:
        node.add(child)
    return node


_LEAVES = st.builds(_leaf, _NAMES, _ATTRIBUTES,
                    st.lists(st.one_of(_TEXTS, _CDATAS), max_size=3))

# Interior elements hold only elements and CDATA: free-standing text
# between child elements would pick up indentation on the way back in.
_NODES = st.recursive(
    _LEAVES,
    lambda inner: st.builds(
        _interior, _NAMES, _ATTRIBUTES,
        st.lists(st.one_of(inner, _CDATAS), min_size=1, max_size=3)),
    max_leaves=6)

_DOCUMENTS = st.builds(XmlDocument, _NODES)


@st.composite
def _tokens(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    name = value = None
    if kind == "IDENTIFICADOR":
        name = draw(st.from_regex(r"[a-z_][a-z0-9_]{0,9}", fullmatch=True))
    elif kind == "NUMERO":
        value = draw(st.integers(min_value=0, max_value=WORD_MAX))
    return Token(kind,
                 line=draw(st.integers(min_value=1, max_value=99)),
                 column=draw(st.integers(min_value=0, max_value=79)),
                 length=draw(st.integers(min_value=1, max_value=10)),
                 name=name, value=value)


_SOURCES = st.one_of(
    st.none(),
    st.text(st.characters(min_codepoint=32, exclude_categories=("Cs",),
                          include_characters="\t\n",
                          exclude_characters="￾￿"),
            max_size=40).filter(lambda text: "]]>" not in text))


@EXACT
@given(_DOCUMENTS)
def test_documents_survive_serialization(doc):
    checks.check_document_roundtrip(doc)


@EXACT
@given(st.lists(_tokens(), max_size=20), _SOURCES)
def test_token_lists_survive_serialization(tokens, source):
    checks.check_token_roundtrip(tokens, source)


def test_syntax_trees_survive_serialization():
    for seed in SEEDS:
        try:
            checks.check_ast_roundtrip(checks.seeded(seed).ast)
        except AssertionError as exc:
            raise AssertionError(f"semilla {seed}: {exc}") from None


def test_revised_trees_survive_serialization():
    for seed in SEEDS:
        artifacts = checks.seeded(seed)
        try:
            checks.check_revised_roundtrip(artifacts.revised)
        except AssertionError as exc:
            raise AssertionError(f"semilla {seed}: {exc}") from None


def test_object_code_survives_serialization():
    for seed in SEEDS:
        try:
            checks.check_program_roundtrip(checks.seeded(seed).program)
        except AssertionError as exc:
            raise AssertionError(f"semilla {seed}: {exc}") from None


# ---------------------------------------------------------------------------
# The writers emit the house style: exactly what serialize_document gives
# for the tree their text reads back as.


@EXACT
@given(st.lists(_tokens(), max_size=20), _SOURCES)
def test_token_documents_are_in_house_style(tokens, source):
    checks.check_house_style(tokens_to_xml(tokens, source))


def test_phase_documents_are_in_house_style():
    for seed in SEEDS:
        for text in checks.phase_documents(checks.seeded(seed)):
            try:
                checks.check_house_style(text)
            except AssertionError as exc:
                raise AssertionError(f"semilla {seed}: {exc}") from None


MARKUP = 'a<b&c"d'  # a value with every character markup reserves


class TestHouseStyleEdges:
    def test_indentation_stops_at_the_cap(self):
        artifacts = checks.compile_clean(checks.flat_sum(40))
        for text in checks.phase_documents(artifacts):
            checks.check_house_style(text)
        lines = ast_to_xml(artifacts.ast).splitlines()
        cap = " " * (2 * MAX_INDENT_LEVELS)
        assert max(len(line) - len(line.lstrip(" ")) for line in lines) \
            == len(cap)
        # The sums below the 32nd level all sit at the cap.
        assert sum(line.startswith(cap + "<suma") for line in lines) > 2

    def test_markup_in_token_names(self):
        tokens = [Token("IDENTIFICADOR", 1, 0, 7, name=MARKUP)]
        text = tokens_to_xml(tokens)
        checks.check_house_style(text)
        assert tokens_from_xml(text)[0] == tokens

    def test_markup_in_tree_names_and_codes(self):
        revised = deepcopy(checks.corpus("anidado.pl0+").revised)
        for node in walk(revised):
            for field in ("name", "target", "procedure", "variable",
                          "symbol", "code"):
                if isinstance(getattr(node, field, None), str):
                    setattr(node, field, getattr(node, field) + MARKUP)
        tree, revised_text = ast_to_xml(revised), revised_to_xml(revised)
        checks.check_house_style(tree)
        checks.check_house_style(revised_text)
        # Read back and written again, each gives the same text.
        again, _ = ast_from_xml(tree)
        assert ast_to_xml(again) == tree
        again, _ = revised_from_xml(revised_text)
        assert revised_to_xml(again) == revised_text

    def test_markup_in_annotations(self):
        program = Program([
            Instruction(0, "INS", param=3, annotations=[
                Annotation({"nota": MARKUP}, MARKUP), Annotation()]),
            Instruction(1, "RET")])
        text = program_to_xml(program)
        checks.check_house_style(text)
        assert "    <informacion/>\n" in text
        first = program_from_xml(text)[0].instructions[0].annotations[0]
        assert (first.attributes, first.text) == ({"nota": MARKUP}, MARKUP)

    def test_empty_annotation_text_round_trips(self):
        # An empty text keeps its end tag; no text is an empty-element tag.
        # The non-ASCII text before them moves expat's byte positions away
        # from the string's.
        annotations = [Annotation(text="ñandú"), Annotation(text=""),
                       Annotation({"a": "1"}), Annotation({"a": "2"}, ""),
                       Annotation(text=" ")]
        program = Program([Instruction(0, "RET",
                                       annotations=annotations)])
        text = program_to_xml(program)
        assert ("\n    <informacion></informacion>\n"
                '    <informacion a="1"/>\n'
                '    <informacion a="2"></informacion>\n'
                "    <informacion> </informacion>\n") in text
        again, _ = program_from_xml(text)
        assert [(a.attributes, a.text)
                for a in again.instructions[0].annotations] == [
            ({}, "ñandú"), ({}, ""), ({"a": "1"}, None), ({"a": "2"}, ""),
            ({}, " ")]
        assert program_to_xml(again) == text

    @pytest.mark.parametrize("severities", [(), (error,), (warning,),
                                            (error, warning)],
                             ids=["empty", "errors", "warnings", "both"])
    def test_error_reports(self, severities):
        # No context holds a carriage return: a source read from a file or
        # from a `fuente` section has its line ends normalized to "\n".
        items = []
        for finding in severities:
            items += [finding("lex", 1, 0, "Caracter inválido."),
                      finding("sin", 2, 7, "x ]]> y & <z> \"c\" 'd' \r e"),
                      finding("sem", 3, 4, MARKUP)]
            items[-2].context = "{ ]]> y ]]]]>> } & <z> \"c\" 'd'"
            items[-1].context = MARKUP
        checks.check_house_style(render_xml(items))

    def test_source_with_cdata_terminator(self):
        source = "var x;\n{ ]]> y ]]]]>> }\nbegin x := 1; write x end.\n"
        lexemes, tree, revised, code = checks.phase_documents(
            checks.compile_clean(source))
        for text in (lexemes, tree, revised, code):
            checks.check_house_style(text)
        assert tokens_from_xml(lexemes)[1] == source
        assert ast_from_xml(tree)[1] == source
        assert revised_from_xml(revised)[1] == source
        assert program_from_xml(code)[1] == source
