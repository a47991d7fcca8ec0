"""Scanner behavior and the `lexemas` XML representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pl0plus.lexer import (KEYWORDS, MAX_NUMBER, SYMBOL_TEXT, Token,
                           TokenKind, tokenize, tokens_from_xml, tokens_to_xml)
from pl0plus.xmldoc import XmlLoadError, parse_document

K = TokenKind


def kinds(source):
    tokens, diags = tokenize(source)
    assert not diags
    return [t.kind for t in tokens]


class TestTokenize:
    def test_declaration_line(self):
        tokens, diags = tokenize("\n" * 5 + "var n, f;")
        assert not diags
        assert [(t.kind, t.line, t.column, t.length) for t in tokens] == [
            (K.VAR, 6, 0, 3),
            (K.IDENTIFICADOR, 6, 4, 1),
            (K.COMA, 6, 5, 1),
            (K.IDENTIFICADOR, 6, 7, 1),
            (K.PUNTO_Y_COMA, 6, 8, 1),
        ]
        assert tokens[1].name == "n"
        assert tokens[3].name == "f"

    def test_empty_source(self):
        assert tokenize("") == ([], [])

    def test_every_keyword(self):
        for word, kind in KEYWORDS.items():
            assert kinds(word) == [kind]

    def test_keywords_are_lowercase_only(self):
        tokens, diags = tokenize("BEGIN Begin")
        assert not diags
        assert [t.kind for t in tokens] == [K.IDENTIFICADOR, K.IDENTIFICADOR]
        assert [t.name for t in tokens] == ["BEGIN", "Begin"]

    def test_every_symbol(self):
        for kind, text in SYMBOL_TEXT.items():
            tokens, diags = tokenize(text)
            assert not diags
            assert [t.kind for t in tokens] == [kind]
            assert tokens[0].length == len(text)

    def test_maximal_munch(self):
        assert kinds(":= <> <= >= < > =") == [
            K.ASIGNACION, K.DIFERENTE, K.MENOR_IGUAL, K.MAYOR_IGUAL,
            K.MENOR_QUE, K.MAYOR_QUE, K.IGUAL]
        # no space: <= then >
        assert kinds("<=>") == [K.MENOR_IGUAL, K.MAYOR_QUE]

    def test_identifier_with_underscores_and_digits(self):
        tokens, diags = tokenize("f_1 x2_y")
        assert not diags
        assert [(t.name, t.length) for t in tokens] == [("f_1", 3), ("x2_y", 4)]

    def test_leading_underscore_is_not_an_identifier(self):
        tokens, diags = tokenize("_x")
        assert [t.kind for t in tokens] == [K.IDENTIFICADOR]
        assert tokens[0].name == "x"
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 0, "Caracter inválido.")]

    def test_number_value_and_length(self):
        tokens, diags = tokenize("007")
        assert not diags
        assert tokens[0].value == 7
        assert tokens[0].length == 3

    def test_number_at_limit(self):
        tokens, diags = tokenize("2147483647")
        assert not diags
        assert tokens[0].value == 2 ** 31 - 1

    def test_number_beyond_limit_clamped(self):
        tokens, diags = tokenize("2147483648")
        assert tokens[0].value == 2 ** 31 - 1
        assert [(d.phase, d.message) for d in diags] == [
            ("lex", "Número demasiado grande")]
        assert diags[0].line == 1 and diags[0].column == 0

    def test_huge_number_clamped(self):
        # Longer than the 4,300 digits int() converts from a string.
        tokens, diags = tokenize("x := " + "1" * 5000)
        assert (tokens[-1].value, tokens[-1].length) == (MAX_NUMBER, 5000)
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 5, "Número demasiado grande")]

    def test_leading_zeros_never_make_a_number_too_large(self):
        tokens, diags = tokenize("0" * 5000 + "1")
        assert not diags
        assert (tokens[0].value, tokens[0].length) == (1, 5001)

    def test_number_glued_to_identifier(self):
        # Maximal munch: digits first, then a separate identifier.
        tokens, diags = tokenize("12abc")
        assert not diags
        assert [(t.kind, t.column) for t in tokens] == [
            (K.NUMERO, 0), (K.IDENTIFICADOR, 2)]

    def test_comment_skipped(self):
        assert kinds("x (* cualquier cosa *) y") == [
            K.IDENTIFICADOR, K.IDENTIFICADOR]

    def test_comment_spanning_lines_keeps_positions(self):
        tokens, diags = tokenize("(* a\nb\nc *) fin")
        assert not diags
        assert (tokens[0].line, tokens[0].column) == (3, 5)

    def test_comments_do_not_nest(self):
        tokens, diags = tokenize("(* a (* b *) c")
        assert not diags
        assert [t.name for t in tokens if t.kind is K.IDENTIFICADOR] == ["c"]

    def test_unterminated_comment_reported_at_opening(self):
        tokens, diags = tokenize("x (* sin fin")
        assert [t.kind for t in tokens] == [K.IDENTIFICADOR]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 2, "Comentario sin cerrar")]

    def test_lone_paren_star_inside_line(self):
        # `(` immediately before `*` always opens a comment.
        assert kinds("a*(b)") == [K.IDENTIFICADOR, K.POR,
                                  K.PARENTESIS_APERTURA, K.IDENTIFICADOR,
                                  K.PARENTESIS_CIERRE]

    @pytest.mark.parametrize("comment", [
        "{ comentario }", "(* comentario *)", "{ (* }", "(* { *)",
        "{ varias\nlineas }"])
    def test_both_comment_forms_skipped(self, comment):
        tokens, diags = tokenize(f"var x; {comment} begin x := 1 end.")
        assert not diags
        assert [t.kind for t in tokens][:4] == [
            K.VAR, K.IDENTIFICADOR, K.PUNTO_Y_COMA, K.BEGIN]

    def test_brace_comments_do_not_nest(self):
        tokens, diags = tokenize("{ a { b } c }")
        assert [t.name for t in tokens] == ["c"]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 12, "Caracter inválido.")]

    def test_unterminated_brace_comment_reported_at_opening(self):
        tokens, diags = tokenize("x\n  { sin (* fin *)\ny")
        assert [t.kind for t in tokens] == [K.IDENTIFICADOR]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (2, 2, "Comentario sin cerrar")]

    def test_invalid_character_skipped_and_scan_continues(self):
        source = "\n" * 3 + "    i := 2 % 4;"
        tokens, diags = tokenize(source)
        assert [(t.kind,) for t in tokens] == [
            (K.IDENTIFICADOR,), (K.ASIGNACION,), (K.NUMERO,), (K.NUMERO,),
            (K.PUNTO_Y_COMA,)]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (4, 11, "Caracter inválido.")]

    def test_several_invalid_characters(self):
        tokens, diags = tokenize("¿x?")
        assert [t.kind for t in tokens] == [K.IDENTIFICADOR]
        assert [d.message for d in diags] == ["Caracter inválido."] * 2

    def test_digits_are_what_int_reads(self):
        # `²` passes str.isdigit() but int() cannot read it.
        tokens, diags = tokenize("a² ² \u0663")
        assert [(t.kind, t.name, t.value) for t in tokens] == [
            (K.IDENTIFICADOR, "a", None), (K.NUMERO, None, 3)]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 1, "Caracter inválido."), (1, 3, "Caracter inválido.")]

    def test_tab_counts_one_column(self):
        tokens, _ = tokenize("\tx")
        assert (tokens[0].line, tokens[0].column) == (1, 1)

    def test_carriage_return_is_whitespace(self):
        tokens, diags = tokenize("a\r\nb")
        assert not diags
        assert [(t.name, t.line, t.column) for t in tokens] == [
            ("a", 1, 0), ("b", 2, 0)]


# Arbitrary text, biased towards the characters the scanner treats
# specially.
_SCAN_TEXT = st.text(
    st.one_of(st.sampled_from("(*){}\n\r\t :=<>;.,+-/_aZ09²"),
              st.characters()), max_size=60)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SCAN_TEXT)
def test_every_token_is_its_source_slice(source):
    tokens, _ = tokenize(source)
    lines = source.split("\n")
    for tok in tokens:
        text = lines[tok.line - 1][tok.column:tok.column + tok.length]
        assert len(text) == tok.length
        if tok.kind is K.IDENTIFICADOR:
            assert text == tok.name
        elif tok.kind is K.NUMERO:
            assert text.isdecimal()
            assert tok.value == min(int(text), MAX_NUMBER)
        elif tok.kind in SYMBOL_TEXT:
            assert text == SYMBOL_TEXT[tok.kind]
        else:
            assert KEYWORDS[text] is tok.kind


class TestXml:
    def test_identifier_element(self):
        doc = parse_document(tokens_to_xml([Token(K.IDENTIFICADOR, 7, 10, 9,
                                                  name="fibonacci")]))
        node = doc.root.elements()[0]
        assert node.name == "IDENTIFICADOR"
        assert dict(node.attributes) == {
            "nombre": "fibonacci", "linea": "7", "columna": "10",
            "longitud": "9"}

    def test_number_element(self):
        doc = parse_document(
            tokens_to_xml([Token(K.NUMERO, 12, 13, 1, value=0)]))
        node = doc.root.elements()[0]
        assert node.name == "NUMERO"
        assert dict(node.attributes) == {
            "valor": "0", "linea": "12", "columna": "13", "longitud": "1"}

    def test_keyword_and_symbol_element_names(self):
        doc = parse_document(tokens_to_xml([Token(K.VAR, 6, 0, 3),
                                            Token(K.PUNTO_Y_COMA, 6, 8, 1)]))
        assert [e.name for e in doc.root.elements()] == [
            "VAR", "punto_y_coma"]

    def test_source_kept_as_cdata(self):
        doc = parse_document(tokens_to_xml([], "var x;\n"))
        assert doc.root.name == "lexemas"
        assert [e.name for e in doc.root.elements()] == ["fuente"]
        assert doc.root.find("fuente").cdata() == "var x;\n"

    def test_no_fuente_without_source(self):
        doc = parse_document(tokens_to_xml([]))
        assert doc.root.children == []

    def test_round_trip(self):
        source = "var n, f;\nbegin n := 2147483647; write f; end."
        tokens, diags = tokenize(source)
        assert not diags
        again, source_again = tokens_from_xml(
            tokens_to_xml(tokens, source))
        assert again == tokens
        assert source_again == source

    def test_round_trip_without_source(self):
        tokens, _ = tokenize("x := 1.")
        again, source_again = tokens_from_xml(
            tokens_to_xml(tokens))
        assert again == tokens
        assert source_again is None

    def test_wrong_root_rejected(self):
        with pytest.raises(XmlLoadError):
            tokens_from_xml("<fichas/>")

    def test_unknown_element_rejected(self):
        text = (
            '<lexemas><WHAT linea="1" columna="0" longitud="1"/></lexemas>')
        with pytest.raises(XmlLoadError):
            tokens_from_xml(text)

    def test_missing_attribute_rejected(self):
        text = '<lexemas><VAR linea="1" columna="0"/></lexemas>'
        with pytest.raises(XmlLoadError):
            tokens_from_xml(text)

    def test_non_numeric_attribute_rejected(self):
        text = (
            '<lexemas><VAR linea="x" columna="0" longitud="3"/></lexemas>')
        with pytest.raises(XmlLoadError):
            tokens_from_xml(text)
