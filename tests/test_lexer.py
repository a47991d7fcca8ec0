"""Scanner behavior and the `lexemas` XML representation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pl0plus.lexer import (KEYWORDS, MAX_NUMBER, SYMBOL_TEXT, Token, tokenize,
                           tokens_from_xml, tokens_to_xml)
from pl0plus.xmldoc import NOT_XML, XmlLoadError, parse_document


def kinds(source):
    tokens, diags = tokenize(source)
    assert not diags
    return [t.kind for t in tokens]


class TestTokenize:
    def test_declaration_line(self):
        tokens, diags = tokenize("\n" * 5 + "var n, f;")
        assert not diags
        assert [(t.kind, t.line, t.column, t.length) for t in tokens] == [
            ("VAR", 6, 0, 3),
            ("IDENTIFICADOR", 6, 4, 1),
            ("coma", 6, 5, 1),
            ("IDENTIFICADOR", 6, 7, 1),
            ("punto_y_coma", 6, 8, 1),
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
        assert [t.kind for t in tokens] == ["IDENTIFICADOR", "IDENTIFICADOR"]
        assert [t.name for t in tokens] == ["BEGIN", "Begin"]

    def test_every_symbol(self):
        for kind, text in SYMBOL_TEXT.items():
            tokens, diags = tokenize(text)
            assert not diags
            assert [t.kind for t in tokens] == [kind]
            assert tokens[0].length == len(text)

    def test_maximal_munch(self):
        assert kinds(":= <> <= >= < > =") == [
            "asignacion", "diferente", "menor_igual", "mayor_igual",
            "menor_que", "mayor_que", "igual"]
        # no space: <= then >
        assert kinds("<=>") == ["menor_igual", "mayor_que"]

    def test_identifier_with_underscores_and_digits(self):
        tokens, diags = tokenize("f_1 x2_y")
        assert not diags
        assert [(t.name, t.length) for t in tokens] == [("f_1", 3), ("x2_y", 4)]

    def test_leading_underscore_is_not_an_identifier(self):
        tokens, diags = tokenize("_x")
        assert [t.kind for t in tokens] == ["IDENTIFICADOR"]
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
            ("NUMERO", 0), ("IDENTIFICADOR", 2)]

    def test_comment_skipped(self):
        assert kinds("x (* cualquier cosa *) y") == [
            "IDENTIFICADOR", "IDENTIFICADOR"]

    def test_comment_spanning_lines_keeps_positions(self):
        tokens, diags = tokenize("(* a\nb\nc *) fin")
        assert not diags
        assert (tokens[0].line, tokens[0].column) == (3, 5)

    def test_comments_do_not_nest(self):
        tokens, diags = tokenize("(* a (* b *) c")
        assert not diags
        assert [t.name for t in tokens if t.kind == "IDENTIFICADOR"] == ["c"]

    def test_unterminated_comment_reported_at_opening(self):
        tokens, diags = tokenize("x (* sin fin")
        assert [t.kind for t in tokens] == ["IDENTIFICADOR"]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 2, "Comentario sin cerrar")]

    def test_lone_paren_star_inside_line(self):
        # `(` immediately before `*` always opens a comment.
        assert kinds("a*(b)") == ["IDENTIFICADOR", "por",
                                  "parentesis_apertura", "IDENTIFICADOR",
                                  "parentesis_cierre"]

    @pytest.mark.parametrize("comment", [
        "{ comentario }", "(* comentario *)", "{ (* }", "(* { *)",
        "{ varias\nlineas }"])
    def test_both_comment_forms_skipped(self, comment):
        tokens, diags = tokenize(f"var x; {comment} begin x := 1 end.")
        assert not diags
        assert [t.kind for t in tokens][:4] == [
            "VAR", "IDENTIFICADOR", "punto_y_coma", "BEGIN"]

    def test_brace_comments_do_not_nest(self):
        tokens, diags = tokenize("{ a { b } c }")
        assert [t.name for t in tokens] == ["c"]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 12, "Caracter inválido.")]

    def test_unterminated_brace_comment_reported_at_opening(self):
        tokens, diags = tokenize("x\n  { sin (* fin *)\ny")
        assert [t.kind for t in tokens] == ["IDENTIFICADOR"]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (2, 2, "Comentario sin cerrar")]

    def test_invalid_character_skipped_and_scan_continues(self):
        source = "\n" * 3 + "    i := 2 % 4;"
        tokens, diags = tokenize(source)
        assert [(t.kind,) for t in tokens] == [
            ("IDENTIFICADOR",), ("asignacion",), ("NUMERO",), ("NUMERO",),
            ("punto_y_coma",)]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (4, 11, "Caracter inválido.")]

    def test_several_invalid_characters(self):
        tokens, diags = tokenize("¿x?")
        assert [t.kind for t in tokens] == ["IDENTIFICADOR"]
        assert [d.message for d in diags] == ["Caracter inválido."] * 2

    def test_characters_xml_cannot_carry_are_invalid_in_comments(self):
        # Every phase document carries the source, comments included.
        tokens, diags = tokenize(
            "x { a\x0cb }\n(*\n  \x00\ufffe *) y {\n\x1f\uffff")
        assert [t.name for t in tokens] == ["x", "y"]
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 5, "Caracter inválido."), (3, 2, "Caracter inválido."),
            (3, 3, "Caracter inválido."), (3, 10, "Comentario sin cerrar"),
            (4, 0, "Caracter inválido."), (4, 1, "Caracter inválido.")]

    @pytest.mark.parametrize("char", [
        "\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ufffe",
        "\uffff"])
    def test_each_character_xml_cannot_carry(self, char):
        _, diags = tokenize(f"{{{char}}}")
        assert [(d.column, d.message) for d in diags] == [
            (1, "Caracter inválido.")]

    def test_comments_keep_every_character_xml_carries(self):
        _, diags = tokenize("{ \t\r\n\x7f\x85\ufffd\ud7ff\U0001f600 }")
        assert not diags

    def test_digits_are_what_int_reads(self):
        # `²` passes str.isdigit() but int() cannot read it.
        tokens, diags = tokenize("a² ² \u0663")
        assert [(t.kind, t.name, t.value) for t in tokens] == [
            ("IDENTIFICADOR", "a", None), ("NUMERO", None, 3)]
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
@example("x:=\t 99999999999;\r\n  12345678901234 0000000000099\n")
@example("a (* \x01\r\n\t\x0b *) {\n\x1f} $ @  \n  (* \x02\n x")
@example("\t{ sin cerrar\r\n 1")
def test_every_token_is_its_source_slice(source):
    """Every token is the slice of the source at its position, and every
    finding points at the character it is about."""
    tokens, diags = tokenize(source)
    lines = source.split("\n")
    taken = set()  # (line, column) of each character a token takes
    for tok in tokens:
        text = lines[tok.line - 1][tok.column:tok.column + tok.length]
        assert len(text) == tok.length
        taken.update((tok.line, column) for column in
                     range(tok.column, tok.column + tok.length))
        if tok.kind == "IDENTIFICADOR":
            assert text == tok.name
        elif tok.kind == "NUMERO":
            assert text.isdecimal()
            assert tok.value == min(int(text), MAX_NUMBER)
        elif tok.kind in SYMBOL_TEXT:
            assert text == SYMBOL_TEXT[tok.kind]
        else:
            assert KEYWORDS[text] is tok.kind
    for diag in diags:
        line = lines[diag.line - 1]
        assert diag.column < len(line)
        at = line[diag.column]
        assert (diag.line, diag.column) not in taken or \
            diag.message == "Número demasiado grande"
        if diag.message == "Caracter inválido.":
            # No token, or a character XML cannot carry, in a comment too.
            assert tokenize(at)[0] == [] and at not in " \t\r" \
                or NOT_XML.match(at)
        elif diag.message == "Comentario sin cerrar":
            assert at == "{" or line[diag.column:diag.column + 2] == "(*"
        else:
            assert diag.message == "Número demasiado grande"
            assert at.isdecimal()
            assert diag.column == 0 or not line[diag.column - 1].isdecimal()
            assert any(tok.kind == "NUMERO" and tok.value == MAX_NUMBER
                       and (tok.line, tok.column) == (diag.line, diag.column)
                       for tok in tokens)


class TestXml:
    def test_identifier_element(self):
        doc = parse_document(tokens_to_xml([Token("IDENTIFICADOR", 7, 10, 9,
                                                  name="fibonacci")]))
        node = doc.root.elements()[0]
        assert node.name == "IDENTIFICADOR"
        assert dict(node.attributes) == {
            "nombre": "fibonacci", "linea": "7", "columna": "10",
            "longitud": "9"}

    def test_number_element(self):
        doc = parse_document(
            tokens_to_xml([Token("NUMERO", 12, 13, 1, value=0)]))
        node = doc.root.elements()[0]
        assert node.name == "NUMERO"
        assert dict(node.attributes) == {
            "valor": "0", "linea": "12", "columna": "13", "longitud": "1"}

    def test_keyword_and_symbol_element_names(self):
        doc = parse_document(tokens_to_xml([Token("VAR", 6, 0, 3),
                                            Token("punto_y_coma", 6, 8, 1)]))
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

    def test_source_is_the_fuente_text_alone(self):
        # A CDATA section in a token element after `fuente` is not source.
        text = ('<lexemas>\n  <fuente><![CDATA[begin end.]]></fuente>\n'
                '  <BEGIN linea="1" columna="0" longitud="5">'
                '<![CDATA[x]]></BEGIN>\n</lexemas>\n')
        assert tokens_from_xml(text) == ([Token("BEGIN", 1, 0, 5)],
                                         "begin end.")

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
