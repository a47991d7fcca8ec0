"""Diagnostic records, ordering, and the two report renderings."""

import pytest

from pl0plus.diagnostics import (Diagnostic, attach_context, error,
                                 has_errors, render_text, render_xml,
                                 sort_diagnostics, warning)
from pl0plus.xmldoc import parse_document
from xmltree import canonical_equal


class TestRecords:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("aviso", "lex", 1, 0, "x")

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            error("opt", 1, 0, "x")

    def test_has_errors(self):
        assert not has_errors([])
        assert not has_errors([warning("sin", 1, 0, "w")])
        assert has_errors([warning("sin", 1, 0, "w"), error("lex", 1, 0, "e")])


class TestSort:
    def test_errors_first_then_position(self):
        items = [
            warning("sin", 5, 18, "Falta un ';'"),
            error("sem", 9, 12, "Referencia a variable no declarada"),
            error("lex", 4, 11, "Caracter inválido."),
            error("sin", 4, 10, "Falta un operador"),
        ]
        ordered = sort_diagnostics(items)
        assert [(d.phase, d.line, d.column) for d in ordered] == [
            ("sin", 4, 10), ("lex", 4, 11), ("sem", 9, 12), ("sin", 5, 18)]

    def test_empty(self):
        assert sort_diagnostics([]) == []

    def test_same_position_keeps_insertion_order(self):
        first = error("lex", 3, 7, "a")
        second = error("sin", 3, 7, "b")
        assert sort_diagnostics([first, second]) == [first, second]
        assert sort_diagnostics([second, first]) == [second, first]

    def test_does_not_mutate_input(self):
        items = [warning("sin", 1, 0, "w"), error("lex", 1, 0, "e")]
        sort_diagnostics(items)
        assert items[0].severity == "warning"


class TestContext:
    def test_attach_context_picks_source_line(self):
        items = [error("lex", 2, 0, "x"), warning("sin", 1, 3, "y")]
        attach_context(items, "primera\nsegunda\n")
        assert items[0].context == "segunda"
        assert items[1].context == "primera"

    def test_each_line_end_is_one_line_break(self):
        # As in the scanner: `\r\n`, a lone `\r` and `\n`.
        items = [error("lex", line, 0, "x") for line in (1, 2, 3, 4)]
        attach_context(items, "uno\r\ndos\rtres\ncuatro")
        assert [item.context for item in items] == [
            "uno", "dos", "tres", "cuatro"]

    def test_line_out_of_range_leaves_context_empty(self):
        item = error("lex", 9, 0, "x")
        attach_context([item], "una sola\n")
        assert item.context == ""


class TestRenderText:
    def test_error_block(self):
        item = error("sin", 4, 10, "Falta un operador")
        item.context = "    i := 2 % 4;"
        assert render_text([item]) == (
            "ERROR*****\n"
            "Fase de origen:sin\n"
            "Línea 4: Falta un operador\n"
            "    i := 2 % 4;\n"
            "----------^\n")

    def test_warning_header(self):
        assert render_text([warning("sin", 5, 18, "Falta un ';'")]).startswith(
            "ADVERTENCIA*****\n")

    def test_caret_at_column_zero(self):
        item = error("lex", 1, 0, "Caracter inválido.")
        assert render_text([item]).splitlines()[-1] == "^"

    def test_empty_list_renders_nothing(self):
        assert render_text([]) == ""

    @pytest.mark.parametrize("context, caret", [
        ("x := y", "------^"), ("", "^")], ids=["line", "no-line"])
    def test_caret_stops_at_the_end_of_its_line(self, context, caret):
        # A hand-edited document can place a finding anywhere; the caret
        # still points into the line printed above it.
        item = error("sem", 1, 10 ** 7, "Referencia a variable no declarada")
        item.context = context
        assert render_text([item]).split("\n")[-3:] == [context, caret, ""]


class TestRenderXml:
    def test_both_groups_always_present(self):
        root = parse_document(render_xml([])).root
        assert root.name == "errores_y_advertencias"
        assert [c.name for c in root.elements()] == ["errores", "advertencias"]
        assert root.find("errores").children == []
        assert root.find("advertencias").children == []

    def test_severity_routing_and_element_name(self):
        items = sort_diagnostics([
            warning("sin", 5, 18, "Falta un ';'"),
            error("lex", 4, 11, "Caracter inválido."),
        ])
        root = parse_document(render_xml(items)).root
        errores = root.find("errores").elements()
        avisos = root.find("advertencias").elements()
        assert [e.name for e in errores] == ["error"]
        assert [e.name for e in avisos] == ["error"]
        assert errores[0].get("columna") == "11"
        assert errores[0].get("linea") == "4"
        assert avisos[0].get("columna") == "18"

    def test_item_structure(self):
        item = error("lex", 4, 11, "Caracter inválido.")
        item.context = "    i := 2 % 4;"
        node = parse_document(render_xml([item])).root \
            .find("errores").elements()[0]
        assert node.find("mensaje").text() == "Caracter inválido."
        assert node.find("contexto").cdata() == "    i := 2 % 4;"
        fase = node.find("fase")
        assert fase.get("nombre") == "lex"
        assert fase.text() == "Fase de análisis léxico"

    def test_context_characters_xml_cannot_carry_are_replaced(self):
        item = error("lex", 1, 2, "Caracter inválido.")
        item.context = "a\x00\x08\t\x0b\x0c\x0e\x1f\x7f\ufffe\uffffb"
        node = parse_document(render_xml([item])).root \
            .find("errores").elements()[0]
        assert node.find("contexto").cdata() == \
            "a\ufffd\ufffd\t\ufffd\ufffd\ufffd\ufffd\x7f\ufffd\ufffdb"
        assert item.context.startswith("a\x00")
        assert "\x00" in render_text([item])

    def test_phase_descriptions(self):
        for phase, described in (("lex", "Fase de análisis léxico"),
                                 ("sin", "Fase de análisis sintáctico"),
                                 ("sem", "Fase de análisis semántico"),
                                 ("gen", "Fase de generación de código")):
            root = parse_document(render_xml([error(phase, 1, 0, "m")])).root
            fase = root.find("errores").elements()[0].find("fase")
            assert fase.text() == described

    def test_full_report_against_handwritten_document(self):
        items = [
            error("sin", 4, 10, "Falta un operador"),
            warning("sin", 5, 18, "Falta un ';'"),
        ]
        attach_context(items, "\n\n\n    i := 2 % 4;\n    f := 9 - i * 2\n")
        expected = parse_document("""
            <errores_y_advertencias>
              <errores>
                <error columna="10" linea="4">
                  <mensaje>Falta un operador</mensaje>
                  <contexto><![CDATA[    i := 2 % 4;]]></contexto>
                  <fase nombre="sin">Fase de análisis sintáctico</fase>
                </error>
              </errores>
              <advertencias>
                <error columna="18" linea="5">
                  <mensaje>Falta un ';'</mensaje>
                  <contexto><![CDATA[    f := 9 - i * 2]]></contexto>
                  <fase nombre="sin">Fase de análisis sintáctico</fase>
                </error>
              </advertencias>
            </errores_y_advertencias>""")
        assert canonical_equal(
            parse_document(render_xml(sort_diagnostics(items))), expected)
