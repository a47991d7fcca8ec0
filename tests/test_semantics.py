"""Name resolution, symbol codes, and the revised tree's XML form."""

import gc
from copy import deepcopy

import pytest

import checks
from pl0plus.lexer import tokenize
from pl0plus.parser import ast_from_xml, ast_to_xml, parse, walk
from pl0plus.semantics import (ROOT_NAME, analyze, rebuild_symbol_table,
                               revised_from_xml, revised_to_xml, symbol_code)
from pl0plus.xmldoc import (XmlLoadError, canonical_equal, parse_document,
                             serialize_document)


def parsed(source):
    tokens, lex_diags = tokenize(source)
    assert not lex_diags
    ast, sin_diags = parse(tokens)
    assert not sin_diags
    return ast


def analyzed(source):
    revised, table, diags = analyze(parsed(source))
    assert not diags, diags
    return revised, table


def findings(source):
    _, _, diags = analyze(parsed(source))
    return [(d.phase, d.severity, d.line, d.column, d.message) for d in diags]


def find_elements(node, name):
    found = [node] if node.name == name else []
    for child in node.elements():
        found.extend(find_elements(child, name))
    return found


class TestSymbolCode:
    def test_blocks_join_with_underscores(self):
        assert symbol_code("block", [0]) == "b0"
        assert symbol_code("block", [0, 0]) == "b0_0"
        assert symbol_code("block", [0, 0, 1]) == "b0_0_1"

    def test_symbols_join_path_with_slashes(self):
        assert symbol_code("constant", [0], 0) == "c0_0"
        assert symbol_code("variable", [0], 1) == "v0_1"
        assert symbol_code("variable", [0, 0], 2) == "v0/0_2"
        assert symbol_code("procedure", [0, 0, 1], 0) == "p0/0/1_0"

    def test_index_required_for_symbols(self):
        with pytest.raises(ValueError):
            symbol_code("variable", [0])


class TestCodes:
    def test_fibonacci_codes(self):
        revised, table = analyzed(checks.FIB.read_text(encoding="utf-8"))
        block = revised.block
        assert block.code == "b0"
        assert [v.code for v in block.variables] == ["v0_0", "v0_1"]
        proc = block.procedures[0]
        assert proc.code == "p0_0"
        assert proc.block.code == "b0_0"
        assert [v.code for v in proc.block.variables] == [
            "v0/0_0", "v0/0_1", "v0/0_2"]
        assert table.by_code["v0/0_1"].name == "f_1"
        assert table.by_code["p0_0"].kind == "procedure"

    def test_deeply_nested_codes(self):
        revised, table = analyzed(
            "procedure p;\n"
            "    procedure q;\n"
            "    begin end;\n"
            "    procedure r;\n"
            "        var x;\n"
            "    begin x := 1 end;\n"
            "begin call r end;\n"
            "begin call p end.")
        p = revised.block.procedures[0]
        q, r = p.block.procedures
        assert (p.code, q.code, r.code) == ("p0_0", "p0/0_0", "p0/0_1")
        assert (p.block.code, q.block.code, r.block.code) == (
            "b0_0", "b0_0_0", "b0_0_1")
        assert r.block.variables[0].code == "v0/0/1_0"
        assert set(table.scopes_by_code) == {"b0", "b0_0", "b0_0_0", "b0_0_1"}
        assert table.by_code["v0/0/1_0"].depth == 2

    def test_kind_indices_are_independent(self):
        revised, _ = analyzed("const a=1, b=2;\nvar x;\nbegin x := a end.")
        block = revised.block
        assert [c.code for c in block.constants] == ["c0_0", "c0_1"]
        assert block.variables[0].code == "v0_0"

    def test_table_records_constant_values(self):
        _, table = analyzed("const a=1, b=-7;\nbegin end.")
        assert table.by_code["c0_0"].value == 1
        assert table.by_code["c0_1"].value == -7
        assert table.by_code["c0_1"].depth == 0

    def test_uses_link_to_declarations(self):
        revised, _ = analyzed(
            "var x;\nbegin\n    read x;\n    x := x + 1;\n"
            "    write x;\nend.")
        read, assign, write = revised.block.body.statements
        assert read.code == "v0_0"
        assert assign.code == "v0_0"
        assert assign.expr.left.code == "v0_0"
        assert write.code == "v0_0"

    def test_call_links_to_procedure(self):
        revised, _ = analyzed("procedure p;\nbegin end;\nbegin call p end.")
        assert revised.block.body.statements[0].code == "p0_0"


class TestVisibility:
    def test_inner_declaration_shadows_outer(self):
        revised, _ = analyzed(
            "var x;\nprocedure p;\n    var x;\nbegin x := 1 end;\n"
            "begin x := 2 end.")
        inner = revised.block.procedures[0].block.body.statements[0]
        outer = revised.block.body.statements[0]
        assert inner.code == "v0/0_0"
        assert outer.code == "v0_0"

    def test_nested_block_sees_enclosing_names(self):
        revised, _ = analyzed(
            "var x;\nprocedure p;\nbegin x := 1 end;\nbegin call p end.")
        assert revised.block.procedures[0].block.body.statements[0] \
            .code == "v0_0"

    def test_procedure_may_call_itself(self):
        assert findings("procedure p;\nbegin call p end;\nbegin end.") == []

    def test_later_sibling_is_not_visible(self):
        assert findings(
            "procedure a;\nbegin call b end;\n"
            "procedure b;\nbegin end;\nbegin call a end.") == [
            ("sem", "error", 2, 11, "Referencia a procedimiento no declarado")]

    def test_earlier_sibling_is_visible(self):
        assert findings(
            "procedure a;\nbegin end;\n"
            "procedure b;\nbegin call a end;\nbegin call b end.") == []


class TestFindings:
    def test_undeclared_value(self):
        assert findings("var x;\nbegin x := y end.") == [
            ("sem", "error", 2, 11, "Referencia a variable no declarada")]

    def test_undeclared_target(self):
        assert findings("begin y := 1 end.") == [
            ("sem", "error", 1, 6, "Referencia a variable no declarada")]

    def test_procedure_used_as_value(self):
        assert findings("var x;\nprocedure p;\nbegin end;\n"
                        "begin x := p end.") == [
            ("sem", "error", 4, 11, "Uso inválido de procedimiento")]

    def test_procedure_used_as_target(self):
        assert findings("procedure p;\nbegin end;\nbegin p := 1 end.") == [
            ("sem", "error", 3, 6, "Uso inválido de procedimiento")]

    def test_assignment_to_constant(self):
        assert findings("const c=1;\nbegin c := 2 end.") == [
            ("sem", "error", 2, 6, "Asignación a constante")]

    def test_read_into_constant(self):
        assert findings("const c=1;\nbegin read c end.") == [
            ("sem", "error", 2, 11, "Asignación a constante")]

    def test_write_accepts_constant(self):
        revised, _ = analyzed("const c=1;\nbegin write c end.")
        assert revised.block.body.statements[0].code == "c0_0"

    def test_write_rejects_procedure(self):
        assert findings("procedure p;\nbegin end;\nbegin write p end.") == [
            ("sem", "error", 3, 12, "Uso inválido de procedimiento")]

    def test_call_to_undeclared(self):
        assert findings("begin call p end.") == [
            ("sem", "error", 1, 11, "Referencia a procedimiento no declarado")]

    def test_call_to_variable(self):
        assert findings("var x;\nbegin call x end.") == [
            ("sem", "error", 2, 11, "Referencia a procedimiento no declarado")]

    def test_duplicate_variable(self):
        assert findings("var x, x;\nbegin end.") == [
            ("sem", "error", 1, 7, "Símbolo duplicado")]

    def test_duplicate_across_kinds(self):
        assert findings("const x=1;\nvar x;\nbegin end.") == [
            ("sem", "error", 2, 4, "Símbolo duplicado")]

    def test_duplicate_procedure_name(self):
        assert findings("var p;\nprocedure p;\nbegin end;\nbegin end.") == [
            ("sem", "error", 2, 10, "Símbolo duplicado")]

    def test_analysis_continues_after_errors(self):
        assert [f[4] for f in findings("begin y := 1; z := 2 end.")] == [
            "Referencia a variable no declarada"] * 2

    def test_first_declaration_wins_after_duplicate(self):
        revised, _, diags = analyze(parsed("var x, x;\nbegin x := 1 end."))
        assert len(diags) == 1
        assert revised.block.body.statements[0].code == "v0_0"


class TestAnalyze:
    def test_input_tree_is_annotated_in_place(self):
        ast = parsed("var x;\nbegin x := 1 end.")
        assert ast.block.code is None
        revised, _, _ = analyze(ast)
        assert revised is ast
        assert ast.block.code == "b0"
        assert ast.block.variables[0].code == "v0_0"
        assert ast.block.body.statements[0].code == "v0_0"

    def test_results_hold_no_reference_cycle(self):
        # A scope links to its parent only, so reference counting alone
        # frees the tree and table analyze gives.
        ast = parsed(checks.corpus("anidado.pl0+").source)
        gc.collect()
        gc.disable()
        try:
            analyze(deepcopy(ast))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_reanalysis_is_stable(self):
        source = ("var x;\nprocedure p;\n    var y;\n"
                  "begin y := x end;\nbegin call p end.")
        revised, _ = analyzed(source)
        independent, _ = analyzed(source)
        again, _, diags = analyze(revised)
        assert not diags
        assert again == independent

    def test_flat_sum_compiles_and_runs(self):
        # The benchmark's known-defect probe: a 300-term sum is a
        # 300-deep left spine, which once overflowed the recursion limit.
        source = ("var x;\nbegin\n    x := " + " + ".join(["1"] * 300)
                  + ";\n    write x\nend.\n")
        program = checks.compile_clean(source).program
        assert checks.run_vm(program, ()) == (0, [300])

    def test_rebuild_recovers_the_same_codes(self):
        revised, table = analyzed(checks.FIB.read_text(encoding="utf-8"))
        rebuilt = rebuild_symbol_table(deepcopy(revised))
        assert set(rebuilt.by_code) == set(table.by_code)
        assert set(rebuilt.scopes_by_code) == set(table.scopes_by_code)


SMALL = ("const c=4;\n"
         "var x;\n"
         "begin\n"
         "    read x;\n"
         "    x := x + c;\n"
         "    write x;\n"
         "end.")

SMALL_XML = """
<arbol_de_sintaxis_revisado>
  <programa>
    <bloque codigo="b0">
      <constante linea="1" columna="6" nombre="c" valor="4" codigo="c0_0"/>
      <variable linea="2" columna="4" nombre="x" codigo="v0_0"/>
      <secuencia linea="3" columna="0">
        <leer linea="4" columna="9" variable="x"/>
        <asignacion linea="5" columna="4" variable="x" codigo="v0_0">
          <suma linea="5" columna="11">
            <identificador linea="5" columna="9" simbolo="x" codigo="v0_0"/>
            <identificador linea="5" columna="13" simbolo="c" codigo="c0_0"/>
          </suma>
        </asignacion>
        <escribir linea="6" columna="10" simbolo="x"/>
      </secuencia>
    </bloque>
  </programa>
</arbol_de_sintaxis_revisado>"""


# `x := w` in `a`, with `a`'s nested procedure `b` and `a`'s later sibling
# `c` each declaring a variable `a`'s body cannot see.
NESTED = """var x;
procedure a;
  var w;
  procedure b;
    var y;
  begin y := 5; write y end;
begin w := 2; x := w; call b end;
procedure c;
  var z;
begin z := 7 end;
begin call a; write x end.
"""


class TestXml:
    def small_doc(self, source=None):
        revised, table = analyzed(SMALL)
        return parse_document(revised_to_xml(revised, table, source))

    def test_known_tree(self):
        assert canonical_equal(self.small_doc(), parse_document(SMALL_XML))

    def test_root_name(self):
        assert self.small_doc().root.name == ROOT_NAME

    def test_fuente_carries_source(self):
        doc = self.small_doc(SMALL)
        assert doc.root.find("fuente").cdata() == SMALL

    def test_references_by_name_carry_no_code(self):
        root = self.small_doc().root
        for name in ("leer", "escribir"):
            (element,) = find_elements(root, name)
            assert "codigo" not in element.attributes

    def test_procedure_element_carries_no_code(self):
        revised, table = analyzed(
            "procedure p;\nbegin end;\nbegin call p end.")
        root = parse_document(revised_to_xml(revised, table)).root
        (proc,) = find_elements(root, "procedimiento")
        assert "codigo" not in proc.attributes
        (call,) = find_elements(root, "llamada")
        assert "codigo" not in call.attributes

    def test_round_trip(self):
        revised, table = analyzed(SMALL)
        again, _, source = revised_from_xml(
            revised_to_xml(revised, table, SMALL))
        assert again == revised
        assert source == SMALL

    def test_renamed_codes_still_link(self):
        doc = self.small_doc()
        for name in ("variable", "asignacion", "identificador"):
            for element in find_elements(doc.root, name):
                if element.attributes.get("codigo") == "v0_0":
                    element.attributes["codigo"] = "mi_clave"
        revised, _, _ = revised_from_xml(serialize_document(doc))
        assert revised.block.variables[0].code == "mi_clave"
        assert revised.block.body.statements[1].code == "mi_clave"

    def test_flat_sum_trees_round_trip(self):
        # A 10,000-deep left spine through both tree writers and readers.
        def outline(tree):
            return [(type(node), node.line, node.column,
                     getattr(node, "code", None)) for node in walk(tree)]
        source = checks.flat_sum(10000)
        ast = parsed(source)
        assert (outline(ast_from_xml(ast_to_xml(ast))[0])
                == outline(ast))
        revised, table = analyzed(source)
        again, _, _ = revised_from_xml(
            revised_to_xml(revised, table))
        assert outline(again) == outline(revised)

    def test_wrong_root_rejected(self):
        with pytest.raises(XmlLoadError):
            revised_from_xml("<arbol/>")

    def test_missing_programa_rejected(self):
        with pytest.raises(XmlLoadError):
            revised_from_xml(
                f"<{ROOT_NAME}></{ROOT_NAME}>")

    def test_duplicate_programa_rejected(self):
        doc = self.small_doc()
        doc.root.add(deepcopy(doc.root.find("programa")))
        with pytest.raises(XmlLoadError):
            revised_from_xml(serialize_document(doc))

    def test_unexpected_element_rejected(self):
        doc = self.small_doc()
        doc.root.add(parse_document("<extra/>").root)
        with pytest.raises(XmlLoadError):
            revised_from_xml(serialize_document(doc))

    def test_block_without_code_rejected(self):
        doc = self.small_doc()
        del find_elements(doc.root, "bloque")[0].attributes["codigo"]
        with pytest.raises(XmlLoadError, match="bloque"):
            revised_from_xml(serialize_document(doc))

    def test_declaration_without_code_rejected(self):
        doc = self.small_doc()
        del find_elements(doc.root, "variable")[0].attributes["codigo"]
        with pytest.raises(XmlLoadError, match="codigo"):
            revised_from_xml(serialize_document(doc))

    def test_assignment_without_code_rejected(self):
        doc = self.small_doc()
        del find_elements(doc.root, "asignacion")[0].attributes["codigo"]
        with pytest.raises(XmlLoadError, match="codigo"):
            revised_from_xml(serialize_document(doc))

    def test_dangling_code_rejected(self):
        doc = self.small_doc()
        (assign,) = find_elements(doc.root, "asignacion")
        assign.attributes["codigo"] = "v9_9"
        with pytest.raises(XmlLoadError, match="inexistente"):
            revised_from_xml(serialize_document(doc))

    def test_code_of_wrong_kind_rejected(self):
        doc = self.small_doc()
        (assign,) = find_elements(doc.root, "asignacion")
        assign.attributes["codigo"] = "c0_0"
        with pytest.raises(XmlLoadError, match="clase"):
            revised_from_xml(serialize_document(doc))

    def test_duplicate_codes_rejected(self):
        doc = self.small_doc()
        (var,) = find_elements(doc.root, "variable")
        var.attributes["codigo"] = "c0_0"
        with pytest.raises(XmlLoadError, match="duplicado"):
            revised_from_xml(serialize_document(doc))

    def test_duplicate_block_code_rejected(self):
        revised, table = analyzed("procedure p;\nbegin end;\n"
                                  "procedure q;\nbegin end;\nbegin end.")
        doc = parse_document(revised_to_xml(revised, table))
        _, first, second = find_elements(doc.root, "bloque")
        assert first.attributes["codigo"] == "b0_0"
        second.attributes["codigo"] = "b0_0"
        with pytest.raises(XmlLoadError) as info:
            revised_from_xml(serialize_document(doc))
        assert str(info.value) == "código de bloque duplicado: 'b0_0'"

    def test_unresolvable_read_target_rejected(self):
        doc = self.small_doc()
        (read,) = find_elements(doc.root, "leer")
        read.attributes["variable"] = "nadie"
        with pytest.raises(XmlLoadError, match="irresoluble"):
            revised_from_xml(serialize_document(doc))

    def test_read_into_constant_name_rejected(self):
        doc = self.small_doc()
        (read,) = find_elements(doc.root, "leer")
        read.attributes["variable"] = "c"
        with pytest.raises(XmlLoadError, match="irresoluble"):
            revised_from_xml(serialize_document(doc))

    def test_duplicate_names_in_block_rejected(self):
        doc = self.small_doc()
        (block,) = find_elements(doc.root, "bloque")
        var = deepcopy(block.find("variable"))
        var.attributes["codigo"] = "v0_1"
        block.add(var)
        with pytest.raises(XmlLoadError, match="duplicado"):
            revised_from_xml(serialize_document(doc))

    def test_duplicate_procedure_names_in_block_rejected(self):
        revised, table = analyzed("procedure p;\nbegin end;\n"
                                  "procedure q;\nbegin end;\nbegin end.")
        doc = parse_document(revised_to_xml(revised, table))
        _, second = find_elements(doc.root, "procedimiento")
        second.attributes["nombre"] = "p"
        with pytest.raises(XmlLoadError) as info:
            revised_from_xml(serialize_document(doc))
        assert str(info.value) == "símbolo duplicado en el bloque: 'p'"

    def nested_doc(self, element, code, new_code):
        """NESTED's document with the `element` whose code is `code`
        retargeted to `new_code`."""
        revised, table = analyzed(NESTED)
        doc = parse_document(revised_to_xml(revised, table))
        (use,) = [found for found in find_elements(doc.root, element)
                  if found.attributes["codigo"] == code]
        use.attributes["codigo"] = new_code
        return serialize_document(doc)

    @pytest.mark.parametrize("element, code, new_code", [
        pytest.param("identificador", "v0/0_0", "v0/0/0_0",
                     id="a-nested-procedure-variable"),
        pytest.param("asignacion", "v0_0", "v0/1_0",
                     id="a-sibling-procedure-variable"),
    ])
    def test_reference_to_a_code_not_visible_rejected(self, element, code,
                                                      new_code):
        with pytest.raises(XmlLoadError) as info:
            revised_from_xml(self.nested_doc(element, code, new_code))
        assert str(info.value) == (f"referencia a un código que no es "
                                   f"visible: '{new_code}' (línea 7)")

    def test_reference_to_a_shadowed_outer_code_accepted(self):
        revised, table = analyzed("var x;\nprocedure p;\n  var x;\n"
                                  "begin x := 1 end;\nbegin call p end.")
        doc = parse_document(revised_to_xml(revised, table))
        (inner,) = find_elements(doc.root, "asignacion")
        assert inner.attributes["codigo"] == "v0/0_0"
        inner.attributes["codigo"] = "v0_0"
        again, _, _ = revised_from_xml(serialize_document(doc))
        (assign,) = again.block.procedures[0].block.body.statements
        assert assign.code == "v0_0"
