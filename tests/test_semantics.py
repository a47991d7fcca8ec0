"""Name resolution, symbol codes, and the revised tree's XML form."""

import gc
import random
import shutil
from copy import deepcopy

import pytest

import checks
import progen
from pl0plus.compiler import compiler_main
from pl0plus.lexer import tokenize
from pl0plus.parser import (ConstDecl, ProcDecl, VarDecl, ast_from_xml,
                            ast_to_xml, parse, walk)
from pl0plus.semantics import (ROOT_NAME, analyze, rebuild_symbol_table,
                               revised_from_xml, revised_to_xml)
from pl0plus.xmldoc import XmlLoadError, parse_document, serialize_document
from xmltree import canonical_equal


def parsed(source):
    tokens, lex_diags = tokenize(source)
    assert not lex_diags
    ast, sin_diags = parse(tokens)
    assert not sin_diags
    return ast


def analyzed(source):
    revised, diags = analyze(parsed(source))
    assert not diags, diags
    return revised


def findings(source):
    _, diags = analyze(parsed(source))
    return [(d.phase, d.severity, d.line, d.column, d.message) for d in diags]


def generated(tmp_path, doc):
    """The `.p+` text `compilador --gen` writes for the revised tree
    document `doc`."""
    path = tmp_path / "editado.pl0+sem"
    path.write_text(serialize_document(doc), encoding="utf-8")
    assert compiler_main(["--gen", str(path)]) == 0
    return (tmp_path / "editado.p+").read_text(encoding="utf-8")


def find_elements(node, name):
    found = [node] if node.name == name else []
    for child in node.elements():
        found.extend(find_elements(child, name))
    return found


# Main declares a constant and two variables; `p` declares three
# variables and two procedures, and `r` a procedure of its own.
CODE_PATHS = ("const c=1;\nvar x, y;\n"
              "procedure p;\n"
              "    var a, b, z;\n"
              "    procedure q;\n    begin end;\n"
              "    procedure r;\n"
              "        procedure s;\n        begin end;\n"
              "    begin call s end;\n"
              "begin call r end;\n"
              "begin call p end.")


class TestSymbolCode:
    def test_blocks_join_with_underscores(self):
        block = analyzed(CODE_PATHS).block
        p = block.procedures[0].block
        r = p.procedures[1].block
        assert [block.code, p.code, r.code] == ["b0", "b0_0", "b0_0_1"]

    def test_symbols_join_path_with_slashes(self):
        block = analyzed(CODE_PATHS).block
        p = block.procedures[0].block
        r = p.procedures[1].block
        assert block.constants[0].code == "c0_0"
        assert block.variables[1].code == "v0_1"
        assert p.variables[2].code == "v0/0_2"
        assert r.procedures[0].code == "p0/0/1_0"


class TestCodes:
    def test_fibonacci_codes(self):
        revised = analyzed(checks.FIB.read_text(encoding="utf-8"))
        block = revised.block
        assert block.code == "b0"
        assert [v.code for v in block.variables] == ["v0_0", "v0_1"]
        proc = block.procedures[0]
        assert proc.code == "p0_0"
        assert proc.block.code == "b0_0"
        assert [v.code for v in proc.block.variables] == [
            "v0/0_0", "v0/0_1", "v0/0_2"]
        declarations = rebuild_symbol_table(revised)
        assert declarations["v0/0_1"] is proc.block.variables[1]
        assert declarations["v0/0_1"].name == "f_1"
        assert declarations["p0_0"] is proc

    def test_deeply_nested_codes(self):
        source = (
            "procedure p;\n"
            "    var y;\n"
            "    procedure q;\n"
            "    begin end;\n"
            "    procedure r;\n"
            "        var x;\n"
            "    begin x := 1; y := x end;\n"
            "begin call r end;\n"
            "begin call p end.")
        revised = analyzed(source)
        p = revised.block.procedures[0]
        q, r = p.block.procedures
        assert (p.code, q.code, r.code) == ("p0_0", "p0/0_0", "p0/0_1")
        assert (p.block.code, q.block.code, r.block.code) == (
            "b0_0", "b0_0_0", "b0_0_1")
        assert r.block.variables[0].code == "v0/0/1_0"
        declarations = rebuild_symbol_table(revised)
        assert declarations == {"p0_0": p, "v0/0_0": p.block.variables[0],
                                "p0/0_0": q, "p0/0_1": r,
                                "v0/0/1_0": r.block.variables[0]}
        # r's body stores into its own x, then into p's y one level out.
        stores = [(ins.level, ins.param)
                  for ins in checks.compile_clean(source).program.instructions
                  if ins.opcode == "ALM"]
        assert stores == [(0, 3), (1, 3)]

    def test_kind_indices_are_independent(self):
        revised = analyzed("const a=1, b=2;\nvar x;\nbegin x := a end.")
        block = revised.block
        assert [c.code for c in block.constants] == ["c0_0", "c0_1"]
        assert block.variables[0].code == "v0_0"

    def test_table_records_constant_values(self):
        revised = analyzed("const a=1, b=-7;\nvar x;\n"
                           "procedure p;\nbegin end;\nbegin end.")
        declarations = rebuild_symbol_table(revised)
        assert [type(declarations[code]) for code in declarations] == [
            ConstDecl, ConstDecl, VarDecl, ProcDecl]
        assert declarations["c0_0"].value == 1
        assert declarations["c0_1"].value == -7

    def test_uses_link_to_declarations(self):
        revised = analyzed(
            "var x;\nbegin\n    read x;\n    x := x + 1;\n"
            "    write x;\nend.")
        read, assign, write = revised.block.body.statements
        assert read.code == "v0_0"
        assert assign.code == "v0_0"
        assert assign.expr.left.code == "v0_0"
        assert write.code == "v0_0"

    def test_call_links_to_procedure(self):
        revised = analyzed("procedure p;\nbegin end;\nbegin call p end.")
        assert revised.block.body.statements[0].code == "p0_0"


class TestVisibility:
    def test_inner_declaration_shadows_outer(self):
        revised = analyzed(
            "var x;\nprocedure p;\n    var x;\nbegin x := 1 end;\n"
            "begin x := 2 end.")
        inner = revised.block.procedures[0].block.body.statements[0]
        outer = revised.block.body.statements[0]
        assert inner.code == "v0/0_0"
        assert outer.code == "v0_0"

    def test_nested_block_sees_enclosing_names(self):
        revised = analyzed(
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
        revised = analyzed("const c=1;\nbegin write c end.")
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
        revised, diags = analyze(parsed("var x, x;\nbegin x := 1 end."))
        assert len(diags) == 1
        assert revised.block.body.statements[0].code == "v0_0"


class TestAnalyze:
    def test_input_tree_is_annotated_in_place(self):
        ast = parsed("var x;\nbegin x := 1 end.")
        assert ast.block.code is None
        revised, _ = analyze(ast)
        assert revised is ast
        assert ast.block.code == "b0"
        assert ast.block.variables[0].code == "v0_0"
        assert ast.block.body.statements[0].code == "v0_0"

    def test_results_hold_no_reference_cycle(self):
        # A scope links to its parent only, so reference counting alone
        # frees the tree analyze gives.
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
        revised = analyzed(source)
        independent = analyzed(source)
        again, diags = analyze(revised)
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
        revised = analyzed(checks.FIB.read_text(encoding="utf-8"))
        rebuilt = rebuild_symbol_table(deepcopy(revised))
        blocks = [revised.block] + [proc.block
                                    for proc in revised.block.procedures]
        assert set(rebuilt) == {
            node.code for block in blocks
            for node in block.constants + block.variables + block.procedures}


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
        return parse_document(revised_to_xml(analyzed(SMALL), source))

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
        revised = analyzed(
            "procedure p;\nbegin end;\nbegin call p end.")
        root = parse_document(revised_to_xml(revised)).root
        (proc,) = find_elements(root, "procedimiento")
        assert "codigo" not in proc.attributes
        (call,) = find_elements(root, "llamada")
        assert "codigo" not in call.attributes

    def test_round_trip(self):
        revised = analyzed(SMALL)
        again, source = revised_from_xml(revised_to_xml(revised, SMALL))
        assert again == revised
        assert source == SMALL

    def test_renamed_codes_still_link(self):
        doc = self.small_doc()
        for name in ("variable", "asignacion", "identificador"):
            for element in find_elements(doc.root, name):
                if element.attributes.get("codigo") == "v0_0":
                    element.attributes["codigo"] = "mi_clave"
        revised, _ = revised_from_xml(serialize_document(doc))
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
        revised = analyzed(source)
        again, _ = revised_from_xml(revised_to_xml(revised))
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
        revised = analyzed("procedure p;\nbegin end;\n"
                                  "procedure q;\nbegin end;\nbegin end.")
        doc = parse_document(revised_to_xml(revised))
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
        revised = analyzed("procedure p;\nbegin end;\n"
                                  "procedure q;\nbegin end;\nbegin end.")
        doc = parse_document(revised_to_xml(revised))
        _, second = find_elements(doc.root, "procedimiento")
        second.attributes["nombre"] = "p"
        with pytest.raises(XmlLoadError) as info:
            revised_from_xml(serialize_document(doc))
        assert str(info.value) == "símbolo duplicado en el bloque: 'p'"

    def nested_doc(self, element, code, new_code):
        """NESTED's document with the `element` whose code is `code`
        retargeted to `new_code`."""
        revised = analyzed(NESTED)
        doc = parse_document(revised_to_xml(revised))
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

    def test_reference_to_a_shadowed_outer_code_accepted(self, tmp_path):
        revised = analyzed("var x;\nprocedure p;\n  var x;\n"
                           "begin x := 1 end;\nbegin call p end.")
        doc = parse_document(revised_to_xml(revised))
        (inner,) = find_elements(doc.root, "asignacion")
        assert inner.attributes["codigo"] == "v0/0_0"
        inner.attributes["codigo"] = "v0_0"
        again, _ = revised_from_xml(serialize_document(doc))
        (assign,) = again.block.procedures[0].block.body.statements
        assert assign.code == "v0_0"
        # The code, not the name, picks the variable: p's store goes one
        # static link up, to main's x.
        (store,) = find_elements(parse_document(generated(tmp_path, doc)).root,
                                 "almacenar_variable")
        assert (store.attributes["diffnivel"],
                store.attributes["parametro"]) == ("1", "3")
        assert store.find("informacion").attributes["codigo"] == "v0_0"
        assert store.find("informacion").attributes["variable"] == "x"

    def test_renamed_codes_give_the_same_instructions(self, tmp_path):
        doc = parse_document(revised_to_xml(analyzed(NESTED)))
        before = generated(tmp_path, doc)
        assert before.count('codigo="v0_0"') == 2
        for name in ("variable", "asignacion", "identificador"):
            for element in find_elements(doc.root, name):
                if element.attributes["codigo"] == "v0_0":
                    element.attributes["codigo"] = "mi clave"
        assert generated(tmp_path, doc) == before.replace(
            'codigo="v0_0"', 'codigo="mi clave"')


def edited(name, *edits):
    """The `.pl0+sem` text of the corpus program `name`, edited.  Each edit
    is (element, match, attribute, value): in the one `element` whose
    attributes include `match`, `attribute` is set to `value`, or removed
    when `value` is None."""
    doc = parse_document(revised_to_xml(checks.corpus(name).revised))
    for element, match, attribute, value in edits:
        (found,) = [node for node in find_elements(doc.root, element)
                    if match.items() <= node.attributes.items()]
        if value is None:
            del found.attributes[attribute]
        else:
            found.attributes[attribute] = value
    return serialize_document(doc)


# One edited corpus document per fault the validator finds, with the
# fault's full text.
VALIDATOR_FAULTS = {
    "block-without-code": (
        "anidado.pl0+",
        [("bloque", {"codigo": "b0_0_0"}, "codigo", None)],
        "bloque sin atributo 'codigo' (línea 6)"),
    "duplicate-block-code": (
        "anidado.pl0+",
        [("bloque", {"codigo": "b0_0_0_0"}, "codigo", "b0_0")],
        "código de bloque duplicado: 'b0_0'"),
    "variable-without-code": (
        "anidado.pl0+",
        [("variable", {"nombre": "y"}, "codigo", None)],
        "variable 'y' sin atributo 'codigo' (línea 6)"),
    "constant-without-code": (
        "aritmetica.pl0+",
        [("constante", {"nombre": "uno"}, "codigo", None)],
        "constante 'uno' sin atributo 'codigo' (línea 2)"),
    "duplicate-name": (
        "anidado.pl0+",
        [("variable", {"nombre": "total"}, "nombre", "x")],
        "símbolo duplicado en el bloque: 'x'"),
    "variable-code-of-a-procedure": (
        "anidado.pl0+",
        [("variable", {"nombre": "total"}, "codigo", "p0_0")],
        "código duplicado: 'p0_0'"),
    "reference-without-code": (
        "anidado.pl0+",
        [("identificador", {"linea": "9", "simbolo": "x"}, "codigo", None)],
        "referencia sin atributo 'codigo' (línea 9)"),
    "dangling-code": (
        "anidado.pl0+",
        [("asignacion", {"linea": "22"}, "codigo", "v0_9")],
        "referencia a un código inexistente: 'v0_9'"),
    "code-of-wrong-kind": (
        "anidado.pl0+",
        [("identificador", {"linea": "9", "simbolo": "x"}, "codigo",
          "p0_0")],
        "el código 'p0_0' no es de la clase de símbolo esperada"),
    "code-not-visible": (
        "anidado.pl0+",
        [("asignacion", {"linea": "18"}, "codigo", "v0/0/0_0")],
        "referencia a un código que no es visible: 'v0/0/0_0' (línea 18)"),
    "unresolvable-name": (
        "anidado.pl0+",
        [("llamada", {"linea": "19"}, "procedimiento", "interno")],
        "referencia irresoluble a 'interno' (línea 19)"),
    # A call sees only the procedures declared up to the one it lies in,
    # as in the source: `factorial` cannot call its later sibling.
    "call-to-a-later-sibling": (
        "recursivo.pl0+",
        [("llamada", {"linea": "9"}, "procedimiento", "bajar")],
        "referencia irresoluble a 'bajar' (línea 9)"),
    # Declarations are checked, block by block, before any use: a fault
    # in an earlier procedure's block comes before a later sibling's
    # duplicate name.
    "earlier-block-before-later-sibling": (
        "recursivo.pl0+",
        [("bloque", {"codigo": "b0_0"}, "codigo", None),
         ("procedimiento", {"nombre": "bajar"}, "nombre", "factorial")],
        "bloque sin atributo 'codigo' (línea 5)"),
    # Uses are checked in the inner procedures' bodies before the body
    # around them.
    "inner-body-before-outer-body": (
        "anidado.pl0+",
        [("asignacion", {"linea": "22"}, "codigo", "v0_8"),
         ("asignacion", {"linea": "9"}, "codigo", "v0_9")],
        "referencia a un código inexistente: 'v0_9'"),
}


@pytest.mark.parametrize("name, edits, message", VALIDATOR_FAULTS.values(),
                         ids=VALIDATOR_FAULTS.keys())
def test_validator_fault_text(name, edits, message):
    with pytest.raises(XmlLoadError) as info:
        revised_from_xml(edited(name, *edits))
    assert str(info.value) == message


def test_inner_call_sees_no_later_sibling_around_it():
    # b lies in a, and c is a's later sibling: in the source b cannot call
    # c, and in a `.pl0+sem` it cannot either.
    source = NESTED.replace("begin y := 5; write y end;",
                            "begin y := 5; call a end;")
    doc = parse_document(revised_to_xml(analyzed(source)))
    (call,) = [node for node in find_elements(doc.root, "llamada")
               if node.attributes["linea"] == "6"]
    call.attributes["procedimiento"] = "c"
    with pytest.raises(XmlLoadError) as info:
        revised_from_xml(serialize_document(doc))
    assert str(info.value) == "referencia irresoluble a 'c' (línea 6)"


def renamed(source, seed):
    """`source` with one occurrence of a name changed into another name
    the program uses, both picked by `seed`."""
    tokens, _ = tokenize(source)
    names = [token for token in tokens
             if token.kind == "IDENTIFICADOR"]
    rng = random.Random(seed)
    token = rng.choice(names)
    name = rng.choice(sorted({other.name for other in names} - {token.name}))
    lines = source.split("\n")
    line = lines[token.line - 1]
    lines[token.line - 1] = (line[:token.column] + name
                             + line[token.column + token.length:])
    return "\n".join(lines)


def uncoded(tree):
    """The nodes of `tree` that have a `code` field but no code in it."""
    return [node for node in walk(tree)
            if "code" in node.__slots__ and type(node.code) is not str]


def test_what_analysis_accepts_the_validator_accepts():
    # Ten renames of each of twenty generated programs; 87 of the 200
    # variants have no finding, and each one's `.pl0+sem` reads back to
    # a tree that writes the same text.  Each node with a `code` field
    # holds a code in both trees, as `generate` takes for granted.
    accepted = 0
    for seed in range(1000, 1020):
        source, _, _ = progen.generate(seed)
        for k in range(10):
            variant = renamed(source, f"{seed}-{k}")
            revised, diags = analyze(parsed(variant))
            if diags:
                continue
            assert uncoded(revised) == [], variant
            text = revised_to_xml(revised, variant)
            again = revised_from_xml(text)
            assert uncoded(again[0]) == [], variant
            assert revised_to_xml(*again) == text, variant
            accepted += 1
    assert accepted == 87


# `compilador errores_semanticos.pl0+`'s standard output: each finding
# the semantic phase makes.
ERRORES_SEMANTICOS_OUTPUT = """\
ERROR*****
Fase de origen:sem
Línea 2: Símbolo duplicado
var x, x;
-------^
ERROR*****
Fase de origen:sem
Línea 5: Referencia a variable no declarada
    x := y
---------^
ERROR*****
Fase de origen:sem
Línea 8: Asignación a constante
    k := 1;
----^
ERROR*****
Fase de origen:sem
Línea 9: Asignación a constante
    read k;
---------^
ERROR*****
Fase de origen:sem
Línea 10: Uso inválido de procedimiento
    x := p + 1;
---------^
ERROR*****
Fase de origen:sem
Línea 11: Uso inválido de procedimiento
    write p;
----------^
ERROR*****
Fase de origen:sem
Línea 12: Referencia a procedimiento no declarado
    call q;
---------^
ERROR*****
Fase de origen:sem
Línea 13: Referencia a procedimiento no declarado
    call x
---------^
"""


def test_every_finding_of_the_semantic_phase(tmp_path, capsys):
    source = tmp_path / "errores_semanticos.pl0+"
    shutil.copyfile(checks.DATA / "errores_semanticos.pl0+", source)
    assert compiler_main([str(source)]) == 1
    assert capsys.readouterr().out == ERRORES_SEMANTICOS_OUTPUT
    assert not (tmp_path / "errores_semanticos.p+").exists()
