"""Recursive-descent parsing, error recovery, and the tree's XML form."""

import ast
import random
from collections import defaultdict
from pathlib import Path

import pytest

import checks
import progen
from pl0plus import codegen, parser
from pl0plus.lexer import KINDS, tokenize, tokens_from_xml, tokens_to_xml
from pl0plus.pcode import INSTRUCTIONS
from pl0plus.parser import (MAX_NESTING, TOO_DEEP, Assign, BinOp, Block,
                            Call, Cond, ConstDecl, Empty, Ident, If, Neg, Num,
                            Program, Read, Sequence, VarDecl, While, Write,
                            ast_from_xml, ast_to_xml, parse)
from pl0plus.semantics import analyze, revised_from_xml, revised_to_xml
from pl0plus.xmldoc import XmlLoadError, parse_document
from xmltree import canonical_equal


def parsed(source):
    tokens, lex_diags = tokenize(source)
    assert not lex_diags
    ast, diags = parse(tokens)
    assert not diags, diags
    return ast


def parse_with_diags(source):
    tokens, _ = tokenize(source)
    return parse(tokens)


def body(source):
    return parsed(source).block.body


def first_expr(source_expr):
    return body(f"begin x := {source_expr} end.").statements[0].expr


class TestStructure:
    def test_minimal_program(self):
        ast = parsed("begin end.")
        assert isinstance(ast, Program)
        assert ast.block.constants == []
        assert ast.block.variables == []
        assert ast.block.procedures == []
        seq = ast.block.body
        assert isinstance(seq, Sequence)
        assert seq.statements == [Empty(1, 6)]

    def test_single_statement_program(self):
        assert body("x := 1.") == Assign("x", Num(1, 1, 5), 1, 0)

    def test_declarations(self):
        ast = parsed("const a=1, b=2;\nvar x, y;\nbegin end.")
        assert ast.block.constants == [
            ConstDecl("a", 1, 1, 6), ConstDecl("b", 2, 1, 11)]
        assert ast.block.variables == [
            VarDecl("x", 2, 4), VarDecl("y", 2, 7)]

    def test_signed_constant_folded(self):
        ast = parsed("const neg=-5, pos=+7;\nbegin end.")
        assert [c.value for c in ast.block.constants] == [-5, 7]

    def test_procedure_nesting(self):
        ast = parsed("procedure p;\n"
                     "    procedure q;\n"
                     "    begin end;\n"
                     "begin end;\n"
                     "begin call p end.")
        outer = ast.block.procedures[0]
        assert outer.name == "p"
        assert (outer.line, outer.column) == (1, 10)
        inner = outer.block.procedures[0]
        assert inner.name == "q"
        assert ast.block.body.statements[0] == Call("p", 5, 11)

    def test_statement_forms(self):
        seq = body("begin\n"
                   "    x := 1;\n"
                   "    call p;\n"
                   "    read a;\n"
                   "    write b;\n"
                   "    begin x := 2 end;\n"
                   "    if x = 1 then x := 2;\n"
                   "    while x < 9 do x := 9;\n"
                   "end.")
        classes = [type(s) for s in seq.statements]
        assert classes == [Assign, Call, Read, Write, Sequence, If, While]
        read = seq.statements[2]
        assert (read.variable, read.line, read.column) == ("a", 4, 9)
        write = seq.statements[3]
        assert (write.symbol, write.line, write.column) == ("b", 5, 10)

    def test_if_else(self):
        stmt = body("if odd x then y := 1 else y := 2.")
        assert isinstance(stmt, If)
        assert stmt.condition == Cond("odd", [Ident("x", 1, 7)], 1, 7)
        assert stmt.then_branch == Assign("y", Num(1, 1, 19), 1, 14)
        assert stmt.else_branch == Assign("y", Num(2, 1, 31), 1, 26)

    def test_else_binds_to_nearest_if(self):
        stmt = body("if a = 1 then if b = 2 then x := 1 else x := 2.")
        assert stmt.else_branch is None
        assert stmt.then_branch.else_branch is not None

    def test_empty_statement_between_semicolons(self):
        seq = body("begin x := 1; ; y := 2 end.")
        assert [type(s) for s in seq.statements] == [Assign, Empty, Assign]

    def test_trailing_semicolon_before_end(self):
        seq = body("begin x := 1; end.")
        assert [type(s) for s in seq.statements] == [Assign]

    def test_optional_semicolon_after_a_block_statement(self):
        # before the program's `.`, and before the `;` that ends a
        # procedure declaration
        assert body("begin x := 1 end;.") == body("begin x := 1 end.")
        ast = parsed("procedure p; begin end;; begin call p end.")
        assert [proc.name for proc in ast.block.procedures] == ["p"]

    def test_nothing_to_parse(self):
        ast, diags = parse([])
        assert ast is None
        assert [(d.severity, d.message) for d in diags] == [
            ("error", "Se esperaba '.'")]


class TestExpressions:
    def test_precedence(self):
        expr = first_expr("1 + 2 * 3")
        assert expr == BinOp("suma", Num(1, 1, 11),
                             BinOp("multiplicacion", Num(2, 1, 15),
                                   Num(3, 1, 19), 1, 17), 1, 13)

    def test_left_associativity(self):
        expr = first_expr("8 - 4 - 2")
        assert expr.op == "resta"
        assert expr.left.op == "resta"
        assert expr.right == Num(2, 1, 19)

    def test_parentheses_override(self):
        expr = first_expr("(1 + 2) * 3")
        assert expr.op == "multiplicacion"
        assert expr.left.op == "suma"

    def test_division_name(self):
        assert first_expr("a / b").op == "division"

    def test_leading_minus_covers_first_term_only(self):
        expr = first_expr("-a + b")
        assert expr.op == "suma"
        assert isinstance(expr.left, Neg)
        assert isinstance(expr.right, Ident)

    def test_leading_minus_wraps_whole_term(self):
        expr = first_expr("-a * b")
        assert isinstance(expr, Neg)
        assert expr.operand.op == "multiplicacion"

    def test_leading_plus_is_dropped(self):
        assert first_expr("+a") == Ident("a", 1, 12)

    def test_chained_unary_minus(self):
        expr = first_expr("- - -a")
        count = 0
        while isinstance(expr, Neg):
            count += 1
            expr = expr.operand
        assert count == 3
        assert expr == Ident("a", 1, 16)

    def test_minus_inside_factor(self):
        expr = first_expr("a * --b")
        assert expr.op == "multiplicacion"
        assert isinstance(expr.right, Neg)
        assert isinstance(expr.right.operand, Neg)

    def test_relations_map_to_operation_names(self):
        cases = [("=", "comparacion"), ("<>", "diferente"),
                 ("<", "menor_que"), (">", "mayor_que"),
                 ("<=", "menor_igual"), (">=", "mayor_igual")]
        for text, name in cases:
            stmt = body(f"if a {text} b then x := 1.")
            assert stmt.condition.op == name
            assert len(stmt.condition.operands) == 2

    def test_condition_anchor_is_first_operand(self):
        stmt = body("if  a < b then x := 1.")
        assert (stmt.condition.line, stmt.condition.column) == (1, 4)

    def test_binop_anchor_is_operator(self):
        expr = first_expr("a + b")
        assert (expr.line, expr.column) == (1, 13)


class TestRecovery:
    def test_missing_semicolon_is_warning(self):
        ast, diags = parse_with_diags(
            "begin\n    f := 9 - i * 2\n    if n<>1 then f := 1;\nend.")
        assert [(d.severity, d.phase, d.line, d.column, d.message)
                for d in diags] == [
            ("warning", "sin", 2, 18, "Falta un ';'")]
        assert [type(s) for s in ast.block.body.statements] == [Assign, If]

    def test_adjacent_operands_error_and_discard(self):
        ast, diags = parse_with_diags("begin i := 2 4; end.")
        assert [(d.severity, d.line, d.column, d.message) for d in diags] == [
            ("error", 1, 12, "Falta un operador")]
        assert ast.block.body.statements[0].expr == Num(2, 1, 11)

    def test_one_syntax_error_per_line(self):
        _, diags = parse_with_diags("begin x := 2 4 6; end.")
        assert [d.message for d in diags] == ["Falta un operador"]

    def test_errors_on_distinct_lines_all_reported(self):
        _, diags = parse_with_diags("begin x := 2 4;\ny := 3 5; end.")
        assert [(d.line, d.message) for d in diags] == [
            (1, "Falta un operador"), (2, "Falta un operador")]

    def test_missing_assign_operator(self):
        _, diags = parse_with_diags("begin x 1; end.")
        assert [d.message for d in diags] == ["Se esperaba ':='"]

    def test_missing_then(self):
        _, diags = parse_with_diags("begin if a = 1 write a; end.")
        assert [d.message for d in diags] == ["Se esperaba 'then'"]

    def test_adjacent_operand_masks_later_error_on_same_line(self):
        _, diags = parse_with_diags("begin if a = 1 x := 2; end.")
        assert [d.message for d in diags] == ["Falta un operador"]

    def test_missing_relational_operator(self):
        _, diags = parse_with_diags("begin if a then x := 2; end.")
        assert [d.message for d in diags] == [
            "Se esperaba un operador relacional"]

    def test_missing_operand(self):
        _, diags = parse_with_diags("begin x := 2 +; end.")
        assert [d.message for d in diags] == ["Se esperaba una expresión"]

    def test_missing_end(self):
        _, diags = parse_with_diags("begin x := 1.")
        assert [d.message for d in diags] == ["Se esperaba 'end'"]

    def test_missing_final_dot(self):
        _, diags = parse_with_diags("begin x := 1 end")
        assert [d.message for d in diags] == ["Se esperaba '.'"]

    def test_tokens_after_program_end(self):
        _, diags = parse_with_diags("begin x := 1 end. x")
        assert [d.message for d in diags] == [
            "Se esperaba el fin del programa"]

    def test_recovery_still_builds_tree(self):
        ast, diags = parse_with_diags(
            "var x;\nbegin\n    x 2;\n    x := 3;\nend.")
        assert diags
        statements = ast.block.body.statements
        assert statements[-1] == Assign("x", Num(3, 4, 9), 4, 4)

    # A fault inside a `const` or `var` section keeps the declarations
    # read before it, so the names they declare raise no `sem` finding.
    @pytest.mark.parametrize("source, finding, names", [
        ("const a = 1, b = ;\nvar x;\nbegin x := a; write x end.",
         (1, 17, "Se esperaba un número"), (["a"], ["x"])),
        ("var x, y z;\nbegin x := 1; write x end.",
         (1, 9, "Se esperaba ';'"), ([], ["x", "y"])),
    ], ids=["const", "var"])
    def test_section_fault_keeps_earlier_declarations(self, source, finding,
                                                      names):
        ast, diags = parse_with_diags(source)
        diags += analyze(ast)[1]
        assert [(d.phase, d.severity, d.line, d.column, d.message)
                for d in diags] == [("sin", "error", *finding)]
        assert ([c.name for c in ast.block.constants],
                [v.name for v in ast.block.variables]) == names


# Token kinds read from a `.pl0+lex` are expat's strings: equal to the
# lexer's, but not the same objects.  The corpus, both error programs and
# progen programs, each also with five seeded single-token deletions so
# that the recovery paths compare kinds too.
READ_BACK_SOURCES = ([checks.CORPUS / name for name in checks.CORPUS_NAMES]
                     + [checks.DATA / "errores_programa.pl0+",
                        checks.DATA / "errores_semanticos.pl0+"]
                     + list(range(1000, 1020)))


@pytest.mark.parametrize("source", READ_BACK_SOURCES,
                         ids=[getattr(source, "name", str(source))
                              for source in READ_BACK_SOURCES])
def test_tokens_read_back_parse_alike(source):
    if isinstance(source, int):
        rng = random.Random(source)
        source = progen.generate(source)[0]
    else:
        rng = random.Random(source.name)
        source = source.read_text(encoding="utf-8")
    tokens, _ = tokenize(source)
    edits = [tokens]
    for _ in range(5):
        drop = rng.randrange(len(tokens))
        edits.append(tokens[:drop] + tokens[drop + 1:])
    for edit in edits:
        read, _ = tokens_from_xml(tokens_to_xml(edit))
        assert parse(read) == parse(edit)


class TestNestingLimit:
    @pytest.mark.parametrize("shape", checks.NESTING_SHAPES)
    def test_the_limit_parses(self, shape):
        assert parsed(checks.nested(shape, MAX_NESTING)) is not None

    # 1,500 levels (500 for parentheses, whose level costs the parser more
    # Python frames) used to end in a RecursionError.
    @pytest.mark.parametrize("shape", checks.NESTING_SHAPES)
    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 500, 1500])
    def test_past_the_limit_is_one_error(self, shape, depth):
        ast, diags = parse_with_diags(checks.nested(shape, depth))
        assert ast is None
        line, column = checks.nesting_opener(shape, MAX_NESTING + 1)
        assert [(d.phase, d.severity, d.line, d.column, d.message)
                for d in diags] == [("sin", "error", line, column, TOO_DEEP)]

    def test_the_count_is_undone_on_the_way_out(self):
        # Many shallow nestings in a row are fine, also after recovery.
        statement = "x := " + "(" * 50 + "1" + ")" * 50
        broken = "x := " + "(" * 50 + "1 +" + ")" * 50
        source = ("var x;\nbegin\n"
                  + ";\n".join([statement, broken] * 10) + "\nend.\n")
        ast, diags = parse_with_diags(source)
        assert ast is not None
        assert [d.message for d in diags if d.severity == "error"] \
            == ["Se esperaba una expresión"] * 10


class TestXml:
    def test_known_tree(self):
        doc = parse_document(ast_to_xml(parsed(
            "var x;\nbegin\n    read x;\n"
            "    if odd x then write x;\nend.")))
        expected = parse_document("""
            <arbol_de_sintaxis>
              <programa>
                <bloque>
                  <variable linea="1" columna="4" nombre="x"/>
                  <secuencia linea="2" columna="0">
                    <leer linea="3" columna="9" variable="x"/>
                    <condicional linea="4" columna="4">
                      <condicion linea="4" columna="11" operacion="odd">
                        <identificador linea="4" columna="11" simbolo="x"/>
                      </condicion>
                      <escribir linea="4" columna="24" simbolo="x"/>
                    </condicional>
                  </secuencia>
                </bloque>
              </programa>
            </arbol_de_sintaxis>""")
        assert canonical_equal(doc, expected)

    def test_constant_element_carries_value(self):
        doc = parse_document(ast_to_xml(parsed("const a=-3;\nbegin end.")))
        const = doc.root.find("programa").find("bloque").find("constante")
        assert dict(const.attributes) == {
            "linea": "1", "columna": "6", "nombre": "a", "valor": "-3"}

    def test_fuente_present_only_with_source(self):
        ast = parsed("begin end.")
        assert parse_document(ast_to_xml(ast)).root.find("fuente") is None
        doc = parse_document(ast_to_xml(ast, "begin end.\n"))
        assert doc.root.find("fuente").cdata() == "begin end.\n"

    def test_round_trip_with_source(self):
        source = ("const c=4;\nvar x;\nprocedure p;\nbegin x := c end;\n"
                  "begin\n    read x;\n    while x > 0 do begin\n"
                  "        call p;\n        x := x - 1;\n    end;\n"
                  "    write x;\nend.")
        ast = parsed(source)
        again, source_again = ast_from_xml(
            ast_to_xml(ast, source))
        assert again == ast
        assert source_again == source

    @pytest.mark.parametrize("revised", [False, True], ids=["sin", "sem"])
    def test_element_inside_fuente_is_skipped(self, revised):
        # With its CDATA: only the fuente's own sections are the source.
        source = "var x;\nbegin x := 1 end.\n"
        ast = parsed(source)
        text = (revised_to_xml(analyze(ast)[0], source) if revised
                else ast_to_xml(ast, source))
        read = revised_from_xml if revised else ast_from_xml
        nested = text.replace(
            "<fuente>", '<fuente><otro n="1"><![CDATA[no]]><mas/></otro>')
        assert nested != text
        assert read(nested) == read(text)
        assert read(nested)[1] == source

    def test_wrong_root_rejected(self):
        with pytest.raises(XmlLoadError):
            ast_from_xml("<arbol/>")

    def test_unknown_statement_element_rejected(self):
        text = (
            '<arbol_de_sintaxis><programa><bloque>'
            '<brinco linea="1" columna="0"/>'
            "</bloque></programa></arbol_de_sintaxis>")
        with pytest.raises(XmlLoadError):
            ast_from_xml(text)

    def test_missing_position_rejected(self):
        text = (
            '<arbol_de_sintaxis><programa><bloque>'
            '<leer variable="x"/>'
            "</bloque></programa></arbol_de_sintaxis>")
        with pytest.raises(XmlLoadError):
            ast_from_xml(text)

    def test_odd_with_two_operands_rejected(self):
        text = (
            '<arbol_de_sintaxis><programa><bloque>'
            '<condicional linea="1" columna="0">'
            '<condicion linea="1" columna="3" operacion="odd">'
            '<numero linea="1" columna="3" valor="1"/>'
            '<numero linea="1" columna="5" valor="2"/>'
            "</condicion>"
            '<nada linea="1" columna="9"/>'
            "</condicional></bloque></programa></arbol_de_sintaxis>")
        with pytest.raises(XmlLoadError):
            ast_from_xml(text)

    def test_relation_with_one_operand_rejected(self):
        text = (
            '<arbol_de_sintaxis><programa><bloque>'
            '<condicional linea="1" columna="0">'
            '<condicion linea="1" columna="3" operacion="menor_que">'
            '<numero linea="1" columna="3" valor="1"/>'
            "</condicion>"
            '<nada linea="1" columna="9"/>'
            "</condicional></bloque></programa></arbol_de_sintaxis>")
        with pytest.raises(XmlLoadError):
            ast_from_xml(text)

    def test_non_numeric_position_rejected(self):
        text = (
            '<arbol_de_sintaxis><programa><bloque>'
            '<leer linea="uno" columna="0" variable="x"/>'
            "</bloque></programa></arbol_de_sintaxis>")
        with pytest.raises(XmlLoadError):
            ast_from_xml(text)


# One malformed tree document per message of the tree reader: a test id,
# the body and the message.  The id names the case, not the message, which
# several cases share.  The body goes inside `<programa><bloque>`; `sem`
# loads it as a revised tree.
P = 'linea="1" columna="0"'
NADA = f"<nada {P}/>"
UNO = f'<numero {P} valor="1"/>'
ODD = f'<condicion {P} operacion="odd">{UNO}</condicion>'


def assign(expression):
    return f'<asignacion {P} variable="x">{expression}</asignacion>'


def condition(operation, *operands):
    return (f'<condicion {P} operacion="{operation}">{"".join(operands)}'
            f"</condicion>")


LOADER_MESSAGES = [
    ("leer-child",
     f'<leer {P} variable="x">{UNO}</leer>',
     "elemento 'leer': no admite hijos"),
    ("assign-no-expression",
     f'<asignacion {P} variable="x"/>',
     "elemento 'asignacion': se esperaba exactamente una expresión"),
    ("if-no-condition",
     f"<condicional {P}>{NADA}{NADA}</condicional>",
     "elemento 'condicional': se esperaba una condición y una o dos "
     "instrucciones"),
    ("if-no-statement",
     f"<condicional {P}>{ODD}</condicional>",
     "elemento 'condicional': se esperaba una condición y una o dos "
     "instrucciones"),
    ("while-statement-first",
     f"<ciclo {P}>{NADA}{ODD}</ciclo>",
     "elemento 'ciclo': se esperaba una condición y una instrucción"),
    ("while-two-statements",
     f"<ciclo {P}>{ODD}{NADA}{NADA}</ciclo>",
     "elemento 'ciclo': se esperaba una condición y una instrucción"),
    ("sum-one-operand",
     assign(f"<suma {P}>{UNO}</suma>"),
     "elemento 'suma': se esperaban dos operandos"),
    ("neg-no-operand",
     assign(f"<negativo {P}/>"),
     "elemento 'negativo': se esperaba un operando"),
    ("unknown-operation",
     f"<ciclo {P}>{condition('igual', UNO, UNO)}{NADA}</ciclo>",
     "elemento 'condicion': operación desconocida: 'igual'"),
    ("odd-two-operands",
     f"<ciclo {P}>{condition('odd', UNO, UNO)}{NADA}</ciclo>",
     "elemento 'condicion': la operación 'odd' requiere 1 operando(s)"),
    ("less-one-operand",
     f"<ciclo {P}>{condition('menor_que', UNO)}{NADA}</ciclo>",
     "elemento 'condicion': la operación 'menor_que' requiere 2 "
     "operando(s)"),
    ("block-two-statements",
     NADA + NADA, "elemento 'bloque': más de una instrucción"),
    ("sequence-text",
     f"<secuencia {P}>{NADA}hola</secuencia>",
     "elemento 'secuencia': texto inesperado"),
    ("sequence-cdata",
     f"<secuencia {P}><![CDATA[hola]]></secuencia>",
     "elemento 'secuencia': CDATA inesperado"),
    ("unknown-statement",
     f"<brinco {P}/>", "instrucción desconocida: 'brinco'"),
    ("unknown-expression",
     assign(NADA), "expresión desconocida: 'nada'"),
    ("condition-as-statement",
     f"<secuencia {P}>{ODD}</secuencia>",
     "instrucción desconocida: 'condicion'"),
    ("procedure-no-block",
     f'<procedimiento {P} nombre="p"/>{NADA}',
     "elemento 'procedimiento': se esperaba exactamente un 'bloque'"),
    ("line-not-integer",
     f'<leer linea="uno" columna="0" variable="x"/>',
     "elemento 'leer': el atributo 'linea' no es un entero: 'uno'"),
    ("identifier-no-symbol",
     assign(f'<identificador {P}/>'),
     "elemento 'identificador': falta el atributo 'simbolo'"),
    # Checks the parent reader did not make on declarations: every
    # element is now checked alike.
    ("constant-text",
     f'<constante {P} nombre="c" valor="1">uno</constante>{NADA}',
     "elemento 'constante': texto inesperado"),
    ("variable-child",
     f'<variable {P} nombre="v">{UNO}</variable>{NADA}',
     "elemento 'variable': no admite hijos"),
    ("procedure-text",
     f'<procedimiento {P} nombre="p">x<bloque>{NADA}</bloque>'
     f"</procedimiento>{NADA}",
     "elemento 'procedimiento': texto inesperado"),
]


# Bodies with two faults, and the one reported: an element's own checks
# come before its children's, whatever the order the reader meets them.
FAULT_ORDER = [
    # the parent's number of operands before the name of its first
    ("order-operand-count-before-name",
     assign(f"<suma {P}><x/>{UNO}{UNO}</suma>"),
     "elemento 'suma': se esperaban dos operandos"),
    # stray text before the name
    ("order-text-before-name",
     f"<x {P}>y</x>", "elemento 'x': texto inesperado"),
    # the children before the attributes
    ("order-children-before-attributes",
     f"<asignacion {P}/>",
     "elemento 'asignacion': se esperaba exactamente una expresión"),
    # the parent's stray text, found later, before its child's name
    ("order-parent-text-before-child-name",
     f"<secuencia {P}><brinco {P}/>hola</secuencia>",
     "elemento 'secuencia': texto inesperado"),
    # the outer shape, found at its end, before an inner attribute
    ("order-shape-before-inner-attribute",
     f"<ciclo {P}>"
     + condition("odd", '<numero linea="x" columna="0" valor="1"/>')
     + f"{NADA}{NADA}</ciclo>",
     "elemento 'ciclo': se esperaba una condición y una instrucción"),
    # the operand count before the operand's name
    ("order-operand-count-before-operand-name",
     f"<ciclo {P}>{condition('odd', '<x/>', UNO)}{NADA}</ciclo>",
     "elemento 'condicion': la operación 'odd' requiere 1 operando(s)"),
    # of two siblings, the first
    ("order-first-of-two-siblings",
     f"<secuencia {P}><brinco {P}/><salto {P}/></secuencia>",
     "instrucción desconocida: 'brinco'"),
    # a child before the block's one statement and the parent's position
    ("order-child-before-block-position",
     f"<brinco {P}/>{NADA}", "instrucción desconocida: 'brinco'"),
    ("order-child-before-parent-position",
     f'<secuencia linea="x" columna="0"><brinco {P}/></secuencia>',
     "instrucción desconocida: 'brinco'"),
    # stray text before the number of children
    ("order-text-before-child-count",
     f"<condicional {P}>hola{NADA}</condicional>",
     "elemento 'condicional': texto inesperado"),
    # the attributes before the children's faults
    ("order-attributes-before-children",
     f"<asignacion {P}><x/></asignacion>",
     "elemento 'asignacion': falta el atributo 'variable'"),
    # the operation before the operands
    ("order-operation-before-operands",
     f"<ciclo {P}>{condition('igual', '<x/>')}{NADA}</ciclo>",
     "elemento 'condicion': operación desconocida: 'igual'"),
    # the nesting before the number of children
    ("order-nesting-before-child-count",
     f"<secuencia {P}>" * MAX_NESTING + f"<condicional {P}/>"
     + "</secuencia>" * MAX_NESTING,
     "elemento 'condicional': anidamiento de más de 200 niveles"),
]


@pytest.mark.parametrize("revised", [False, True], ids=["sin", "sem"])
@pytest.mark.parametrize("body, message", [
    pytest.param(body, message, id=name)
    for name, body, message in LOADER_MESSAGES + FAULT_ORDER])
def test_tree_loader_messages(body, message, revised):
    root = "arbol_de_sintaxis_revisado" if revised else "arbol_de_sintaxis"
    text = (f"<{root}><programa><bloque>{body}</bloque>"
            f"</programa></{root}>")
    loader = revised_from_xml if revised else ast_from_xml
    with pytest.raises(XmlLoadError) as info:
        loader(text)
    assert str(info.value) == message


@pytest.mark.parametrize("loader, document, message", [
    (ast_from_xml, "<arbol/>",
     "se esperaba el elemento raíz 'arbol_de_sintaxis', no 'arbol'"),
    (revised_from_xml, "<arbol_de_sintaxis/>",
     "se esperaba el elemento 'arbol_de_sintaxis_revisado', "
     "no 'arbol_de_sintaxis'"),
    (ast_from_xml, "<arbol_de_sintaxis/>", "falta el elemento 'programa'"),
    (ast_from_xml,
     "<arbol_de_sintaxis><programa/><programa/></arbol_de_sintaxis>",
     "más de un elemento 'programa'"),
    (ast_from_xml, "<arbol_de_sintaxis><otro/></arbol_de_sintaxis>",
     "elemento inesperado: 'otro'"),
    (ast_from_xml, "<arbol_de_sintaxis><programa/></arbol_de_sintaxis>",
     "elemento 'programa': se esperaba exactamente un 'bloque'"),
    # The elements below the root count before a fault in `programa`.
    (ast_from_xml, "<arbol_de_sintaxis><programa><bloque><brinco/>"
                   "</bloque></programa><otro/></arbol_de_sintaxis>",
     "elemento inesperado: 'otro'"),
])
def test_tree_envelope_messages(loader, document, message):
    with pytest.raises(XmlLoadError) as info:
        loader(document)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# The parser names token kinds, and the generator mnemonics, as plain
# strings.  A misspelt one raises nothing where it runs, so these read the
# source and check every such string, run or not.


def string_uses(module) -> dict:
    """The string literals in `module`'s source, by use: `(name,
    position)` for an argument of a call of a method or function `name`,
    and `(".kind", None)` for a string compared with a `.kind`."""
    uses = defaultdict(set)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, (ast.Attribute, ast.Name)):
            name = getattr(node.func, "attr", None) or node.func.id
            for position, argument in enumerate(node.args):
                if isinstance(argument, ast.Constant) \
                        and isinstance(argument.value, str):
                    uses[name, position].add(argument.value)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(operand, ast.Attribute) and operand.attr == "kind"
                   for operand in operands):
                uses[".kind", None].update(
                    leaf.value for operand in operands
                    for leaf in ast.walk(operand)
                    if isinstance(leaf, ast.Constant)
                    and isinstance(leaf.value, str))
    return uses


def test_every_kind_the_parser_names_is_a_token_kind():
    uses = string_uses(parser)
    at = set().union(*(names for (method, _), names in uses.items()
                       if method == "at"))
    sites = [at, uses["accept", 0], uses["expect", 0], uses[".kind", None]]
    assert all(sites)
    assert set().union(*sites) - KINDS == set()
    tables = [parser._STATEMENT_INITIAL, parser._SYNC - {None},
              parser._RELATIONAL.keys(), parser._ADDING.keys(),
              parser._MULTIPLYING.keys()]
    assert set().union(*tables) - KINDS == set()


def test_every_mnemonic_the_generator_emits_is_an_instruction():
    uses = string_uses(codegen)
    sites = [uses["emit", 0], uses["access", 0], uses["Instruction", 1]]
    assert all(sites)
    assert set().union(*sites) - INSTRUCTIONS.keys() == set()
