"""Translation to stack-machine code, the listing, and its XML form."""

import pytest

import checks
from pl0plus.codegen import MAIN_LABEL, generate
from pl0plus.lexer import tokenize
from pl0plus.parser import parse
from pl0plus.pcode import (Annotation, Instruction, Program, assembly_listing,
                           format_instruction, program_from_xml,
                           program_to_xml)
from pl0plus.xmldoc import XmlLoadError, parse_document, serialize_document
from xmltree import canonical_equal


def compiled(source):
    return checks.compile_clean(source).program


def shape(program):
    return [(i.address, i.opcode, i.level, i.param)
            for i in program.instructions]


SMALL = "var x; begin x := 3; write x end."

SMALL_SHAPE = [
    (0, "SAL", None, 1),
    (1, "INS", None, 4),
    (2, "LIT", None, 3),
    (3, "ALM", 0, 3),
    (4, "CAR", 0, 3),
    (5, "ESC", None, None),
    (6, "RET", None, None),
]

SMALL_LISTING = ("0 SAL      -          1\n"
                 "1 INS      -          4\n"
                 "2 LIT      -          3\n"
                 "3 ALM      0          3\n"
                 "4 CAR      0          3\n"
                 "5 ESC      -          -\n"
                 "6 RET      -          -\n")


class TestTranslation:
    def test_minimal_program(self):
        assert shape(compiled("begin end.")) == [
            (0, "SAL", None, 1),
            (1, "INS", None, 3),
            (2, "RET", None, None),
        ]

    def test_small_program(self):
        assert shape(compiled(SMALL)) == SMALL_SHAPE

    def test_read_becomes_input_then_store(self):
        program = compiled("var x;\nbegin read x end.")
        assert shape(program)[2:4] == [
            (2, "LEE", None, None), (3, "ALM", 0, 3)]

    def test_constants_load_as_literals(self):
        assert shape(compiled("const c=7;\nvar x;\nbegin x := c end.")) == [
            (0, "SAL", None, 1),
            (1, "INS", None, 4),
            (2, "LIT", None, 7),
            (3, "ALM", 0, 3),
            (4, "RET", None, None),
        ]

    def test_frame_reserves_three_cells_plus_variables(self):
        assert shape(compiled("var a, b, c;\nbegin a := 1 end."))[1] == (
            1, "INS", None, 6)

    def test_variables_start_at_offset_three(self):
        program = compiled("var a, b;\nbegin b := a end.")
        assert shape(program)[2:4] == [
            (2, "CAR", 0, 3), (3, "ALM", 0, 4)]

    def test_procedure_layout(self):
        assert shape(compiled("var x;\n"
                              "procedure p;\n"
                              "begin x := 1 end;\n"
                              "begin call p end.")) == [
            (0, "SAL", None, 6),
            (1, "SAL", None, 2),
            (2, "INS", None, 3),
            (3, "LIT", None, 1),
            (4, "ALM", 1, 3),
            (5, "RET", None, None),
            (6, "INS", None, 4),
            (7, "LLA", 0, 2),
            (8, "RET", None, None),
        ]

    def test_call_to_enclosing_procedure(self):
        # The inner call's target is an entry point that does not exist
        # yet while the inner body is being translated.
        assert shape(compiled("procedure o;\n"
                              "    procedure i;\n"
                              "    begin call o end;\n"
                              "begin call i end;\n"
                              "begin call o end.")) == [
            (0, "SAL", None, 9),
            (1, "SAL", None, 6),
            (2, "SAL", None, 3),
            (3, "INS", None, 3),
            (4, "LLA", 2, 6),
            (5, "RET", None, None),
            (6, "INS", None, 3),
            (7, "LLA", 0, 3),
            (8, "RET", None, None),
            (9, "INS", None, 3),
            (10, "LLA", 0, 6),
            (11, "RET", None, None),
        ]

    def test_if_without_else(self):
        assert shape(compiled("var x;\n"
                              "begin if x > 0 then x := 1 end.")) == [
            (0, "SAL", None, 1),
            (1, "INS", None, 4),
            (2, "CAR", 0, 3),
            (3, "LIT", None, 0),
            (4, "OPR", None, 12),
            (5, "SAC", None, 8),
            (6, "LIT", None, 1),
            (7, "ALM", 0, 3),
            (8, "RET", None, None),
        ]

    def test_if_with_else(self):
        assert shape(compiled(
            "var x;\nbegin if odd x then x := 1 else x := 2 end.")) == [
            (0, "SAL", None, 1),
            (1, "INS", None, 4),
            (2, "CAR", 0, 3),
            (3, "OPR", None, 6),
            (4, "SAC", None, 8),
            (5, "LIT", None, 1),
            (6, "ALM", 0, 3),
            (7, "SAL", None, 10),
            (8, "LIT", None, 2),
            (9, "ALM", 0, 3),
            (10, "RET", None, None),
        ]

    def test_while_loop(self):
        assert shape(compiled(
            "var x;\nbegin while x < 9 do x := x + 1 end.")) == [
            (0, "SAL", None, 1),
            (1, "INS", None, 4),
            (2, "CAR", 0, 3),
            (3, "LIT", None, 9),
            (4, "OPR", None, 10),
            (5, "SAC", None, 11),
            (6, "CAR", 0, 3),
            (7, "LIT", None, 1),
            (8, "OPR", None, 2),
            (9, "ALM", 0, 3),
            (10, "SAL", None, 2),
            (11, "RET", None, None),
        ]

    def test_operation_codes(self):
        program = compiled("var a, b, x;\n"
                           "begin\n"
                           "    x := -a;\n"
                           "    x := a + b;\n"
                           "    x := a - b;\n"
                           "    x := a * b;\n"
                           "    x := a / b;\n"
                           "    if a = b then x := 1;\n"
                           "    if a <> b then x := 1;\n"
                           "    if a < b then x := 1;\n"
                           "    if a > b then x := 1;\n"
                           "    if a <= b then x := 1;\n"
                           "    if a >= b then x := 1;\n"
                           "    if odd a then x := 1;\n"
                           "end.")
        operations = [i for i in program.instructions
                      if i.opcode == "OPR"]
        assert [i.param for i in operations] == [
            1, 2, 3, 4, 5, 8, 9, 10, 12, 13, 11, 6]
        assert [i.annotations[0].text for i in operations] == [
            "negativo", "suma", "resta", "multiplicacion", "division",
            "comparacion", "diferente", "menor_que", "mayor_que",
            "menor_igual", "mayor_igual", "odd"]

    def test_calls_always_target_entry_points(self):
        for name in checks.CORPUS_NAMES:
            program = checks.corpus(name).program
            for instruction in program.instructions:
                if instruction.opcode == "LLA":
                    target = program.instructions[instruction.param]
                    assert target.opcode == "INS"

    def test_unresolved_tree_is_refused(self):
        tokens, _ = tokenize("var x;\nbegin x := 1 end.")
        never_analyzed, _ = parse(tokens)
        program, diags = generate(never_analyzed)
        assert program is None
        assert [(d.phase, d.severity, d.line, d.column, d.message)
                for d in diags] == [
            ("gen", "error", 1, 4, "Referencia sin resolver")]

    def test_single_dangling_use_is_located(self):
        artifacts = checks.compile_clean("var x, y;\nbegin x := y + 1 end.")
        artifacts.revised.block.body.statements[0].expr.left.code = None
        program, diags = generate(artifacts.revised)
        assert program is None
        assert [(d.line, d.column) for d in diags] == [(2, 11)]


class TestAnnotations:
    def test_main_block_markers(self):
        program = compiled("begin end.")
        jump, entry, done = program.instructions
        expected = {"inicio_de_procedimiento": MAIN_LABEL, "codigo": "b0"}
        assert jump.annotations[0].attributes == expected
        assert entry.annotations[0].attributes == expected
        assert done.annotations[0].attributes == {
            "fin_de_procedimiento": MAIN_LABEL}

    def test_procedure_markers_carry_position(self):
        program = compiled(
            "procedure p;\nbegin end;\nbegin call p end.")
        entry = program.instructions[2]
        assert entry.opcode == "INS"
        assert entry.annotations[0].attributes == {
            "columna": "10", "linea": "1",
            "inicio_de_procedimiento": "p", "codigo": "b0_0"}
        done = program.instructions[3]
        assert done.annotations[0].attributes == {"fin_de_procedimiento": "p"}

    def test_variable_accesses_name_their_symbol(self):
        program = compiled(SMALL)
        store = program.instructions[3]
        assert store.annotations[0].attributes == {
            "codigo": "v0_0", "linea": "1", "columna": "13", "variable": "x"}
        load = program.instructions[4]
        assert load.annotations[0].attributes == {
            "codigo": "v0_0", "linea": "1", "columna": "27", "variable": "x"}

    def test_statement_note_precedes_variable_note(self):
        program = compiled(
            "var x;\nbegin while x < 9 do x := x + 1 end.")
        first = program.instructions[2]
        assert first.opcode == "CAR"
        note, variable = first.annotations
        assert note.text == "Inicio de ciclo (while-do)"
        assert note.attributes == {"linea": "2", "columna": "6"}
        assert variable.attributes["variable"] == "x"

    def test_conditional_notes(self):
        with_else = compiled(
            "var x;\nbegin if odd x then x := 1 else x := 2 end.")
        assert with_else.instructions[2].annotations[0].text == \
            "Inicio de condicional (if-then-else)"
        without = compiled("var x;\nbegin if odd x then x := 1 end.")
        assert without.instructions[2].annotations[0].text == \
            "Inicio de condicional (if-then)"


class TestListing:
    def test_small_program_listing(self):
        assert assembly_listing(compiled(SMALL)) == SMALL_LISTING

    def test_field_alignment(self):
        cases = [
            (Instruction(0, "SAL", None, 55),
             "0 SAL      -          55"),
            (Instruction(10, "CAR", 1, 3),
             "10 CAR     1          3"),
            (Instruction(123, "LIT", None, -5),
             "123 LIT    -          -5"),
            (Instruction(7, "RET", None, None),
             "7 RET      -          -"),
        ]
        for instruction, expected in cases:
            assert format_instruction(instruction) == expected

    def test_wide_address_still_separated(self):
        line = format_instruction(Instruction(1234567, "OPR", None, 2))
        assert line == "1234567 OPR -         2"


SMALL_XML = """
<codigo_pmas>
  <salto_incondicional direccion="0" parametro="1">
    <informacion inicio_de_procedimiento="--PRINCIPAL--" codigo="b0"/>
  </salto_incondicional>
  <instanciar_procedimiento direccion="1" parametro="4">
    <informacion inicio_de_procedimiento="--PRINCIPAL--" codigo="b0"/>
  </instanciar_procedimiento>
  <cargar_literal direccion="2" parametro="3"/>
  <almacenar_variable direccion="3" diffnivel="0" parametro="3">
    <informacion codigo="v0_0" linea="1" columna="13" variable="x"/>
  </almacenar_variable>
  <cargar_variable direccion="4" diffnivel="0" parametro="3">
    <informacion codigo="v0_0" linea="1" columna="27" variable="x"/>
  </cargar_variable>
  <escribir direccion="5"/>
  <retornar direccion="6">
    <informacion fin_de_procedimiento="--PRINCIPAL--"/>
  </retornar>
  <ensamblador><![CDATA[0 SAL      -          1
1 INS      -          4
2 LIT      -          3
3 ALM      0          3
4 CAR      0          3
5 ESC      -          -
6 RET      -          -
]]></ensamblador>
</codigo_pmas>"""


class TestXml:
    def test_known_document(self):
        doc = parse_document(program_to_xml(compiled(SMALL)))
        assert canonical_equal(doc, parse_document(SMALL_XML))

    def test_level_only_on_frame_relative_opcodes(self):
        doc = parse_document(
            program_to_xml(checks.corpus("fibonacci.pl0+").program))
        for element in doc.root.elements():
            if element.name in ("ensamblador", "fuente"):
                continue
            has_level = "diffnivel" in element.attributes
            assert has_level == (element.name in (
                "cargar_variable", "almacenar_variable",
                "llamar_procedimiento"))

    def test_parameterless_opcodes_have_no_parameter(self):
        doc = parse_document(
            program_to_xml(checks.corpus("fibonacci.pl0+").program))
        for element in doc.root.elements():
            if element.name in ("retornar", "leer", "escribir"):
                assert "parametro" not in element.attributes

    def test_listing_matches_instruction_elements(self):
        program = checks.corpus("recursivo.pl0+").program
        doc = parse_document(program_to_xml(program))
        assert doc.root.find("ensamblador").cdata() == \
            assembly_listing(program)

    def test_fuente_round_trip(self):
        program = compiled(SMALL)
        text = program_to_xml(program, SMALL)
        assert parse_document(text).root.find("fuente").cdata() == SMALL
        assert program_from_xml(text) == (program, SMALL)
        assert program_from_xml(program_to_xml(program)) == (program, None)

    def test_round_trip(self):
        for name in checks.CORPUS_NAMES:
            artifacts = checks.corpus(name)
            checks.check_program_roundtrip(artifacts.program,
                                           artifacts.source)

    def test_listing_text_is_not_consulted(self):
        doc = parse_document(program_to_xml(compiled(SMALL)))
        doc.root.find("ensamblador").children.clear()
        program, _ = program_from_xml(serialize_document(doc))
        assert shape(program) == SMALL_SHAPE

    @pytest.mark.parametrize("content, kept", [
        ("a <b>z</b> c", "a  c"), ("x<![CDATA[y]]> z", "x z"),
        (" <b/> ", "")])
    def test_annotation_text_around_markup(self, content, kept):
        # What parse_document keeps as the element's text: the runs of
        # text between the child elements and CDATA that are not blank.
        text = program_to_xml(Program([Instruction(
            0, "RET", annotations=[Annotation(text="@")])]))
        text = text.replace(">@<", f">{content}<")
        program, _ = program_from_xml(text)
        (annotation,) = program.instructions[0].annotations
        assert annotation.text == kept == parse_document(text).root.find(
            "retornar").find("informacion").text()

    def load_error(self, text):
        with pytest.raises(XmlLoadError):
            program_from_xml(text)

    def test_wrong_root_rejected(self):
        self.load_error("<codigo/>")

    def test_unknown_instruction_rejected(self):
        self.load_error('<codigo_pmas><volar direccion="0"/></codigo_pmas>')

    def test_addresses_must_be_consecutive(self):
        self.load_error("<codigo_pmas>"
                        '<retornar direccion="0"/>'
                        '<retornar direccion="2"/>'
                        "</codigo_pmas>")

    def test_missing_address_rejected(self):
        self.load_error("<codigo_pmas><retornar/></codigo_pmas>")

    def test_non_numeric_parameter_rejected(self):
        self.load_error('<codigo_pmas>'
                        '<cargar_literal direccion="0" parametro="x"/>'
                        "</codigo_pmas>")

    @pytest.mark.parametrize("element, message", [
        ('<retornar/>', "elemento 'retornar': falta el atributo 'direccion'"),
        ('<cargar_literal direccion="0" parametro="x"/>',
         "elemento 'cargar_literal': el atributo 'parametro' no es un "
         "entero: 'x'"),
    ])
    def test_attribute_messages(self, element, message):
        with pytest.raises(XmlLoadError) as caught:
            program_from_xml(
                f"<codigo_pmas>{element}</codigo_pmas>")
        assert str(caught.value) == message

    def test_missing_level_rejected(self):
        self.load_error('<codigo_pmas>'
                        '<cargar_variable direccion="0" parametro="3"/>'
                        "</codigo_pmas>")

    def test_level_forbidden_elsewhere(self):
        self.load_error('<codigo_pmas>'
                        '<cargar_literal direccion="0" diffnivel="0"'
                        ' parametro="1"/>'
                        "</codigo_pmas>")

    def test_parameter_forbidden_on_parameterless(self):
        self.load_error('<codigo_pmas>'
                        '<retornar direccion="0" parametro="1"/>'
                        "</codigo_pmas>")

    def test_missing_parameter_rejected(self):
        self.load_error('<codigo_pmas>'
                        '<cargar_literal direccion="0"/>'
                        "</codigo_pmas>")

    @pytest.mark.parametrize("code", [0, 7, 14])
    def test_unknown_operation_code_rejected(self, code):
        self.load_error(f'<codigo_pmas>'
                        f'<operacion direccion="0" parametro="{code}"/>'
                        f"</codigo_pmas>")

    def test_jump_out_of_range_rejected(self):
        self.load_error('<codigo_pmas>'
                        '<salto_incondicional direccion="0" parametro="5"/>'
                        '<retornar direccion="1"/>'
                        "</codigo_pmas>")

    def test_call_out_of_range_rejected(self):
        self.load_error('<codigo_pmas>'
                        '<llamar_procedimiento direccion="0" diffnivel="0"'
                        ' parametro="-1"/>'
                        "</codigo_pmas>")
