"""Document model, parsing, serialization, and canonical comparison."""

import gc
import re
from xml.parsers.expat import ParserCreate

import pytest

import checks
from pl0plus.lexer import tokens_from_xml
from pl0plus.parser import ast_from_xml
from pl0plus.pcode import Opcode, program_from_xml
from pl0plus.semantics import revised_from_xml
from pl0plus.xmldoc import (Cdata, Text, XmlDocument, XmlLoadError, XmlNode,
                            XmlParseError, cdata_sections, element_text,
                            parse_document, read_document, serialize_document)
from xmltree import canonical_equal


def doc(root):
    return XmlDocument(root)


class Name(str):
    """A `str` subclass: XmlNode checks its value, not its type."""


class TestModel:
    def test_attributes_keep_insertion_order(self):
        node = XmlNode("a", {"uno": "1", "dos": "2"})
        node.set("tres", 3)
        assert list(node.attributes.items()) == [
            ("uno", "1"), ("dos", "2"), ("tres", "3")]

    def test_attribute_values_coerced_to_str(self):
        node = XmlNode("a", {"n": 7})
        assert node.get("n") == "7"

    def test_invalid_element_name_rejected(self):
        for bad in ("", "con tilde ", "a<b", "x&y", 'q"r', None, 12):
            with pytest.raises(ValueError):
                XmlNode(bad)
        # A bad name must still fail after a good one, whatever its type.
        XmlNode("a")
        for bad in ("a b", Name("a b"), ["a"]):
            with pytest.raises(ValueError):
                XmlNode(bad)
        with pytest.raises(ValueError):
            XmlNode("a").element("x y")

    def test_invalid_attribute_name_rejected(self):
        with pytest.raises(ValueError):
            XmlNode("a", {"mal nombre": "1"})
        with pytest.raises(ValueError):
            XmlNode("a").set("mal nombre", 1)
        with pytest.raises(ValueError):
            XmlNode("a", {Name("mal nombre"): "1"})

    def test_find_and_elements_skip_text(self):
        node = XmlNode("a")
        node.add(Text("hola"))
        child = node.element("b", x="1")
        assert node.find("b") is child
        assert node.find("c") is None
        assert node.elements() == [child]

    def test_text_and_cdata_accessors(self):
        node = XmlNode("a", {}, [Text("uno "), Cdata("dos"), Text("tres")])
        assert node.text() == "uno tres"
        assert node.cdata() == "dos"

    def test_equality_is_by_class_and_fields(self):
        assert Text("x") == Text("x")
        assert Text("x") != Cdata("x")
        assert XmlNode("a", {"n": 1}, [Text("x")]) == XmlNode(
            "a", {"n": "1"}, [Text("x")])
        assert XmlNode("a") != XmlNode("a", {}, [Cdata("x")])
        assert XmlDocument(XmlNode("a")) == XmlDocument(XmlNode("a"))
        with pytest.raises(TypeError):
            hash(XmlNode("a"))

    def test_each_node_gets_its_own_containers(self):
        first, second = XmlNode("a"), XmlNode("a")
        first.set("n", 1)
        first.add(Text("x"))
        assert (second.attributes, second.children) == ({}, [])

    def test_cdata_rejects_terminator(self):
        with pytest.raises(ValueError):
            Cdata("a]]>b")

    def test_cdata_sections_split_terminator(self):
        parts = cdata_sections("a]]>b")
        assert [p.data for p in parts] == ["a]]", ">b"]
        assert "".join(p.data for p in parts) == "a]]>b"

    def test_cdata_sections_preserve_arbitrary_text(self):
        node = XmlNode("fuente", {}, cdata_sections("x ]]> y ]]> z"))
        assert node.cdata() == "x ]]> y ]]> z"


class TestParse:
    def test_minimal_document(self):
        parsed = parse_document('<?xml version="1.0" ?>\n<a/>')
        assert parsed.root == XmlNode("a")

    def test_declaration_is_optional(self):
        assert parse_document("<a/>").root.name == "a"

    def test_attribute_document_order(self):
        root = parse_document('<a zeta="1" alfa="2"/>').root
        assert list(root.attributes.items()) == [("zeta", "1"), ("alfa", "2")]

    def test_whitespace_between_elements_dropped(self):
        root = parse_document("<a>\n  <b/>\n  <c/>\n</a>").root
        assert [c.name for c in root.children] == ["b", "c"]

    def test_text_only_element_keeps_text(self):
        root = parse_document("<a>  hola  </a>").root
        assert root.children == [Text("  hola  ")]

    def test_entities_decoded(self):
        root = parse_document("<a>&lt;&amp;&gt;&quot;</a>").root
        assert root.text() == '<&>"'

    def test_text_in_pieces_is_one_text(self):
        # expat's text buffer hands this over in two pieces, 5,001 and
        # 5,000 characters long.
        text = "x" * 5000 + "&" + "y" * 5000
        root = parse_document(f"<a>{text.replace('&', '&amp;')}</a>").root
        assert root.children == [Text(text)]

    def test_cdata_verbatim(self):
        root = parse_document("<a><![CDATA[<no &es; marca]]></a>").root
        assert root.children == [Cdata("<no &es; marca")]

    def test_cdata_and_text_mixed(self):
        root = parse_document("<a>x<![CDATA[y]]>z</a>").root
        assert root.children == [Text("x"), Cdata("y"), Text("z")]

    def test_comments_discarded(self):
        root = parse_document("<a><!-- nada --><b/></a>").root
        assert [c.name for c in root.children] == ["b"]

    def test_malformed_reports_position(self):
        with pytest.raises(XmlParseError) as info:
            parse_document("<a>\n  <b>\n</a>")
        assert info.value.line == 3

    def test_two_roots_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<a/><b/>")

    def test_text_outside_root_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<a/>basura")

    def test_empty_input_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("")

    def test_processing_instruction_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<a><?php eco ?></a>")

    def test_doctype_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<!DOCTYPE a><a/>")


# Per phase reader: a well-formed document with a load fault (an unknown
# element, a bad integer, an element out of place), the same document
# with a malformation after the fault, and where expat reports that.
EARLY_LOAD_FAULTS = [
    (tokens_from_xml,
     '<lexemas>\n  <WHAT linea="1" columna="0" longitud="1"/>\n'
     '  <VAR linea="1" columna="0" longitud="3"/>\n</lexemas>\n',
     ('"3"/>', '"3">'), "mismatched tag", 4, 2),
    (ast_from_xml,
     '<arbol_de_sintaxis>\n  <programa>\n    <bloque>\n'
     '      <leer linea="x" columna="0" variable="v"/>\n    </bloque>\n'
     '  </programa>\n  <fuente/>\n</arbol_de_sintaxis>\n',
     ("<fuente/>", "<fuente>"), "mismatched tag", 8, 2),
    (revised_from_xml,
     "<arbol_de_sintaxis_revisado>\n  <otro/>\n  <programa/>\n"
     "</arbol_de_sintaxis_revisado>\n",
     ("<programa/>", "<programa>"), "mismatched tag", 4, 2),
    (program_from_xml,
     '<codigo_pmas>\n  <retornar direccion="7"/>\n'
     '  <retornar direccion="1"/>\n</codigo_pmas>\n',
     ("</codigo_pmas>", "<?pi x?>\n</codigo_pmas>"),
     "instrucción de procesamiento no admitida", 4, 0),
]


def _garbage_after(text: str, reader=parse_document) -> int:
    """What the cyclic collector finds after `text` is read and what the
    reader gave, or the error, is dropped, with the collector off
    meanwhile."""
    gc.collect()
    gc.disable()
    try:
        try:
            reader(text)
        except (XmlParseError, XmlLoadError):
            pass
        return gc.collect()
    finally:
        gc.enable()


class TestNoCycles:
    """Reference counting alone frees what parse_document leaves."""

    def test_dropped_document(self):
        text = ('<a x="1">' + "<b>t</b><![CDATA[c]]>" * 200
                + "<c><d/></c></a>")
        assert _garbage_after(text) == 0

    def test_processing_instruction_error(self):
        assert _garbage_after("<a><b/><?php eco ?></a>") == 0

    def test_malformed_document_error(self):
        assert _garbage_after("<a><b></a>") == 0

    @pytest.mark.parametrize("index", range(4),
                             ids=[case[0].__name__
                                  for case in EARLY_LOAD_FAULTS])
    def test_phase_readers(self, index):
        reader, text, edit = EARLY_LOAD_FAULTS[index][:3]
        for document in (text, text.replace(*edit)):
            assert _garbage_after(document, reader) == 0
        good = checks.phase_documents(checks.corpus("fibonacci.pl0+"))[index]
        assert _garbage_after(good, reader) == 0



class TestReaders:
    """What the phase readers share through `read_document`."""

    @pytest.mark.parametrize("reader, text, edit, message, line, column",
                             EARLY_LOAD_FAULTS,
                             ids=[case[0].__name__
                                  for case in EARLY_LOAD_FAULTS])
    def test_load_fault_does_not_hide_a_later_malformation(
            self, reader, text, edit, message, line, column):
        with pytest.raises(XmlLoadError):
            reader(text)
        with pytest.raises(XmlParseError) as info:
            reader(text.replace(*edit))
        assert (info.value.message, info.value.line,
                info.value.column) == (message, line, column)

    def test_element_text_keeps_what_parse_document_keeps(self):
        for text in ("<a>  </a>", "<a> x <b/> y </a>", "<a>  <b/>  </a>",
                     "<a>x<![CDATA[c]]> <!-- n --> y</a>", "<a></a>",
                     "<a><b>z</b></a>", "<a> <![CDATA[]]> </a>"):
            pieces = []
            depth = 0

            def start(name, attributes):
                nonlocal depth
                depth += 1
                if depth == 2:
                    pieces.append(None)

            def end(name):
                nonlocal depth
                depth -= 1

            def chars(data):
                if depth == 1:
                    pieces.append(data)

            def cdata(data):
                pieces.append(None)

            read_document(text, start, end, chars, cdata)
            assert element_text(pieces) == parse_document(text).root.text()

    def test_a_swapped_character_data_handler_is_back_after_cdata(self):
        # `b` swaps in its own handler and puts the first back at its end;
        # each CDATA section gives back the handler current before it.
        outer, inner, sections = [], [], []
        parser = ParserCreate()

        def start(name, attributes):
            if name == "b":
                parser.CharacterDataHandler = inner.append

        def end(name):
            if name == "b":
                parser.CharacterDataHandler = outer.append

        read_document("<a>t<b>u<![CDATA[v]]>w</b>x<![CDATA[y]]>z</a>",
                      start, end, outer.append, sections.append, parser)
        assert (outer, inner, sections) == (["t", "x", "z"], ["u", "w"],
                                            ["v", "y"])

    def test_p_plus_reader_keeps_only_annotation_text(self):
        # Text and CDATA in an instruction element or between instructions
        # are ignored; an annotation keeps what parse_document keeps.
        text = ('<codigo_pmas>\n  suelto<![CDATA[cd]]>\n'
                '  <instanciar_procedimiento direccion="0" parametro="3">'
                'dentro<![CDATA[cd]]>\n'
                '    <informacion n="1">a<![CDATA[b]]>c<x>no</x>d'
                '</informacion>\n'
                '    <informacion> <x/> </informacion>otro\n'
                '  </instanciar_procedimiento>\n  entre<![CDATA[]]>\n'
                '  <retornar direccion="1"/>\n</codigo_pmas>\n')
        program, source = program_from_xml(text)
        assert source is None
        assert [(i.address, i.opcode, i.param)
                for i in program.instructions] == [(0, Opcode.INS, 3),
                                                    (1, Opcode.RET, None)]
        notes = parse_document(text).root.elements()[0].elements()
        assert [(a.attributes, a.text)
                for a in program.instructions[0].annotations] == [
            (note.attributes, note.text()) for note in notes] == [
            ({"n": "1"}, "acd"), ({}, "")]
        assert program.instructions[1].annotations == []

    # One document per reader whose elements carry each integer attribute
    # named, as "1", and most of them twice, so a value is read again; the
    # element whose fault is found first: the first one, or in a tree the
    # last, which closes first.
    INTEGERS = [
        (tokens_from_xml, '<lexemas><VAR linea="1" columna="1" longitud="1"/>'
         '<NUMERO valor="1" linea="1" columna="1" longitud="1"/></lexemas>',
         ("linea", "columna", "longitud", "valor"), 0),
        (ast_from_xml, '<arbol_de_sintaxis><programa><bloque>'
         '<asignacion linea="1" columna="1" variable="x">'
         '<numero linea="1" columna="1" valor="1"/></asignacion>'
         '</bloque></programa></arbol_de_sintaxis>',
         ("linea", "columna", "valor"), -1),
        (program_from_xml, '<codigo_pmas>'
         '<cargar_variable direccion="0" diffnivel="1" parametro="1"/>'
         '<cargar_literal direccion="1" parametro="1"/></codigo_pmas>',
         ("diffnivel", "parametro"), 0),
    ]

    @pytest.mark.parametrize("reader, text, names, first", INTEGERS,
                             ids=[case[0].__name__ for case in INTEGERS])
    def test_integer_attributes_are_ascii_decimal(self, reader, text, names,
                                                  first):
        for name in names:
            def written(value):
                return text.replace(f'{name}="1"', f'{name}="{value}"')

            for value, same in (("007", "7"), ("-0", "0"), ("0", "0"),
                                ("-12", "-12")):
                assert reader(written(value)) == reader(written(same))
            tag = re.findall(rf'<(\w+) [^>]*{name}="1"', text)[first]
            for value in ("+3", " 7", "0_1", "٣", "", "9" * 5000):
                with pytest.raises(XmlLoadError) as info:
                    reader(written(value))
                assert str(info.value) == (
                    f"elemento '{tag}': el atributo '{name}' no es un "
                    f"entero: {value!r}")


class TestDeepNesting:
    """No step of the document layer recurses per level of nesting."""

    def test_ten_thousand_levels_parse(self):
        text = "<a>" * 10000 + "x" + "</a>" * 10000
        node = parse_document(text).root
        for _ in range(9999):
            (node,) = node.children
        assert node.children == [Text("x")]
        assert canonical_equal(parse_document(text), parse_document(text))

    def test_deep_nesting_serializes(self):
        # 1,500 levels is beyond Python's default recursion limit.  The
        # indentation stops growing at 32 levels, so the text grows
        # linearly with the depth.
        depth = 1500

        def pad(level):
            return "  " * min(level, 32)

        text = serialize_document(parse_document("<a>" * depth
                                                 + "</a>" * depth))
        assert text == "\n".join(
            ['<?xml version="1.0" ?>']
            + [pad(level) + "<a>" for level in range(depth - 1)]
            + [pad(depth - 1) + "<a/>"]
            + [pad(level) + "</a>" for level in reversed(range(depth - 1))])


class TestSerialize:
    def test_known_layout(self):
        root = XmlNode("raiz", {"v": "1"})
        root.element("hoja", n="2")
        padre = root.element("padre")
        padre.element("hija")
        root.element("fuente").add(Cdata("var x;\n"))
        assert serialize_document(doc(root)) == "\n".join([
            '<?xml version="1.0" ?>',
            '<raiz v="1">',
            '  <hoja n="2"/>',
            "  <padre>",
            "    <hija/>",
            "  </padre>",
            "  <fuente><![CDATA[var x;",
            "]]></fuente>",
            "</raiz>",
        ])

    def test_text_only_element_inline(self):
        root = XmlNode("a")
        root.element("m").add(Text("hola"))
        assert serialize_document(doc(root)).splitlines()[2] == "  <m>hola</m>"

    def test_text_escaped(self):
        root = XmlNode("a", {}, [Text("1 < 2 & 3 > x")])
        assert "<a>1 &lt; 2 &amp; 3 &gt; x</a>" in serialize_document(doc(root))

    def test_attribute_escaping_round_trips(self):
        tricky = 'a"b<c>&\nd\te\rf'
        original = doc(XmlNode("a", {"v": tricky}))
        again = parse_document(serialize_document(original))
        assert again.root.get("v") == tricky

    def test_carriage_return_in_text_round_trips(self):
        original = doc(XmlNode("a", {}, [Text("uno\rdos\r\ntres")]))
        again = parse_document(serialize_document(original))
        assert again.root.children == [Text("uno\rdos\r\ntres")]

    def test_parse_of_serialize_is_identity(self):
        root = XmlNode("a", {"x": "1"})
        root.element("b", y="2").add(Text("texto"))
        c = root.element("c")
        c.add(Cdata("crudo <xml>"))
        c.element("d")
        original = doc(root)
        assert parse_document(serialize_document(original)) == original


class TestCanonicalEqual:
    def test_attribute_order_ignored(self):
        a = XmlNode("n", {"p": "1", "q": "2"})
        b = XmlNode("n", {"q": "2", "p": "1"})
        assert canonical_equal(a, b)

    def test_attribute_values_significant(self):
        assert not canonical_equal(XmlNode("n", {"p": "1"}),
                                   XmlNode("n", {"p": "2"}))

    def test_names_significant(self):
        assert not canonical_equal(XmlNode("a"), XmlNode("b"))

    def test_surrounding_text_whitespace_trimmed(self):
        a = XmlNode("n", {}, [Text("  hola \n")])
        b = XmlNode("n", {}, [Text("hola")])
        assert canonical_equal(a, b)

    def test_whitespace_only_text_ignored(self):
        a = XmlNode("n", {}, [Text("   "), XmlNode("b")])
        b = XmlNode("n", {}, [XmlNode("b")])
        assert canonical_equal(a, b)

    def test_cdata_verbatim(self):
        a = XmlNode("n", {}, [Cdata("  x  ")])
        assert not canonical_equal(a, XmlNode("n", {}, [Cdata("x")]))
        assert canonical_equal(a, XmlNode("n", {}, [Cdata("  x  ")]))

    def test_cdata_not_equal_to_text(self):
        assert not canonical_equal(XmlNode("n", {}, [Cdata("x")]),
                                   XmlNode("n", {}, [Text("x")]))

    def test_adjacent_cdata_sections_merged(self):
        split = XmlNode("n", {}, cdata_sections("a]]>b"))
        whole = XmlNode("n", {}, [Cdata("a]]"), Cdata(">b")])
        assert canonical_equal(split, whole)

    def test_child_order_significant(self):
        a = XmlNode("n", {}, [XmlNode("x"), XmlNode("y")])
        b = XmlNode("n", {}, [XmlNode("y"), XmlNode("x")])
        assert not canonical_equal(a, b)

    def test_documents_and_nodes_mix(self):
        node = XmlNode("a", {"k": "v"})
        assert canonical_equal(doc(node), XmlNode("a", {"k": "v"}))
