"""The compiler's records: constructors, equality and repr.

Tokens, tree nodes, diagnostics and the compiler's settings are
`xmldoc.Record` classes.  These tests pin what their callers rely on: the
fields in order with their defaults, equality over every field, and the
`Name(field=value, ...)` repr.
"""

import pytest

from pl0plus.compiler import PHASES, CompileConfig
from pl0plus.diagnostics import Diagnostic
from pl0plus.lexer import Token
from pl0plus.parser import Empty, Ident, Num, Sequence

# Two argument lists per class that differ in every field.  Num is a
# leaf node, Ident carries a symbol code and Sequence a list of nodes.
CASES = {
    "token": (Token, ("IDENTIFICADOR", 1, 4, 3, "abc", None),
              ("NUMERO", 2, 5, 4, "abd", 7)),
    "diagnostic": (Diagnostic, ("error", "sem", 3, 7, "m", ""),
                   ("warning", "sin", 4, 8, "n", "begin")),
    "num": (Num, (1, 2, 3), (4, 5, 6)),
    "ident": (Ident, ("x", 2, 3, None), ("y", 4, 5, "v0_0")),
    "sequence": (Sequence, ([Empty(1, 2)], 1, 0), ([Empty(1, 3)], 2, 1)),
    "config": (CompileConfig, ("a.pl0+", PHASES, False, False),
               ("b.pl0+lex", PHASES[1:], True, True)),
}


@pytest.mark.parametrize("cls, first, second", CASES.values(),
                         ids=CASES.keys())
def test_equality_covers_every_field(cls, first, second):
    assert cls(*first) == cls(*first)
    for index in range(len(first)):
        changed = list(first)
        changed[index] = second[index]
        assert cls(*changed) != cls(*first)


def test_records_of_different_classes_differ():
    assert Num(1, 2, 3) != Empty(2, 3)
    assert Num(1, 2, 3) != (1, 2, 3)
    assert Empty(2, 3) != Ident("x", 2, 3)


def test_defaults():
    assert Token("punto", 1, 0, 1) == \
        Token("punto", 1, 0, 1, None, None)
    assert Ident("x", 2, 3) == Ident("x", 2, 3, None)
    assert Diagnostic("error", "sem", 3, 7, "m").context == ""
    assert CompileConfig("a.pl0+", PHASES) == \
        CompileConfig("a.pl0+", PHASES, False, False)


def test_nodes_take_their_fields_by_keyword():
    assert Ident(name="x", line=2, column=3, code="v0_0") == \
        Ident("x", 2, 3, "v0_0")


REPRS = [
    (Num(1, 2, 3), "Num(value=1, line=2, column=3)"),
    (Ident("x", 2, 3), "Ident(name='x', line=2, column=3, code=None)"),
    (Sequence([Empty(1, 2)], 1, 0),
     "Sequence(statements=[Empty(line=1, column=2)], line=1, column=0)"),
    (Token("IDENTIFICADOR", 1, 4, 3, "abc"),
     "Token(kind='IDENTIFICADOR', line=1, column=4, length=3, name='abc', "
     "value=None)"),
    (Diagnostic("error", "sem", 3, 7, "m"),
     "Diagnostic(severity='error', phase='sem', line=3, column=7, "
     "message='m', context='')"),
    (CompileConfig("a.pl0+", ()),
     "CompileConfig(input_path='a.pl0+', phases=(), show_result=False, "
     "xml_errors=False)"),
]


@pytest.mark.parametrize("record, text", REPRS,
                         ids=[type(record).__name__ for record, _ in REPRS])
def test_repr_names_every_field_in_order(record, text):
    assert repr(record) == text


def test_diagnostic_checks_severity_and_phase():
    with pytest.raises(ValueError, match="unknown severity: 'x'"):
        Diagnostic("x", "lex", 1, 0, "m")
    with pytest.raises(ValueError, match="unknown phase: 'opt'"):
        Diagnostic("error", "opt", 1, 0, "m")
