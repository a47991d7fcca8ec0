"""Compiled execution against the reference evaluator.

Each generated program runs twice: once compiled and interpreted on the
stack machine, once by direct recursion over the revised tree.  The two
routes share no evaluation code, so agreement on every output is strong
evidence that both are right.
"""

import pytest

import checks
import progen
from pl0plus.parser import Empty, Neg, ProcDecl, walk
from reference import reference_eval

SEEDS = range(1000, 1020)


@pytest.mark.parametrize("seed", SEEDS)
def test_both_routes_agree(seed):
    artifacts = checks.seeded(seed)
    expected = reference_eval(artifacts.revised, artifacts.inputs)
    exit_code, outputs = checks.run_vm(artifacts.program, artifacts.inputs)
    assert exit_code == 0
    assert outputs == expected
    assert outputs, "un programa generado siempre escribe algo"


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_programs_exercise_the_language(seed):
    assert progen.GUARANTEED <= checks.seeded(seed).features


def test_generator_covers_every_relation():
    seen = set()
    for seed in SEEDS:
        seen |= checks.seeded(seed).features
    assert {"rel" + rel for rel in progen.RELATIONS} <= seen


# An empty statement in each place one may stand: a procedure's body, a
# sequence's statement, both branches of an `if` and a loop's body.
EMPTY_STATEMENTS = """\
var x;
procedure p; ;
begin
    ;
    x := 1;
    call p;
    if x = 2 then ;
    if x = 1 then x := 1 else ;
    while x = 2 do ;
    write x
end.
"""


def test_both_routes_agree_on_empty_statements():
    artifacts = checks.compile_clean(EMPTY_STATEMENTS)
    empties = [node for node in walk(artifacts.revised)
               if type(node) is Empty]
    assert len(empties) == 5
    assert reference_eval(artifacts.revised) == [1]
    assert checks.run_vm(artifacts.program, ()) == (0, [1])


# Programs in Wirth's PL/0 of 1976, in pl0+'s spelling (`<>` for his `#`),
# with `read` and `write`, which his language lacks, for their inputs and
# results.  Each run has fixed inputs and the outputs worked out by hand.
# They live apart from the corpus, so `checks.CORPUS_NAMES` and the golden
# documents leave them out.
WIRTH_RUNS = (
    ("producto.pl0+", (85, 7), [595, 12, 1]),
    ("producto.pl0+", (0, 9), [0, 0, 0]),
    ("mcd.pl0+", (84, 36), [12]),
    ("mcd.pl0+", (17, 5), [1]),
    ("signos.pl0+", (25,), [-13, 38, 15, -12, 25, 15, 5]),
    ("relaciones.pl0+", (3, 5), [14, 14, 41, 50]),
)


@pytest.mark.parametrize("name, inputs, expected", WIRTH_RUNS)
def test_both_routes_agree_on_wirths_pl0(name, inputs, expected):
    artifacts = checks.corpus(f"wirth/{name}")
    assert reference_eval(artifacts.revised, inputs) == expected
    assert checks.run_vm(artifacts.program, inputs) == (0, expected)


def test_wirths_programs_cover_his_grammar():
    names = sorted(path.name for path in (checks.CORPUS / "wirth").iterdir())
    assert names == sorted({name for name, _, _ in WIRTH_RUNS})
    kinds, nodes, nested = set(), set(), False
    for name in names:
        artifacts = checks.corpus(f"wirth/{name}")
        kinds |= {token.kind for token in artifacts.tokens}
        nodes |= {type(node) for node in walk(artifacts.revised)}
        nested |= any(procedure.block.procedures for procedure
                      in walk(artifacts.revised, {ProcDecl}))
    assert {"CONST", "VAR", "PROCEDURE", "CALL", "BEGIN", "END", "IF",
            "THEN", "WHILE", "DO", "ODD", "igual", "diferente", "menor_que",
            "menor_igual", "mayor_que", "mayor_igual", "mas",
            "menos"} <= kinds
    assert "ELSE" not in kinds  # Wirth's `if` has no `else`
    assert {Empty, Neg} <= nodes
    assert nested
