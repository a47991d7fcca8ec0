"""Compiled execution against the reference evaluator.

Each generated program runs twice: once compiled and interpreted on the
stack machine, once by direct recursion over the revised tree.  The two
routes share no evaluation code, so agreement on every output is strong
evidence that both are right.
"""

import pytest

import checks
import progen
from pl0plus.parser import Empty, walk
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
