"""Shared test helpers.

Cached compilation of corpus files and generated programs, plus the exact
round-trip checks that both the property suite and the acceptance gate
run.  Everything here asserts rather than returns booleans, so failures
point at the first offending stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import progen
from pl0plus import pvm
from pl0plus.codegen import generate
from pl0plus.lexer import tokenize, tokens_from_xml, tokens_to_xml
from pl0plus.parser import ast_from_xml, ast_to_xml, parse
from pl0plus.pcode import program_from_xml, program_to_xml
from pl0plus.semantics import analyze, revised_from_xml, revised_to_xml
from pl0plus.xmldoc import parse_document, serialize_document

TESTS_DIR = Path(__file__).parent
DATA = TESTS_DIR / "data"
CORPUS = TESTS_DIR / "corpus"
FIB = CORPUS / "fibonacci.pl0+"

CORPUS_NAMES = ("anidado.pl0+", "aritmetica.pl0+", "ciclos.pl0+",
                "fibonacci.pl0+", "recursivo.pl0+")


def flat_sum(terms: int) -> str:
    """A program that writes `1 + 1 + ...` of `terms` terms: a left spine
    of that depth in every tree."""
    return ("var x;\nbegin\n    x := " + " + ".join(["1"] * terms)
            + ";\n    write x\nend.\n")


def nested(shape: str, depth: int) -> str:
    """A program that writes 1 from `depth` levels of nesting, counted as
    the parser counts them: each statement, procedure and parenthesis
    inside the ones around it."""
    if shape == "paren":
        return ("var x;\nbegin x := " + "(" * (depth - 2) + "1"
                + ")" * (depth - 2) + "; write x end.\n")
    if shape == "begin":
        return ("var x;\n" + "begin " * (depth - 1) + "x := 1; write x"
                + " end" * (depth - 1) + ".\n")
    if shape == "if":
        return ("var x;\nbegin x := 1; " + "if x = 1 then " * (depth - 2)
                + "write x end.\n")
    # procedure p(i+1) inside p(i), each calling the next, the last writes
    procedures = depth - 1
    return ("var x;\n"
            + "".join(f"procedure p{i};\n" for i in range(procedures))
            + "write x;\n"
            + "".join(f"call p{i + 1};\n"
                      for i in reversed(range(procedures - 1)))
            + "begin x := 1; call p0 end.\n")


def nesting_opener(shape: str, level: int) -> tuple[int, int]:
    """(line, column) of the token that opens `level` in `nested(shape,
    depth)` for any depth >= level."""
    if shape == "paren":
        return 2, len("begin x := ") + level - 3
    if shape == "begin":
        return 2, len("begin ") * (level - 1)
    if shape == "if":
        return 2, len("begin x := 1; ") + len("if x = 1 then ") * (level - 2)
    return level + 1, 0


NESTING_SHAPES = ("paren", "begin", "if", "procedure")

DEEP_TREE_SHAPES = ("secuencia", "condicional", "ciclo", "procedimiento")


def deep_tree(shape: str, depth: int):
    """A revised tree, symbol codes included, that writes x from `depth`
    levels of nesting of `shape` elements, counted as the parser counts
    them.  Built without the parser, so it may go past MAX_NESTING, and
    without recursion."""
    from pl0plus import parser as ast
    statement = ast.Write("x", depth + 1, 0)
    procedures = []
    for level in range(depth - 1, 0, -1):
        if shape == "secuencia":
            statement = ast.Sequence([statement], level + 1, 0)
        elif shape == "procedimiento":
            block = ast.Block([], [], procedures, statement, 0, 0,
                              code=f"b{level}")
            block.line, block.column = level + 2, 0
            procedures = [ast.ProcDecl(f"p{level}", block, level + 1, 0)]
            statement = ast.Empty(level + 1, 0)
        else:
            # odd 0: the loops never run
            value = 1 if shape == "condicional" else 0
            condition = ast.Cond("odd", [ast.Num(value, level + 1, 0)],
                                 level + 1, 0)
            if shape == "condicional":
                statement = ast.If(condition, statement, None, level + 1, 0)
            else:
                statement = ast.While(condition, statement, level + 1, 0)
    variables = [ast.VarDecl("x", 1, 4, code="v0_0")]
    block = ast.Block([], variables, procedures, statement, 1, 4, code="b0")
    return ast.Program(block, 1, 4)



@dataclass(frozen=True)
class Artifacts:
    source: str
    inputs: tuple
    features: frozenset
    tokens: tuple
    ast: object
    revised: object
    table: object
    program: object


def compile_clean(source: str, inputs=(), features=frozenset()) -> Artifacts:
    """Run the whole pipeline, insisting on zero diagnostics."""
    tokens, lex_diags = tokenize(source)
    assert not lex_diags, lex_diags
    ast, sin_diags = parse(tokens)
    assert not sin_diags, sin_diags
    # analyze annotates the tree it is given; analyzing a second parse
    # keeps `ast` a pure syntax tree.
    revised, table, sem_diags = analyze(parse(tokens)[0])
    assert not sem_diags, sem_diags
    program, gen_diags = generate(revised, table)
    assert not gen_diags, gen_diags
    return Artifacts(source, tuple(inputs), features, tuple(tokens), ast,
                     revised, table, program)


@lru_cache(maxsize=None)
def seeded(seed: int) -> Artifacts:
    source, inputs, features = progen.generate(seed)
    return compile_clean(source, inputs, features)


@lru_cache(maxsize=None)
def corpus(name: str) -> Artifacts:
    return compile_clean((CORPUS / name).read_text(encoding="utf-8"))


def run_vm(program, inputs):
    """Execute on the virtual machine; return (exit_code, outputs)."""
    state = pvm.load(program_to_xml(program))
    io = pvm.ListIo(list(inputs))
    return pvm.run(state, io), io.outputs


def phase_documents(artifacts: Artifacts) -> tuple:
    """The texts the four phase writers give for one compiled program,
    each carrying the source."""
    source = artifacts.source
    return (tokens_to_xml(list(artifacts.tokens), source),
            ast_to_xml(artifacts.ast, source),
            revised_to_xml(artifacts.revised, artifacts.table, source),
            program_to_xml(artifacts.program, source))


# ---------------------------------------------------------------------------
# Exact round-trip checks


def check_house_style(text):
    """A written document is exactly the serialization of the tree it
    reads back as."""
    assert serialize_document(parse_document(text)) == text


def check_document_roundtrip(doc):
    again = parse_document(serialize_document(doc))
    assert again == doc


def check_token_roundtrip(tokens, source):
    again, source_again = tokens_from_xml(
        tokens_to_xml(list(tokens), source))
    assert again == list(tokens)
    assert source_again == source


def check_ast_roundtrip(ast):
    again, source = ast_from_xml(ast_to_xml(ast))
    assert again == ast
    assert source is None


def check_revised_roundtrip(revised, table):
    again, _, source = revised_from_xml(
        revised_to_xml(revised, table))
    assert again == revised
    assert source is None


def check_program_roundtrip(program, source=None):
    again, source_again = program_from_xml(program_to_xml(program, source))
    assert again.instructions == program.instructions
    for mine, theirs in zip(program.instructions, again.instructions):
        assert ([(a.attributes, a.text) for a in mine.annotations]
                == [(a.attributes, a.text) for a in theirs.annotations])
    assert source_again == source
