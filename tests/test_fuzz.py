"""Mutated sources and phase documents never end in a traceback.

Each example takes a program, in its source form or one of its four phase
documents, applies one edit a user could make by hand, and runs the
command that reads that form: `compilador` with the remaining phases, or
`interprete` with a step limit.  Whatever the edit, the command must end
with exit code 0, 1 or 2.  The programs are the corpus, programs nested
to the parser's limit, a source holding "]]>", and tree documents nested
far past that limit, which no source gives.
"""

import contextlib
import io
import re
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import checks
from pl0plus.compiler import compiler_main
from pl0plus.lexer import tokens_to_xml
from pl0plus.parser import MAX_NESTING, ast_to_xml
from pl0plus.pcode import program_to_xml
from pl0plus.pvm import interpreter_main
from pl0plus.semantics import revised_to_xml
from pl0plus.xmldoc import parse_document, serialize_document

# (extension, argv before the path) for each form a program can take
FORMS = ((".pl0+", []),
         (".pl0+lex", ["--sin", "--sem", "--gen"]),
         (".pl0+sin", ["--sem", "--gen"]),
         (".pl0+sem", ["--gen"]),
         (".p+", ["--max-pasos", "20000"]))

ATTRIBUTE = re.compile(r' ([\w-]+)="([^"]*)"')
ELEMENT = re.compile(r"<(/?)([\w-]+)")
VALUES = ("", "0", "-1", "1", "3", "-3", "2147483648", "99999999", "x",
          "b0", "b1", "v0", "suma", "odd")
TEXTS = ("", "x", "1", "(", ")", ";", ":=", "begin", "end", "call p",
         "write x", "{", "(*", "]]>", "<", "&", "é")


SOURCES = {
    "al_limite_begin": checks.nested("begin", MAX_NESTING),
    "al_limite_procedure": checks.nested("procedure", MAX_NESTING),
    "terminador_cdata": "var x;\n{ ]]> y ]]]]>> }\n"
                        "begin x := 1; write x end.\n",
}

# Tree documents 5,000 levels deep, past what any source gives.  (Hypothesis
# raises the recursion limit while a test runs, so 1,000 levels would
# not show a reader that lets recursion through.)
DEEP_TREES = {f"hondo_{shape}": shape
              for shape in ("secuencia", "procedimiento")}

NAMES = checks.CORPUS_NAMES + tuple(SOURCES) + tuple(DEEP_TREES)


@lru_cache(maxsize=None)
def forms(name: str) -> tuple[str | None, ...]:
    """The program's text in each of FORMS, as the compiler writes it, or
    None for a form it has not."""
    if name in DEEP_TREES:
        tree = checks.deep_tree(DEEP_TREES[name], 5000)
        return (None, None, ast_to_xml(tree) + "\n",
                revised_to_xml(tree, None) + "\n", None)
    if name in SOURCES:
        art = checks.compile_clean(SOURCES[name])
    else:
        art = checks.corpus(name)
    docs = (parse_document(tokens_to_xml(art.tokens, art.source)),
            parse_document(ast_to_xml(art.ast, art.source)),
            parse_document(revised_to_xml(art.revised, art.table,
                                          art.source)),
            parse_document(program_to_xml(art.program, art.source)))
    return (art.source,) + tuple(serialize_document(doc) + "\n"
                                 for doc in docs)


@lru_cache(maxsize=None)
def element_names() -> tuple[str, ...]:
    names = set()
    for name in checks.CORPUS_NAMES:
        for text in forms(name)[1:]:
            names.update(match.group(2) for match in ELEMENT.finditer(text))
    return tuple(sorted(names)) + ("nada",)


def mutate(data, text: str) -> str:
    """One edit of `text`: a line duplicated, deleted or swapped, an
    attribute value changed or deleted, an element renamed, or a piece of
    text replaced."""
    lines = text.split("\n")
    kind = data.draw(st.sampled_from(
        ("duplicate", "delete", "swap", "value", "unset", "rename",
         "replace")))
    if kind in ("duplicate", "delete", "swap"):
        at = data.draw(st.integers(0, len(lines) - 1))
        if kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "delete":
            del lines[at]
        else:
            other = data.draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        return "\n".join(lines)
    if kind == "replace":
        start = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(start, min(start + 8, len(text))))
        return text[:start] + data.draw(st.sampled_from(TEXTS)) + text[end:]
    pattern = ELEMENT if kind == "rename" else ATTRIBUTE
    matches = list(pattern.finditer(text))
    if not matches:
        return text
    match = data.draw(st.sampled_from(matches))
    if kind == "rename":
        start, end = match.span(2)
        replacement = data.draw(st.sampled_from(element_names()))
    elif kind == "value":
        start, end = match.span(2)
        replacement = data.draw(st.sampled_from(VALUES))
    else:
        start, end = match.span()
        replacement = ""
    return text[:start] + replacement + text[end:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_input_ends_with_an_exit_code(data):
    name = data.draw(st.sampled_from(NAMES))
    index = data.draw(st.sampled_from([i for i, text in enumerate(forms(name))
                                       if text is not None]))
    extension, flags = FORMS[index]
    text = mutate(data, forms(name)[index])
    main = interpreter_main if extension == ".p+" else compiler_main
    saved_stdin = sys.stdin
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = Path(work) / f"mutado{extension}"
        path.write_text(text, encoding="utf-8")
        sys.stdin = io.StringIO("3\n" * 20)
        try:
            status = main([*flags, str(path)])
        finally:
            sys.stdin = saved_stdin
    assert status in (0, 1, 2)
