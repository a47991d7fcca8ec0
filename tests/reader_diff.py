"""Compare what two copies of `src/` make of mutated documents and sources.

    python tests/reader_diff.py BEFORE_SRC AFTER_SRC [--count N]

Writes the four phase documents (`.pl0+lex`, `.pl0+sin`, `.pl0+sem`,
`.p+`, each with its `fuente`) of the corpus programs and of the progen
programs of seeds 1000-1019, with AFTER_SRC's writers.  For each kind it
mutates N of them (default 1,000) with `test_fuzz.mutate`, drawn by
Hypothesis from a fixed seed per kind, and hands each mutated document,
and each document as written, to one reader process per tree: the
lexeme, tree and revised-tree readers, and `pcode.program_from_xml` with
`pvm.load` for a `.p+`.  Each process gives back a digest of what it read
(the records' `repr`, annotations and the `fuente` included, so None and
"" stay apart) or the exception's class and text.  For a `.pl0+sem` that
reads, the digest also covers the `.p+` text that `gen` makes of it
(`pcode.program_to_xml` of `codegen.generate`), so an accepted document
that compiles differently shows too.

The fifth kind, `.pl0+`, is the programs' sources, mutated the same way
and compiled directly as `compilador` does: `lexer.tokenize`,
`parser.parse` and `semantics.analyze`, then, when none of them found an
error, `codegen.generate` and `pcode.program_to_xml`.  Its digest covers
the tokens, every finding with its position, and the `.p+` text, so a
change to the front end that moves a token, a finding or an instruction
shows on thousands of broken sources.

It prints the counts per kind and every document on which the two
differ, and always exits 0.  pytest does not collect it.
"""

import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
KINDS = (".pl0+lex", ".pl0+sin", ".pl0+sem", ".p+", ".pl0+")


def read(kind: str, text: str):
    """What the tree on sys.path reads from `text` as a `kind` document."""
    from pl0plus import codegen, lexer, parser, pcode, pvm, semantics
    from pl0plus.diagnostics import has_errors
    if kind == ".pl0+":
        tokens, found = lexer.tokenize(text)
        ast, more = parser.parse(tokens)
        found += more
        if ast is None:
            return tokens, found
        revised, more = semantics.analyze(ast)
        found += more
        if has_errors(found):
            return tokens, found
        program, _ = codegen.generate(revised)
        return tokens, found, pcode.program_to_xml(program, text)
    if kind == ".pl0+lex":
        return lexer.tokens_from_xml(text)
    if kind == ".pl0+sin":
        return parser.ast_from_xml(text)
    if kind == ".pl0+sem":
        revised, source = semantics.revised_from_xml(text)
        program, _ = codegen.generate(revised)
        return revised, source, pcode.program_to_xml(program)
    return pcode.program_from_xml(text), pvm.load(text).decoded


def worker(src: str) -> int:
    """Read `[kind, text, full]` lines from stdin; answer each with one
    line: `["ok", digest or repr]` or `["error", class and text]`."""
    sys.path.insert(0, src)
    sys.setrecursionlimit(20000)  # repr recurses over the trees
    for line in sys.stdin:
        print(json.dumps(outcome(*json.loads(line))), flush=True)
    return 0


def outcome(kind: str, text: str, full: bool = False) -> list:
    """`["ok", digest of what `read` gives, or its repr when `full`]`, or
    `["error", the exception's class and text]`."""
    try:
        shown = repr(read(kind, text))
    except Exception as exc:  # noqa: BLE001 - a traceback is a result
        return ["error", f"{type(exc).__name__}: {exc}"]
    return ["ok", shown if full else
            hashlib.sha256(shown.encode()).hexdigest()]


def sources(seeds=range(1000, 1020)) -> dict:
    """The corpus programs and the progen programs of `seeds`, by name."""
    import checks
    import progen
    named = {name: (checks.CORPUS / name).read_text(encoding="utf-8")
             for name in checks.CORPUS_NAMES}
    named |= {f"progen {seed}": progen.generate(seed)[0] for seed in seeds}
    return named


def documents(programs=None) -> dict:
    """The phase documents and the source of every program (default:
    `sources()`), by kind, in the programs' order."""
    from pl0plus import codegen, lexer, parser, pcode, semantics
    docs = {kind: [] for kind in KINDS}
    for source in (programs or sources()).values():
        tokens, _ = lexer.tokenize(source)
        ast, _ = parser.parse(tokens)
        revised, _ = semantics.analyze(ast)
        program, _ = codegen.generate(revised)
        for kind, text in zip(KINDS, (
                lexer.tokens_to_xml(tokens, source) + "\n",
                parser.ast_to_xml(ast, source) + "\n",
                semantics.revised_to_xml(revised, source) + "\n",
                pcode.program_to_xml(program, source) + "\n", source)):
            docs[kind].append(text)
    return docs


def mutations(texts: list, count: int, seed: int, visit) -> None:
    """`visit` each of `count` documents, each one of `texts` with one
    `mutate` edit, as they are made."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as fixed_seed
    from hypothesis import strategies as st
    from test_fuzz import mutate

    @fixed_seed(seed)
    @settings(max_examples=count, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(st.data())
    def draw(data):
        visit(mutate(data, data.draw(st.sampled_from(texts))))

    draw()


def main(before: str, after: str, count: int) -> int:
    sys.path[:0] = [str(Path(after).resolve()), str(TESTS)]
    docs = documents()
    workers = [subprocess.Popen(
        [sys.executable, __file__, "--worker", str(Path(src).resolve())],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        encoding="utf-8") for src in (before, after)]

    def outcomes(kind: str, text: str, full: bool = False) -> list:
        for process in workers:
            process.stdin.write(json.dumps([kind, text, full]) + "\n")
            process.stdin.flush()
        return [json.loads(process.stdout.readline() or
                           '["error", "the reader process stopped"]')
                for process in workers]

    print(f"Readers of `{before}` against `{after}`, {count} mutated "
          f"documents per kind plus the {len(docs[KINDS[0]])} as written.\n")
    print("| kind | documents | read | refused | differ |")
    print("| --- | ---: | ---: | ---: | ---: |")
    differences = []
    refusals = {}
    for seed, kind in enumerate(KINDS):
        tally = Counter()
        refusals[kind] = Counter()

        def compare(text):
            old, new = outcomes(kind, text)
            tally["documents"] += 1
            tally[new[0]] += 1
            if new[0] == "error":
                refusals[kind][new[1].split(":")[0]] += 1
            if old != new:
                tally["differ"] += 1
                if old[0] == new[0] == "ok":
                    old, new = outcomes(kind, text, full=True)
                differences.append((kind, text, old, new))

        for text in docs[kind]:
            compare(text)
        mutations(docs[kind], count, seed, compare)
        print(f"| {kind} | {tally['documents']} | {tally['ok']} | "
              f"{tally['error']} | {tally['differ']} |", flush=True)
    print()
    for kind, refused in refusals.items():
        print(f"{kind} refused: " + ", ".join(
            f"{name} {number}" for name, number in sorted(refused.items())))
    for kind, text, old, new in differences:
        print(f"\n{kind} document differs:\n{text[:2000]}\n"
              f"before: {old[1][:2000]}\nafter:  {new[1][:2000]}")
    for process in workers:
        process.stdin.close()
        process.wait()
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(sys.argv[2]))
    arguments = sys.argv[1:]
    number = 1000
    if "--count" in arguments:
        at = arguments.index("--count")
        number = int(arguments[at + 1])
        del arguments[at:at + 2]
    sys.exit(main(arguments[0], arguments[1], number))
