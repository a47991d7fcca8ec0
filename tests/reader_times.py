"""Time each phase reader against expat on perfbench's largest program.

    python tests/reader_times.py [SRC] [--rounds N]

Builds perfbench's `compile_large` program of seed 1 (22 KB, 2,557
instructions), writes its four phase documents, each with its `fuente`,
with the writers of `SRC` (default: the `src/` beside this file), and
times, in this one process, the four readers and `pvm.load`.  Each is
timed against expat reading the same text with three no-op Python
handlers (start, end, character data; `buffer_text` on), call by call in
alternating order, so a host that speeds up or slows down moves both
alike.  It prints the median of each in ms, the median of its ratios to
the expat read beside it, and expat with no handler at all.  pytest
does not collect it.
"""

import statistics
import sys
import time
from pathlib import Path
from xml.parsers.expat import ParserCreate

ROOT = Path(__file__).resolve().parent.parent


def expat_noop(text: str) -> None:
    parser = ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = lambda name, attributes: None
    parser.EndElementHandler = lambda name: None
    parser.CharacterDataHandler = lambda data: None
    parser.Parse(text, True)


def expat_bare(text: str) -> None:
    ParserCreate().Parse(text, True)


def documents() -> dict:
    """The program's four phase documents, by extension."""
    from pl0plus import codegen, lexer, parser, pcode, semantics
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    source = workloads.compile_large(1, workloads.load_recorded())[0].source
    tokens, _ = lexer.tokenize(source)
    ast, _ = parser.parse(tokens)
    revised, _ = semantics.analyze(ast)
    program, _ = codegen.generate(revised)
    return {".pl0+lex": lexer.tokens_to_xml(tokens, source),
            ".pl0+sin": parser.ast_to_xml(ast, source),
            ".pl0+sem": semantics.revised_to_xml(revised, source),
            ".p+": pcode.program_to_xml(program, source)}


def timed(function, text: str) -> float:
    start = time.perf_counter()
    function(text)
    return time.perf_counter() - start


def main(argv: list) -> int:
    rounds = 40
    if "--rounds" in argv:
        at = argv.index("--rounds")
        rounds = int(argv[at + 1])
        del argv[at:at + 2]
    src = Path(argv[0]) if argv else ROOT / "src"
    sys.path.insert(0, str(src.resolve()))
    from pl0plus import lexer, parser, pcode, pvm, semantics
    docs = documents()
    readers = (("lexer.tokens_from_xml", lexer.tokens_from_xml, ".pl0+lex"),
               ("parser.ast_from_xml", parser.ast_from_xml, ".pl0+sin"),
               ("semantics.revised_from_xml", semantics.revised_from_xml,
                ".pl0+sem"),
               ("pcode.program_from_xml", pcode.program_from_xml, ".p+"),
               ("pvm.load", pvm.load, ".p+"))
    times = {name: ([], [], []) for name, _, _ in readers}
    for turn in range(rounds):
        for name, reader, extension in readers:
            text = docs[extension]
            own, noop, bare = times[name]
            if turn % 2:
                own.append(timed(reader, text))
                noop.append(timed(expat_noop, text))
            else:
                noop.append(timed(expat_noop, text))
                own.append(timed(reader, text))
            bare.append(timed(expat_bare, text))
    print(f"{src}: medians of {rounds} calls, in ms")
    print(f"{'reader':28} {'reader':>7} {'no-op':>7} {'ratio':>6} "
          f"{'bare':>6}")
    for name, (own, noop, bare) in times.items():
        ratio = statistics.median(a / b for a, b in zip(own, noop))
        own, noop, bare = (statistics.median(values) * 1e3
                           for values in (own, noop, bare))
        print(f"{name:28} {own:7.2f} {noop:7.2f} {ratio:6.2f} {bare:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
