"""Count the bytecodes each layer of two copies of `src/` executes.

    python tests/op_counts.py PARENT_SRC SRC [--lines]

Builds perfbench's `compile_large` program of seed 1 (22 KB, 4,262
tokens, 2,557 instructions), as `tests/phase_times.py` does, and hands it
to one child process per tree.  Each child runs, once to warm up and
once under `sys.settrace` with `f_trace_opcodes`, the four phases
(`lexer.tokenize`, `parser.parse`, `semantics.analyze`,
`codegen.generate`), each on what the phase before made; the four
writers, each writing its document with its `fuente`; the four readers,
each on the document its tree wrote; and `pvm.load` on the `.p+`.  Last,
`pvm.run` runs perfbench's `vm` kernel of seed 1 (`maquina`, a nested
loop and a 1,002-frame recursion), so a change to the machine loop shows
as a count.  It prints the bytecodes each step executed in Python on
both trees, and their ratio SRC / PARENT_SRC.  With `--lines`, it also
prints, for each step and tree, the ten source lines that executed the
most bytecodes.

A count does not move with the host's speed, so two runs give the same
figures (the children run with `PYTHONHASHSEED=0`).  It counts only
Python: the work done in C, by expat, `re` or a `str` method, is not in
it, so a step that moves work into C shows fewer bytecodes than the time
it saves, and a count is no time.  It is a report and exits 0; with
other arguments it prints the usage line above to stderr and exits 2.
pytest does not collect it.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from phase_times import program_source

STEPS = ("tokenize", "parse", "analyze", "generate", "tokens_to_xml",
         "ast_to_xml", "revised_to_xml", "program_to_xml", "tokens_from_xml",
         "ast_from_xml", "revised_from_xml", "program_from_xml", "pvm.load",
         "pvm.run")


def counted(function, *args, lines: Counter | None = None):
    """What `function(*args)` returns and the bytecodes it executed, also
    added to `lines` by (file, line) when given."""
    total = 0

    def local(frame, event, arg):
        nonlocal total
        if event == "opcode":
            total += 1
            if lines is not None:
                lines[frame.f_code.co_filename, frame.f_lineno] += 1
        return local

    def called(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(called)
    try:
        made = function(*args)
    finally:
        sys.settrace(None)
    return made, total


def child(src: str, with_lines: bool) -> int:
    """Print one JSON object: each step's count, and with `with_lines` its
    ten busiest lines as `[file:line, count]`."""
    sys.path.insert(0, src)
    from pl0plus import codegen, lexer, parser, pcode, pvm, semantics
    from reference import ListIo
    source = program_source()
    tokens, _ = lexer.tokenize(source)
    ast, _ = parser.parse(tokens)
    revised, _ = semantics.analyze(ast)
    program, _ = codegen.generate(revised)
    documents = (lexer.tokens_to_xml(tokens, source),
                 parser.ast_to_xml(ast, source),
                 semantics.revised_to_xml(revised, source),
                 pcode.program_to_xml(program, source))
    calls = ((lexer.tokenize, source), (parser.parse, tokens),
             (semantics.analyze, ast), (codegen.generate, revised),
             (lexer.tokens_to_xml, tokens, source),
             (parser.ast_to_xml, ast, source),
             (semantics.revised_to_xml, revised, source),
             (pcode.program_to_xml, program, source),
             (lexer.tokens_from_xml, documents[0]),
             (parser.ast_from_xml, documents[1]),
             (semantics.revised_from_xml, documents[2]),
             (pcode.program_from_xml, documents[3]),
             (pvm.load, documents[3]))
    report = {}

    def count(step, function, *args):
        lines = Counter() if with_lines else None
        made, total = counted(function, *args, lines=lines)
        report[step] = {"count": total, "lines": [
            [f"{Path(file).name}:{line}", number]
            for (file, line), number in (lines or Counter()).most_common(10)]}
        return made

    for step, (function, *args) in zip(STEPS, calls):
        function(*args)  # warm-up: first-call imports and caches
        count(step, function, *args)
    # A run uses its state up, so the warm-up runs a state of its own.
    import workloads  # perfbench's, on the path since program_source()
    kernel = workloads.vm(1, workloads.load_recorded())[0]
    tokens, _ = lexer.tokenize(kernel.source)
    revised, _ = semantics.analyze(parser.parse(tokens)[0])
    text = pcode.program_to_xml(codegen.generate(revised)[0])
    pvm.run(pvm.load(text), ListIo())
    channel = ListIo()
    if count("pvm.run", pvm.run, pvm.load(text), channel) != 0 \
            or tuple(channel.outputs) != kernel.outputs:
        raise SystemExit("the vm kernel did not run as recorded")
    print(json.dumps(report))
    return 0


def main(parent: str, src: str, with_lines: bool) -> int:
    environment = dict(os.environ, PYTHONHASHSEED="0")
    reports = [json.loads(subprocess.run(
        [sys.executable, __file__, "--child", str(Path(tree).resolve())]
        + ["--lines"] * with_lines, env=environment, check=True,
        capture_output=True, text=True).stdout) for tree in (parent, src)]
    print(f"Bytecodes executed by `{src}` against `{parent}`, on the "
          f"compile_large program of seed 1 and, for `pvm.run`, on the vm "
          f"kernel of seed 1\n")
    print("| step | parent | src | ratio |")
    print("| --- | ---: | ---: | ---: |")
    for step in STEPS:
        before, after = (report[step]["count"] for report in reports)
        print(f"| {step} | {before:,} | {after:,} | "
              f"{after / before if before else float('nan'):.3f} |")
    if with_lines:
        for step in STEPS:
            for name, report in zip(("parent", "src"), reports):
                print(f"\n{step}, {name}: " + ", ".join(
                    f"{line} {number:,}"
                    for line, number in report[step]["lines"]))
    return 0


if __name__ == "__main__":
    arguments = sys.argv[1:]
    lines_wanted = "--lines" in arguments
    if lines_wanted:
        arguments.remove("--lines")
    if arguments[:1] == ["--child"]:
        sys.exit(child(arguments[1], lines_wanted))
    if len(arguments) != 2:
        print("usage: " + __doc__.split("\n\n")[1].strip(),
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main(arguments[0], arguments[1], lines_wanted))
