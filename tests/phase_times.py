"""Time each compiler phase of two copies of `src/` against each other.

    python tests/phase_times.py PARENT_SRC SRC [--pairs N] [--calls N]

Builds perfbench's `compile_large` program of seed 1 (22 KB, 4,262
tokens, 2,557 instructions), as `tests/reader_times.py` does, and hands
it to one child process per tree.  A round in a child times
`lexer.tokenize`, `parser.parse`, `semantics.analyze`, `codegen.generate`
and `pcode.program_to_xml`, each phase on what the phase before it made
in the same round, then the whole direct compile, `compiler_main` on the
program's `.pl0+` in the child's own directory.  The cyclic collector is
off while the phases are timed, so that a collection is not charged to
whichever phase it happens to land in, and on for the whole compile,
which pays for its collections as a real compile does.  Each of N pairs
(default 10) is `--calls` rounds (default 10) of each child, the two
taking turns round by round to go first, so a host that speeds up or
slows down moves both alike; a pair keeps each side's median.  It
prints, per phase, the median over the pairs of each side in ms, the
median of the per-pair ratios SRC / PARENT_SRC, and in how many pairs
SRC was faster.  It is a report and always exits 0.  pytest does not
collect it.
"""

import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("tokenize", "parse", "analyze", "generate", "program_to_xml",
          "compile")


def program_source() -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads.compile_large(1, workloads.load_recorded())[0].source


def child(src: str) -> int:
    """Answer each line on stdin with one JSON line: the time in seconds
    of each of PHASES in one round."""
    sys.path.insert(0, src)
    from pl0plus import codegen, compiler, lexer, parser, pcode, semantics
    source = program_source()
    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "grande.pl0+")
        Path(path).write_text(source, encoding="utf-8")

        def one_round() -> list:
            gc.collect()
            gc.disable()
            try:
                made, times = source, []
                for step in (lexer.tokenize, parser.parse,
                             semantics.analyze, codegen.generate):
                    start = time.perf_counter()
                    made, _ = step(made)
                    times.append(time.perf_counter() - start)
                start = time.perf_counter()
                pcode.program_to_xml(made, source)
                times.append(time.perf_counter() - start)
            finally:
                gc.enable()
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                compiler.compiler_main([path])
                times.append(time.perf_counter() - start)
            return times

        one_round()  # warm-up
        for _ in sys.stdin:
            print(json.dumps(one_round()), flush=True)
    return 0


def main(parent: str, src: str, pairs: int, calls: int) -> int:
    children = [subprocess.Popen(
        [sys.executable, __file__, "--child", str(Path(tree).resolve())],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for tree in (parent, src)]

    def one_round(side: int) -> list:
        children[side].stdin.write("run\n")
        children[side].stdin.flush()
        return json.loads(children[side].stdout.readline())

    results = ([], [])  # per side, the median of PHASES' times per pair
    for pair in range(pairs):
        rounds = ([], [])
        for turn in range(calls):
            for side in ((0, 1) if (pair * calls + turn) % 2 == 0
                         else (1, 0)):
                rounds[side].append(one_round(side))
        for side in (0, 1):
            results[side].append([statistics.median(column)
                                  for column in zip(*rounds[side])])
    for process in children:
        process.stdin.close()
        process.wait()
    print(f"`{src}` against `{parent}`: {pairs} alternating pairs, each "
          f"side the median of {calls} rounds per pair\n")
    print("| phase | parent ms | ms | ratio | faster in |")
    print("| --- | ---: | ---: | ---: | ---: |")
    for index, phase in enumerate(PHASES):
        before = [times[index] for times in results[0]]
        after = [times[index] for times in results[1]]
        ratio = statistics.median(a / b for a, b in zip(after, before))
        faster = sum(a < b for a, b in zip(after, before))
        print(f"| {phase} | {statistics.median(before) * 1e3:.2f} | "
              f"{statistics.median(after) * 1e3:.2f} | {ratio:.3f} | "
              f"{faster} of {pairs} |")
    return 0


if __name__ == "__main__":
    arguments = sys.argv[1:]
    if arguments[:1] == ["--child"]:
        sys.exit(child(arguments[1]))
    options = {"--pairs": 10, "--calls": 10}
    for option in options:
        if option in arguments:
            at = arguments.index(option)
            options[option] = int(arguments[at + 1])
            del arguments[at:at + 2]
    sys.exit(main(arguments[0], arguments[1], options["--pairs"],
                  options["--calls"]))
