"""Name the command outputs that differ between two copies of `src/`.

    python tests/snapshot.py BEFORE_SRC AFTER_SRC

For each input, under each tree, in a fresh directory: `compilador`
plain, with `-x -m`, and phase by phase (`--lex`, `--sin`, `--sem`,
`--gen`), then `interprete --max-pasos 100000` on the `.p+`.  The inputs
are the corpus programs, `data/errores_programa.pl0+` and the progen
programs of seeds 1000-1019, each fed its own inputs (the others get
"7\\n3\\n").  It prints a Markdown table, one row per input, naming each
output that differs: stdout, stderr, exit code or the files written.  It
is a report and always exits 0.  pytest does not collect it.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import progen

TESTS = Path(__file__).resolve().parent
MODULES = {"compilador": "pl0plus.compiler", "interprete": "pl0plus.pvm"}
# The runs in order: command, options, and the file read (`{}` is the
# input's name).
RUNS = (("compilador", (), "{}.pl0+"), ("compilador", ("-x", "-m"), "{}.pl0+"),
        ("compilador", ("--lex",), "{}.pl0+"),
        ("compilador", ("--sin",), "{}.pl0+lex"),
        ("compilador", ("--sem",), "{}.pl0+sin"),
        ("compilador", ("--gen",), "{}.pl0+sem"),
        ("interprete", ("--max-pasos", "100000"), "{}.p+"))


def inputs():
    """(name, source, stdin) of every input."""
    for path in sorted((TESTS / "corpus").glob("*.pl0+")) + [
            TESTS / "data" / "errores_programa.pl0+"]:
        yield path.stem, path.read_text(encoding="utf-8"), "7\n3\n"
    for seed in range(1000, 1020):
        source, values, _ = progen.generate(seed)
        yield f"progen_{seed}", source, "".join(f"{v}\n" for v in values)


def outcomes(src: str, name: str, source: str, stdin: str) -> list:
    """Per run: its stdout, stderr, exit code and the files it wrote."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    found = []
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / f"{name}.pl0+").write_text(source, encoding="utf-8")
        before: dict = {}
        for command, options, target in RUNS:
            done = subprocess.run(
                [sys.executable, "-m", MODULES[command], *options,
                 target.format(name)], cwd=work, env=env,
                input=stdin.encode(), capture_output=True, timeout=120)
            files = {path.name: path.read_bytes()
                     for path in Path(work).iterdir()}
            written = {key: value for key, value in files.items()
                       if before.get(key) != value}
            before = files
            found.append((done.stdout, done.stderr, done.returncode, written))
    return found


def main(before: str, after: str) -> int:
    rows = []
    for name, source, stdin in inputs():
        pairs = zip(outcomes(before, name, source, stdin),
                    outcomes(after, name, source, stdin))
        differ = [f"{kind} ({' '.join((command,) + options)})"
                  for ((command, options, _), (old, new)) in zip(RUNS, pairs)
                  for kind, a, b in zip(("stdout", "stderr", "exit code",
                                         "files"), old, new) if a != b]
        rows.append(f"| {name} | {', '.join(differ) or 'same'} |")
    changed = sum(not row.endswith("| same |") for row in rows)
    print(f"Command outputs against `{before}`: {changed} of {len(rows)} "
          f"inputs differ.\n\n| input | outputs that differ |\n| --- | --- |")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
