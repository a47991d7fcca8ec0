"""The timed operations and the checks of their outputs.

Every operation works on one program inside a `Workspace` and returns an
`Outcome`: its wall seconds plus what the checks need.  In-process
operations call the public entry functions of `pl0plus.cli` with stdin and
stdout redirected; process operations start the `[project.scripts]` entry
functions with `sys.executable` and read their peak RSS from `os.wait4`.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import subprocess
import sys
import threading
import time
import tomllib
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from workloads import Program

# (flag, input extension, output extension, root element of the output)
STAGES = (("--lex", ".pl0+", ".pl0+lex", "lexemas"),
          ("--sin", ".pl0+lex", ".pl0+sin", "arbol_de_sintaxis"),
          ("--sem", ".pl0+sin", ".pl0+sem", "arbol_de_sintaxis_revisado"),
          ("--gen", ".pl0+sem", ".p+", "codigo_pmas"))
ROOTS = tuple(stage[3] for stage in STAGES)

# The op kinds; each gets its own directory in a Workspace.
KINDS = ("compile", "staged", "run", "cli_compile", "cli_run")

PROCESS_TIMEOUT_S = 60.0

_INSTRUCTION = re.compile(r'^  <[a-z_]+ direccion="', re.MULTILINE)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def code_instr(text: str) -> int:
    """Number of instruction elements in a serialized `.p+` document."""
    return len(_INSTRUCTION.findall(text))


def source_key(program: Program) -> str:
    return sha256(program.source.encode("utf-8"))


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    stdout: str = ""
    stderr: str = ""
    max_rss_kb: int = 0


class Workspace:
    """One directory per op kind, so an op never reads a file that another
    kind of op rewrites."""

    def __init__(self, root: Path, programs: list[Program]):
        self.root = root
        for kind in KINDS:
            (root / kind).mkdir(parents=True)
            for program in programs:
                self.path(kind, program).write_text(program.source,
                                                    encoding="utf-8")
                if program.stdin:
                    self.stdin_path(kind, program).write_text(
                        stdin_text(program), encoding="utf-8")

    def path(self, kind: str, program: Program, ext: str = ".pl0+") -> Path:
        return self.root / kind / (program.name + ext)

    def clear_outputs(self, kind: str, program: Program) -> None:
        """Remove what an earlier op wrote, so no check reads a stale file."""
        for _, _, ext, _ in STAGES:
            self.path(kind, program, ext).unlink(missing_ok=True)

    def stdin_path(self, kind: str, program: Program) -> Path:
        return self.root / kind / (program.name + ".stdin")


def stdin_text(program: Program) -> str:
    return "".join(f"{value}\n" for value in program.stdin)


# ---------------------------------------------------------------------------
# In-process operations

# `around` is entered around each timed region; the tracer passes its op
# span there.

def compile_in_process(cli, path: Path, around=nullcontext) -> Outcome:
    captured = io.StringIO()
    with redirect_stdout(captured), around():
        start = time.perf_counter()
        status = cli.compiler_main([str(path)])
        seconds = time.perf_counter() - start
    return Outcome(seconds, status, captured.getvalue())


def staged_in_process(cli, stem: Path, around=nullcontext,
                      stages=STAGES) -> Outcome:
    """Single-phase compiles, each reading the previous file: all four, or
    the `stages` given."""
    captured = io.StringIO()
    status = 0
    with redirect_stdout(captured), around():
        start = time.perf_counter()
        for flag, ext, _, _ in stages:
            status = cli.compiler_main([flag, f"{stem}{ext}"])
            if status != 0:
                break
        seconds = time.perf_counter() - start
    return Outcome(seconds, status, captured.getvalue())


def run_in_process(cli, path: Path, program: Program,
                   around=nullcontext) -> Outcome:
    captured = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text(program))
    try:
        with redirect_stdout(captured), around():
            start = time.perf_counter()
            status = cli.interpreter_main([str(path)])
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return Outcome(seconds, status, captured.getvalue())


# ---------------------------------------------------------------------------
# Processes

def entry_points(checkout: Path) -> dict[str, str]:
    """`[project.scripts]` of pyproject.toml: name -> 'module:function'."""
    with open(checkout / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]


def entry_code(target: str) -> str:
    module, function = target.split(":")
    return (f"import sys; from {module} import {function}; "
            f"sys.exit({function}())")


def spawn(argv: list[str], env: dict, stdin: Path | None, out_dir: Path,
          timeout: float = PROCESS_TIMEOUT_S) -> Outcome:
    """Run one process to its end and return wall time, output and peak RSS.

    Output goes to files and the process is reaped with os.wait4, so its
    resource usage is available; a timer kills it after `timeout` seconds.
    """
    out_path, err_path = out_dir / "proc.stdout", out_dir / "proc.stderr"
    stdin_file = open(stdin if stdin is not None else os.devnull, "rb")
    with stdin_file, open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=stdin_file, stdout=out,
                                stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(seconds, proc.returncode,
                   out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"),
                   usage.ru_maxrss)


# ---------------------------------------------------------------------------
# Checks: each returns None or a one-line reason

def check_compile(outcome: Outcome, program: Program, output: Path,
                  expected: dict | None) -> str | None:
    if outcome.exit_code != program.exit_code:
        return (f"compile {program.name}: exit {outcome.exit_code}, "
                f"expected {program.exit_code}; {outcome.stderr[-200:]}")
    if outcome.stdout != program.diagnostics:
        return f"compile {program.name}: diagnostics differ"
    if program.exit_code != 0:
        return None
    data = output.read_bytes()
    if sha256(data) != expected["direct"]:
        return f"compile {program.name}: .p+ digest differs"
    if code_instr(data.decode("utf-8")) != expected["code_instr"]:
        return f"compile {program.name}: instruction count differs"
    return None


def check_staged(outcome: Outcome, program: Program, stem: Path,
                 expected: dict) -> str | None:
    if outcome.exit_code != 0:
        return f"staged {program.name}: exit {outcome.exit_code}"
    for _, _, ext, root in STAGES:
        if sha256(Path(f"{stem}{ext}").read_bytes()) != expected[root]:
            return f"staged {program.name}: {root} digest differs"
    return None


def check_run(outcome: Outcome, program: Program) -> str | None:
    if outcome.exit_code != 0:
        return (f"run {program.name}: exit {outcome.exit_code}; "
                f"{outcome.stderr[-200:]}")
    try:
        outputs = tuple(int(line) for line in outcome.stdout.split())
    except ValueError:
        return f"run {program.name}: output is not integers"
    if outputs != program.outputs:
        return f"run {program.name}: outputs differ from the oracle"
    return None
