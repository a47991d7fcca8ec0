"""Both commands run without the cyclic collector; what they build must
hold no reference cycle.

`command.guard` turns the collector off while a command runs, because
reference counting frees all that a compile or a run builds.  That holds
only while no command path leaves a cycle behind, so each test here runs
command paths in process with the collector off and checks that a
collection afterwards finds nothing.  Each also checks that the command
leaves the collector as it found it, off or on.
"""

import gc
import io
import sys

import pytest

from checks import CORPUS, CORPUS_NAMES, DATA
from pl0plus import command, pvm
from pl0plus.cli import compiler_main, interpreter_main
from test_reader_pins import KINDS, edited, pins


class Interrupting:
    """A standard input whose reader presses Ctrl-C."""

    def readline(self):
        raise KeyboardInterrupt


def statuses(runs, stdin="", stdout=True, collecting=False) -> list:
    """The exit status of each `(main, argv)` of `runs`, run one after
    another in process with the collector on or off, with standard
    output and error in memory and standard input `stdin` (a string, a
    stream, or None for a closed one); standard output is None unless
    `stdout`.  Asserts that each run leaves the collector as it was and
    that a collection after the last finds nothing."""
    found = []
    saved = sys.stdin, sys.stdout, sys.stderr
    gc.collect()
    (gc.enable if collecting else gc.disable)()
    try:
        for main, argv in runs:
            sys.stdin = (io.StringIO(stdin) if isinstance(stdin, str)
                         else stdin)
            sys.stdout = io.StringIO() if stdout else None
            sys.stderr = io.StringIO()
            try:
                found.append(main(argv))
            except SystemExit as exc:
                found.append(exc.code)
            assert gc.isenabled() is collecting, argv
        garbage = gc.collect()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        gc.enable()
    assert garbage == 0, runs
    return found


@pytest.mark.parametrize("collecting", [False, True])
def test_a_command_runs_with_the_collector_off(collecting):
    (gc.enable if collecting else gc.disable)()
    try:
        assert command.guard(gc.isenabled) is False
        assert gc.isenabled() is collecting
    finally:
        gc.enable()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_compile_direct_and_staged_leaves_no_cycle(tmp_path, name):
    source = tmp_path / name
    source.write_bytes((CORPUS / name).read_bytes())
    stem = str(source)
    assert statuses([
        (compiler_main, [stem]),
        (compiler_main, ["--lex", stem]),
        (compiler_main, ["--sin", stem + "lex"]),
        (compiler_main, ["--sem", stem + "sin"]),
        (compiler_main, ["--gen", stem + "sem"])]) == [0] * 5


@pytest.mark.parametrize("name", sorted(
    path.name for path in DATA.glob("errores_*.pl0+")))
@pytest.mark.parametrize("flags", [[], ["-x"]])
def test_a_compile_with_findings_leaves_no_cycle(name, flags):
    assert statuses([(compiler_main, [*flags, str(DATA / name)])]) == [1]


# Each kind of phase document, with the command that reads it.
READERS = {".pl0+lex": (compiler_main, ["--sin"]),
           ".pl0+sin": (compiler_main, ["--sem"]),
           ".pl0+sem": (compiler_main, ["--gen"]),
           ".p+": (interpreter_main, ["--max-pasos", "100000"])}


@pytest.mark.parametrize("kind", KINDS)
def test_reading_edited_documents_leaves_no_cycle(tmp_path, kind):
    main, flags = READERS[kind]
    runs = []
    for index, (*key, _) in enumerate(pins()[kind]):
        path = tmp_path / f"editado{index}{kind}"
        path.write_text(edited(kind, *key), encoding="utf-8")
        runs.append((main, [*flags, str(path)]))
    assert set(statuses(runs, "7\n3\n")) <= {0, 1, 2}


ECHO = "var x;\nbegin\n    read x;\n    write x\nend.\n"
DIVIDES_BY_ZERO = "var x;\nbegin\n    x := 0;\n    x := 1 / x\nend.\n"
RUNAWAY = "var x;\nbegin\n    while 1 = 1 do x := x + 1\nend.\n"


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    """The `.p+` of each program above by name, and a bad one."""
    tmp_path = tmp_path_factory.mktemp("programas")
    paths = {}
    for name, text in (("echo", ECHO), ("zero", DIVIDES_BY_ZERO),
                       ("runaway", RUNAWAY)):
        source = tmp_path / f"{name}.pl0+"
        source.write_text(text, encoding="utf-8")
        assert statuses([(compiler_main, [str(source)])]) == [0]
        paths[name] = str(source.with_suffix(".p+"))
    paths["bad"] = str(tmp_path / "mal.p+")
    (tmp_path / "mal.p+").write_text("<codigo_pmas><LIT/>",
                                     encoding="utf-8")
    return paths


# (argv with `{name}` for a program's `.p+`, standard input, the status)
INTERPRETER_PATHS = {
    "normal end": (["{echo}"], "10\n", 0),
    "runtime error": (["{zero}"], "", 1),
    "debugger": (["-d", "{echo}"], "5\n" * 20, 0),
    "step limit": (["--max-pasos", "1000", "{runaway}"], "", 1),
    "closed stdin": (["{echo}"], None, 1),
    "interrupt": (["{echo}"], Interrupting(), 2),
    "bad document": (["{bad}"], "", 2),
    "usage error": (["{echo}", "{zero}"], "", 2),
    "help": (["-a"], "", 0),
}


@pytest.mark.parametrize("collecting", [False, True])
@pytest.mark.parametrize("path", INTERPRETER_PATHS)
def test_an_interprete_path_leaves_no_cycle(monkeypatch, programs, path,
                                            collecting):
    def no_terminal(*args, **kwargs):
        raise OSError("no terminal")

    # The debugger finds no terminal to read its steps from.
    monkeypatch.setattr(pvm, "open", no_terminal, raising=False)
    argv, stdin, status = INTERPRETER_PATHS[path]
    argv = [item.format(**programs) for item in argv]
    assert statuses([(interpreter_main, argv)], stdin,
                    collecting=collecting) == [status]


@pytest.mark.parametrize("collecting", [False, True])
@pytest.mark.parametrize("argv, stdout, status", [
    pytest.param(["-a"], True, 0, id="help"),
    pytest.param(["--sin", "--gen", "x.pl0+"], True, 2, id="usage-error"),
    pytest.param(["-m", "{}"], False, 2, id="write-failure")])
def test_a_compilador_end_restores_the_collector(tmp_path, argv, stdout,
                                                  status, collecting):
    source = tmp_path / "eco.pl0+"
    source.write_text(ECHO, encoding="utf-8")
    argv = [item.format(source) for item in argv]
    assert statuses([(compiler_main, argv)], stdout=stdout,
                    collecting=collecting) == [status]
