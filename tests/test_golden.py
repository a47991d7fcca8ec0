"""Every corpus document and every error report, pinned byte for byte.

`tests/golden/` holds, for each `tests/corpus` program, the `.pl0+lex`,
`.pl0+sin`, `.pl0+sem` and `.p+` that the staged `compilador --lex`,
`--sin`, `--sem` and `--gen` runs write, and for each
`tests/data/errores_*.pl0+` the standard output (`.salida`) and standard
error (`.x.xml`) of `compilador -x`.  The commands run in this process.
After a change that is meant to alter those bytes, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import shutil
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from checks import CORPUS, CORPUS_NAMES, DATA
from pl0plus.compiler import compiler_main

GOLDEN = Path(__file__).resolve().parent / "golden"
ERROR_PROGRAMS = sorted(path.name for path in DATA.glob("errores_*.pl0+"))
STAGES = (("--lex", ".pl0+", ".pl0+lex"), ("--sin", ".pl0+lex", ".pl0+sin"),
          ("--sem", ".pl0+sin", ".pl0+sem"), ("--gen", ".pl0+sem", ".p+"))


def command(argv: list) -> tuple:
    """`(status, stdout, stderr)` of `compilador argv`, the streams as
    UTF-8 bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = compiler_main(argv)
    return status, out.getvalue().encode(), err.getvalue().encode()


@lru_cache(maxsize=None)
def produced() -> tuple:
    """The pinned files' bytes by name, and each corpus program's `.p+`
    from the direct compile by program."""
    files, direct = {}, {}
    with tempfile.TemporaryDirectory() as work:
        for name in CORPUS_NAMES:
            stem = Path(name).stem
            for where in ("etapas", "directo"):
                (Path(work) / where).mkdir(exist_ok=True)
                shutil.copyfile(CORPUS / name, Path(work) / where / name)
            for flag, read, written in STAGES:
                path = Path(work) / "etapas" / (stem + read)
                assert command([flag, str(path)]) == (0, b"", b""), flag
                files[stem + written] = path.with_suffix(written).read_bytes()
            path = Path(work) / "directo" / name
            assert command([str(path)]) == (0, b"", b"")
            direct[stem] = path.with_suffix(".p+").read_bytes()
        for name in ERROR_PROGRAMS:
            path = Path(work) / name
            shutil.copyfile(DATA / name, path)   # byte for byte, CRLF kept
            status, out, err = command(["-x", str(path)])
            assert status == 1, name
            files[Path(name).stem + ".salida"] = out
            files[Path(name).stem + ".x.xml"] = err
    return files, direct


def test_every_golden_file_is_produced():
    assert sorted(path.name for path in GOLDEN.iterdir()) == \
        sorted(produced()[0])


@pytest.mark.parametrize("name", sorted(
    [Path(name).stem + extension for name in CORPUS_NAMES
     for extension in (".pl0+lex", ".pl0+sin", ".pl0+sem", ".p+")]
    + [Path(name).stem + extension for name in ERROR_PROGRAMS
       for extension in (".salida", ".x.xml")]))
def test_golden_file(name):
    assert produced()[0][name] == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_direct_object_code_is_the_staged_one(name):
    stem = Path(name).stem
    files, direct = produced()
    assert direct[stem] == files[stem + ".p+"]


def write() -> int:
    """Rewrite `tests/golden/` from what the commands produce now."""
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        path.unlink()
    for name, data in produced()[0].items():
        (GOLDEN / name).write_bytes(data)
    print(f"{len(produced()[0])} files written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(write())
