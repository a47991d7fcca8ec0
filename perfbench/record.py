"""Record the benchmark's expected data in data/recorded.json.

    python3 perfbench/record.py

Run from the repository root, and only on a commit whose compiler output
is the reference: the file pins the sha256 of every phase document the
benchmark produces, for every input variant.  It also stores the inputs
that come from outside the benchmark (the progen pool and
`errores_programa`) with their expected results; progen outputs are taken
from the tree-walking evaluator rather than from the code generator and
VM.  The VM must agree with those outputs
before anything is written.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import progen  # noqa: E402
import workloads  # noqa: E402
from ops import STAGES, code_instr, sha256, source_key  # noqa: E402
from pl0plus import cli, lexer, parser, pvm, semantics  # noqa: E402

POOL_SEEDS = range(1000, 1010)


def oracle_outputs(source: str, inputs) -> list[int]:
    tokens, found = lexer.tokenize(source)
    ast, more = parser.parse(tokens)
    revised, _, rest = semantics.analyze(ast)
    if found or more or rest:
        raise SystemExit("record: a benchmark program has diagnostics")
    return pvm.reference_eval(revised, inputs)


def compile_quietly(argv) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.compiler_main(argv)


def documents(program, work: Path) -> dict:
    """Digests of the staged and the all-phase documents of one program."""
    stem = work / program.name
    Path(f"{stem}.pl0+").write_text(program.source, encoding="utf-8")
    digests = {}
    for flag, ext, out_ext, root in STAGES:
        if compile_quietly([flag, f"{stem}{ext}"]) != 0:
            raise SystemExit(f"record: {program.name} failed at {flag}")
        digests[root] = sha256(Path(f"{stem}{out_ext}").read_bytes())
    staged = Path(f"{stem}.p+").read_bytes()
    if compile_quietly([f"{stem}.pl0+"]) != 0:
        raise SystemExit(f"record: {program.name} failed to compile")
    direct = Path(f"{stem}.p+").read_bytes()
    digests["direct"] = sha256(direct)
    digests["code_instr"] = code_instr(direct.decode("utf-8"))
    if direct != staged:
        raise SystemExit(f"record: staged and direct .p+ differ for "
                         f"{program.name}")
    state = pvm.load(cli.parse_document(direct.decode("utf-8")))
    channel = pvm.ListIo(program.stdin)
    if pvm.run(state, channel) != 0 or \
            tuple(channel.outputs) != program.outputs:
        raise SystemExit(f"record: VM disagrees with the oracle on "
                         f"{program.name}")
    return digests


def main() -> int:
    recorded = {"pool": [], "errors": {}, "documents": {}}
    for seed in POOL_SEEDS:
        source, inputs, _ = progen.generate(seed)
        recorded["pool"].append({"seed": seed, "source": source,
                                 "inputs": inputs,
                                 "outputs": oracle_outputs(source, inputs)})

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        errors = work / "errores_programa.pl0+"
        errors.write_text((ROOT / "tests" / "data" / "errores_programa.pl0+")
                          .read_text(encoding="utf-8"), encoding="utf-8")
        captured = io.StringIO()
        with redirect_stdout(captured):
            status = cli.compiler_main([str(errors)])
        if status != 1:
            raise SystemExit("record: errores_programa did not exit 1")
        recorded["errors"] = {"source": errors.read_text(encoding="utf-8"),
                              "stdout": captured.getvalue()}

        for workload in workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                for program in workloads.build(workload, variant, recorded):
                    if program.exit_code != 0:
                        continue
                    key = source_key(program)
                    if key not in recorded["documents"]:
                        recorded["documents"][key] = documents(program, work)

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    recorded["recorded_at"] = {"git_commit": commit or None,
                               "python": sys.version.split()[0]}
    workloads.DATA.parent.mkdir(exist_ok=True)
    workloads.DATA.write_text(json.dumps(recorded, indent=1,
                                         ensure_ascii=False) + "\n",
                              encoding="utf-8")
    print(f"wrote {workloads.DATA} ({len(recorded['documents'])} programs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
