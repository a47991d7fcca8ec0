"""pl0plus benchmark: compile time, run time and process start-up.

    python3 perfbench/run.py --workload compile_large --seed 1 \\
        --seconds 55 --trace 0

Run from the repository root.  One run sets the workload up SETUPS times
(`setup_s` is the median), then spends `--seconds` on a weighted mix of
operations, checking every output.  Ops on the program in `src/` are
interleaved with the same ops on `seed/pl0plus_seed`, a frozen copy of the
seed compiler, and the end-to-end `<kind>_rel` metrics are the median
ratios of the two, which cancels the host's speed drift.  It prints
one report line per metric and, as its last line, a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  The
full report (and, when tracing, every span) is written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import xml.parsers.expat
from contextlib import nullcontext
from pathlib import Path

import ops
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SEED = BENCH / "seed"
SEED_PACKAGE = "pl0plus_seed"
SEED_ENTRIES = {"compilador": f"{SEED_PACKAGE}.cli:compiler_main",
                "interprete": f"{SEED_PACKAGE}.cli:interpreter_main"}
SIDES = ("current", "seed")
SETUPS = 5
TRACE_SLACK_S = 0.002

OP_METRIC = {"compile": "compile_s", "staged": "staged_compile_s",
             "run": "run_s", "cli_compile": "cli_compile_s",
             "cli_run": "cli_run_s"}
PASS_OPS = ("compile", "staged", "run")
TRACE_SHARES = {"untraced": 0.4, "traced": 0.4, "startup": 0.2}
FUNCTION_METRICS = tuple(
    f"{layer}.{fn}_s" for layer, fns in (
        ("lexer", ("tokenize", "tokens_to_xml", "tokens_from_xml")),
        ("parser", ("parse", "ast_to_xml", "ast_from_xml")),
        ("semantics", ("analyze", "revised_to_xml", "revised_from_xml",
                       "rebuild_symbol_table")),
        ("codegen", ("generate", "program_to_xml", "program_from_xml")),
        ("pvm", ("load", "run")),
        ("diagnostics", ("render_text",)))
    for fn in fns) + tuple(
    f"xmldoc.{fn}_s.{root}" for fn in ("parse_document", "serialize_document")
    for root in ops.ROOTS)


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - p / 100) >= 10:
            return p, percentile(values, p)
    return None


def provenance(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pl0plus").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "variant": args.seed % workloads.VARIANTS,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "git_commit": commit,
            "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0))}


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.clis = {}
        self.entries = {}
        self.envs = {"current": dict(os.environ, PYTHONPATH=str(SRC)),
                     "seed": dict(os.environ, PYTHONPATH=str(SEED))}
        self.attempted = 0
        self.failures: list[str] = []
        self.samples = {side: {kind: [] for kind in OP_METRIC}
                        for side in SIDES}
        self.ratios = {kind: [] for kind in OP_METRIC}
        self.pairs = 0
        self.max_rss_kb = 0
        self.setup_times: list[float] = []

    # -- bookkeeping

    def record(self, failure: str | None) -> bool:
        self.attempted += 1
        if failure:
            self.failures.append(failure)
        return failure is None

    def guarded(self, kind: str, program, action):
        """Run one op; an exception counts as a failed op."""
        try:
            return action()
        except Exception as exc:  # noqa: BLE001 - the loop must go on
            self.record(f"{kind} {program.name}: {exc!r}")
            return None

    # -- set-up

    def setup(self, index: int) -> None:
        start = time.perf_counter()
        if not self.clis:
            self.clis = {"current": importlib.import_module("pl0plus.cli"),
                         "seed": importlib.import_module(
                             f"{SEED_PACKAGE}.cli")}
            self.entries = {"current": ops.entry_points(ROOT),
                            "seed": SEED_ENTRIES}
        recorded = workloads.load_recorded()
        programs = workloads.build(self.workload, self.seed, recorded)
        expected = {}
        for program in programs:
            if program.exit_code == 0:
                expected[program.name] = recorded["documents"].get(
                    ops.source_key(program))
                if expected[program.name] is None:
                    raise SystemExit(f"no recorded documents for "
                                     f"{program.name}; run record.py")
        spaces = {side: ops.Workspace(self.work / f"setup{index}" / side,
                                      programs) for side in SIDES}
        code = 0
        # warm-up, and on each side the .p+ files its run ops load
        for program, side in itertools.product(programs, SIDES):
            space = spaces[side]
            path = space.path("run", program)
            outcome = self.guarded("setup", program, lambda: (
                ops.compile_in_process(self.clis[side], path)))
            if outcome is None or not self.record(ops.check_compile(
                    outcome, program, path.with_suffix(".p+"),
                    expected.get(program.name))) or program.exit_code:
                continue
            if side == "current":
                code += ops.code_instr(
                    path.with_suffix(".p+").read_text(encoding="utf-8"))
            shutil.copy(path.with_suffix(".p+"),
                        space.path("cli_run", program, ".p+"))
        gc.collect()
        self.setup_times.append(time.perf_counter() - start)
        self.programs, self.expected = programs, expected
        self.spaces, self.code_instr = spaces, code

    # -- operations

    def eligible(self, kind: str) -> list:
        timed = [p for p in self.programs if p.timed]
        if kind in ("compile", "cli_compile"):
            return timed
        return [p for p in timed if p.exit_code == 0]

    def check_untimed(self) -> None:
        """One checked compilador process per program that is not timed
        (set-up already compiled each in process)."""
        for program in self.programs:
            if not program.timed:
                self.guarded("cli_compile", program,
                             lambda: self.op("cli_compile", program))

    def op(self, kind: str, program, around=nullcontext,
           side: str = "current") -> float | None:
        """One checked op of one side; its seconds, or None when it failed.
        `around` wraps the timed region of in-process ops."""
        space, cli = self.spaces[side], self.clis[side]
        if kind in ("compile", "staged", "cli_compile"):
            space.clear_outputs(kind, program)
        if kind == "compile":
            path = space.path(kind, program)
            outcome = ops.compile_in_process(cli, path, around)
            failure = ops.check_compile(outcome, program,
                                        path.with_suffix(".p+"),
                                        self.expected.get(program.name))
        elif kind == "staged":
            stem = space.root / kind / program.name
            outcome = ops.staged_in_process(cli, stem, around)
            failure = ops.check_staged(outcome, program, stem,
                                       self.expected[program.name])
        elif kind == "run":
            outcome = ops.run_in_process(
                cli, space.path(kind, program, ".p+"), program, around)
            failure = ops.check_run(outcome, program)
        elif kind == "cli_compile":
            path = space.path(kind, program)
            outcome = self.spawn("compilador", [str(path)], None, kind, side)
            failure = ops.check_compile(outcome, program,
                                        path.with_suffix(".p+"),
                                        self.expected.get(program.name))
        else:
            stdin = space.stdin_path(kind, program) if program.stdin else None
            outcome = self.spawn("interprete",
                                 [str(space.path(kind, program, ".p+"))],
                                 stdin, kind, side)
            failure = ops.check_run(outcome, program)
        return outcome.seconds if self.record(failure) else None

    def spawn(self, entry: str, args: list[str], stdin, kind: str,
              side: str = "current"):
        argv = [sys.executable, "-c",
                ops.entry_code(self.entries[side][entry])]
        outcome = ops.spawn(argv + args, self.envs[side], stdin,
                            self.spaces[side].root / kind)
        if side == "current":
            self.max_rss_kb = max(self.max_rss_kb, outcome.max_rss_kb)
        return outcome

    def pair(self, kind: str, programs) -> None:
        """One op of one kind on the current program and the same op on the
        seed copy, back to back; which goes first alternates.  Their ratio
        cancels the host's speed drift, which is slow next to one op.  A
        full collection before each op releases the garbage of the last."""
        program = next(programs)
        order = SIDES if self.pairs % 2 == 0 else SIDES[::-1]
        self.pairs += 1
        if kind == "staged":
            seconds = self.staged_pair(program, order)
        else:
            seconds = {}
            for side in order:
                gc.collect()
                seconds[side] = self.guarded(kind, program, lambda: self.op(
                    kind, program, side=side))
                if seconds[side] is None:
                    seconds = None
                    break
        if seconds is None:   # a failed op leaves no ratio
            return
        for side in SIDES:
            self.samples[side][kind].append(seconds[side])
        self.ratios[kind].append(seconds["current"] / seconds["seed"])

    def staged_pair(self, program, order) -> dict | None:
        """The staged compile on both sides, interleaved phase by phase, so
        that each single-phase run is paired with the same run on the other
        side; each side reads and writes its own directory."""
        stems = {side: self.spaces[side].root / "staged" / program.name
                 for side in SIDES}
        outcomes = {side: ops.Outcome(0.0, 0) for side in SIDES}
        for side in SIDES:
            self.spaces[side].clear_outputs("staged", program)
        for stage in ops.STAGES:
            for side in order:
                gc.collect()
                done = self.guarded("staged", program, lambda: (
                    ops.staged_in_process(self.clis[side], stems[side],
                                          stages=(stage,))))
                if done is None:
                    return None
                total = outcomes[side]
                total.seconds += done.seconds
                total.exit_code = total.exit_code or done.exit_code
                total.stdout += done.stdout
        for side in SIDES:
            if not self.record(ops.check_staged(
                    outcomes[side], program, stems[side],
                    self.expected[program.name])):
                return None
        return {side: outcomes[side].seconds for side in SIDES}

    def probe_flat_sum(self) -> str | None:
        """The known-defect probe: a flat 300-term sum must compile (one
        compilador process) and print 300 (one interprete process).  Its
        processes stay out of peak_rss_mb."""
        program = workloads.flat_sum_probe()
        probe = ops.Workspace(self.work / "probe", [program])
        path = probe.path("cli_compile", program)

        def spawn(entry, target):
            argv = [sys.executable, "-c",
                    ops.entry_code(self.entries["current"][entry]),
                    str(target)]
            return ops.spawn(argv, self.envs["current"], None, probe.root)

        outcome = spawn("compilador", path)
        if outcome.exit_code != 0:
            return f"probe {program.name}: compilador exit " \
                   f"{outcome.exit_code}"
        return ops.check_run(spawn("interprete", path.with_suffix(".p+")),
                             program)

    # -- schedules

    def measure(self, seconds: float) -> None:
        cycles = {kind: itertools.cycle(self.eligible(kind))
                  for kind in OP_METRIC}
        self.weighted(workloads.SHARES[self.workload], seconds,
                      lambda kind: self.pair(kind, cycles[kind]))

    @staticmethod
    def weighted(shares: dict, seconds: float, do) -> None:
        """Give each kind its share of the time, interleaved; every kind
        runs at least once."""
        spent = dict.fromkeys(shares, 0.0)
        runs = dict.fromkeys(shares, 0)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or min(runs.values()) == 0:
            kind = min(shares, key=lambda k: (runs[k] > 0,
                                              spent[k] / shares[k]))
            start = time.perf_counter()
            do(kind)
            spent[kind] += time.perf_counter() - start
            runs[kind] += 1


# ---------------------------------------------------------------------------
# Traced run

class TracedBench(Bench):
    def __init__(self, *args):
        super().__init__(*args)
        self.tracer = Tracer()
        self.untraced: list[float] = []
        self.passes: list[dict] = []
        self.startup = {"python": [], "cli": []}
        self.import_self = {layer: [] for layer in LAYERS}

    def pass_ops(self):
        """(kind, program) of one pass: compile, staged compile and run of
        each timed program, and the in-process compile of each untimed one
        (`errores_programa`, so the diagnostics path is traced too)."""
        for program in self.programs:
            for kind in PASS_OPS if program.timed else ("compile",):
                if kind == "compile" or program.exit_code == 0:
                    yield kind, program

    def untraced_pass(self) -> None:
        total = 0.0
        for kind, program in self.pass_ops():
            seconds = self.guarded(kind, program,
                                   lambda: self.op(kind, program))
            total += seconds or 0.0
            gc.collect()
        self.untraced.append(total)

    def check_spans(self, root, seconds: float) -> str | None:
        """Every span of the op is closed and lies inside its parent, and
        the root span's wall matches the op's own timing."""
        spans = self.tracer.by_op[root.op]
        by_id = {span.sid: span for span in spans}
        for span in spans:
            if span.end < span.start:
                return f"span {span.name} was not closed"
            parent = by_id.get(span.parent)
            if span is not root and (parent is None
                                     or span.start < parent.start
                                     or span.end > parent.end):
                return f"span {span.name} lies outside its parent"
        excess = root.end - root.start - seconds
        if not 0 <= excess <= TRACE_SLACK_S:
            return (f"root span is {excess * 1e3:.3f} ms longer than the "
                    f"op's {seconds:.6f} s")
        return None

    def traced_pass(self) -> None:
        totals: dict[str, float] = {}
        wall = 0.0
        self.tracer.install()
        try:
            for program, group in itertools.groupby(self.pass_ops(),
                                                    key=lambda op: op[1]):
                counts: dict[str, int] = {}   # the program's, not per call
                for kind, _ in group:
                    before = len(self.tracer.roots)
                    seconds = self.guarded(kind, program, lambda: self.op(
                        kind, program, self.tracer.op_span))
                    gc.collect()
                    if seconds is None or len(self.tracer.roots) == before:
                        continue
                    root = self.tracer.roots[-1]
                    failure = self.check_spans(root, seconds)
                    if failure:
                        self.record(f"trace {kind} {program.name}: "
                                    f"{failure}")
                    metrics = self.tracer.op_times(root.op)
                    for key, value in self.tracer.counts[root.op].items():
                        counts[key] = max(counts.get(key, 0), value)
                    wall += root.end - root.start
                    for key, value in metrics.items():
                        totals[key] = totals.get(key, 0.0) + value
                for key, value in counts.items():
                    totals[key] = totals.get(key, 0) + value
        finally:
            self.tracer.uninstall()
        totals["trace.pass_s"] = wall
        self.passes.append(totals)

    def startup_round(self) -> None:
        python = sys.executable
        probes = {"python": [python, "-c", "pass"],
                  "cli": [python, "-c", "import pl0plus.cli"]}
        for name, argv in probes.items():
            outcome = ops.spawn(argv, self.envs["current"], None, self.work)
            if self.record(None if outcome.exit_code == 0
                           else f"startup {name}: exit {outcome.exit_code}"):
                self.startup[name].append(outcome.seconds)
        outcome = ops.spawn([python, "-X", "importtime", "-c",
                             "import pl0plus.cli"], self.envs["current"],
                            None, self.work)
        if self.record(None if outcome.exit_code == 0
                       else f"importtime: exit {outcome.exit_code}"):
            for match in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \| "
                                     r"\s*pl0plus\.(\w+)", outcome.stderr):
                if match.group(2) in self.import_self:
                    self.import_self[match.group(2)].append(
                        int(match.group(1)) / 1e6)

    def count_steps(self) -> int:
        """VM steps of the workload's programs, counted once, untimed."""
        pvm = self.tracer.modules["pvm"]
        original, steps = pvm.step, [0]

        def counting(state, channel):
            steps[0] += 1
            return original(state, channel)

        pvm.step = counting
        try:
            for program in self.eligible("run"):
                self.guarded("steps", program,
                             lambda: self.op("run", program))
        finally:
            pvm.step = original
        return steps[0]

    def document_sizes(self) -> dict:
        """Bytes and elements of each phase document of the programs."""
        sizes = {}
        for program in self.eligible("staged"):
            stem = self.spaces["current"].root / "staged" / program.name
            for _, _, ext, root in ops.STAGES:
                path = Path(f"{stem}{ext}")
                if not path.is_file():   # the staged ops failed
                    continue
                data = path.read_bytes()
                elements = [0]
                parser = xml.parsers.expat.ParserCreate()
                parser.StartElementHandler = \
                    lambda *_: elements.__setitem__(0, elements[0] + 1)
                parser.Parse(data, True)
                for key, value in ((f"xmldoc.bytes.{root}", len(data)),
                                   (f"xmldoc.elements.{root}", elements[0])):
                    sizes[key] = sizes.get(key, 0) + value
        return sizes

    def measure(self, seconds: float) -> None:
        steps = self.count_steps()
        actions = {"untraced": self.untraced_pass,
                   "traced": self.traced_pass,
                   "startup": self.startup_round}
        self.weighted(TRACE_SHARES, seconds, lambda kind: actions[kind]())
        self.steps = steps

    def per_layer(self) -> dict:
        """Medians over the traced passes; a value with no sample (every
        op of its kind failed) is left out."""
        def median_of(key):
            return median([p.get(key, 0.0) for p in self.passes])

        keys = set(FUNCTION_METRICS) | {k for p in self.passes for k in p}
        keys |= {f"{layer}.{suffix}" for layer in LAYERS
                 for suffix in ("self_s", "gc_s")}
        keys |= {"gc.pause_s", "gc.gen2_collections", "lexer.tokens",
                 "codegen.instructions", "diagnostics.count",
                 "pvm.stack_cells"}
        values = {key: median_of(key) for key in sorted(keys)}
        values["pvm.steps"] = self.steps
        values["pvm.instr_per_s"] = median(
            [self.steps / p["pvm.run_s"] for p in self.passes
             if p.get("pvm.run_s")])
        if values["trace.pass_s"] is not None and self.untraced:
            values["trace.overhead_s"] = (values["trace.pass_s"]
                                          - median(self.untraced))
        start = median(self.startup["python"])
        values["python.start_s"] = start
        if start is not None and self.startup["cli"]:
            values["cli.import_s"] = median(self.startup["cli"]) - start
        for layer, samples in self.import_self.items():
            values[f"{layer}.import_self_s"] = median(samples)
        values.update(self.document_sizes())
        return {k: v for k, v in values.items() if v is not None}


def median(values: list) -> float | None:
    return statistics.median(values) if values else None


def summary(name: str, values: list[float], unit: str) -> dict:
    """Median, tail percentile and count of one metric's samples, also
    printed as one report line."""
    entry = {"median": statistics.median(values), "n": len(values),
             "samples": values}
    line = f"{name}: median {entry['median']:.6f} {unit}"
    found = tail(values)
    if found:
        entry[f"p{found[0]:g}"] = found[1]
        line += f", p{found[0]:g} {found[1]:.6f} {unit}"
    print(line + f", n={len(values)}")
    return entry


def unit_of(name: str) -> str:
    if name.endswith("instr_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.startswith("xmldoc.bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not all(path.is_file() for path in (
            SRC / "pl0plus" / "cli.py", ROOT / "pyproject.toml",
            ROOT / "BENCHMARK.json")):
        print(f"error: no pl0plus sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(SEED)]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    bench_class = TracedBench if args.trace else Bench
    bench = bench_class(args.workload, args.seed, work)
    try:
        for index in range(SETUPS):
            bench.setup(index)
        bench.measure(args.seconds)
        bench.check_untimed()
        probe = None
        if args.workload == "vm":
            probe = bench.guarded("probe", workloads.flat_sum_probe(),
                                  bench.probe_flat_sum) or "passed"
        report = {"provenance": provenance(args)}
        print("provenance: " + json.dumps(report["provenance"]))
        if args.trace:
            metrics = bench.per_layer()
            report["per_layer"] = metrics
            for name, value in metrics.items():
                print(f"{name}: {value:.6g} {unit_of(name)}")
        else:
            report["timings"], report["ratios"] = {}, {}
            metrics = {}
            timings = {f"{name}{'' if side == 'current' else '.seed'}":
                       bench.samples[side][kind]
                       for side in SIDES
                       for kind, name in OP_METRIC.items()}
            timings["setup_s"] = bench.setup_times
            for name, values in timings.items():
                if not values:
                    continue
                report["timings"][name] = summary(name, values, "s")
            for kind, values in bench.ratios.items():
                if not values:
                    continue
                name = OP_METRIC[kind].removesuffix("_s") + "_rel"
                metrics[name] = statistics.median(values)
                report["ratios"][name] = summary(name, values, "ratio")
            metrics["setup_s"] = statistics.median(bench.setup_times)
            metrics["peak_rss_mb"] = bench.max_rss_kb / 1024
            metrics["code_instr"] = bench.code_instr
            print(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB")
            print(f"code_instr: {metrics['code_instr']} count")
        # the probe is a known defect: reported, but kept out of `failed`
        probe_failed = int(probe not in (None, "passed"))
        ops_total = bench.attempted + (probe is not None)
        fail_ratio = (len(bench.failures) + probe_failed) / ops_total
        report.update({"ops": ops_total, "fail_ratio": fail_ratio,
                       "failures": bench.failures[:20],
                       "known_defect_probe": probe})
        print(f"fail_ratio: {fail_ratio:.6f} of ops={ops_total}"
              + (f" (known defect probe: {probe})" if probe else ""))
        for failure in bench.failures[:5]:
            print(f"failure: {failure}", file=sys.stderr)
    finally:
        shutil.rmtree(BENCH / ".work" / f"{args.workload}-{os.getpid()}",
                      ignore_errors=True)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as out:
            for span in bench.tracer.spans:
                out.write(json.dumps(span.as_dict()) + "\n")
    published = {}
    for spec in contract["per_layer" if args.trace else "end_to_end"]:
        if spec["name"] not in metrics:
            bench.record(f"metric {spec['name']} was not measured")
            continue
        published[spec["name"]] = {"value": metrics[spec["name"]],
                                   "unit": spec["unit"]}
    print(json.dumps({"correct": not bench.failures,
                      "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": published}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
