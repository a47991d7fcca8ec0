"""Inputs, expected outputs and op mixes of the benchmark workloads.

A workload is a list of `Program`s plus the share of the measured time
each operation kind gets.  Inputs come from the seed: `variant = seed %
VARIANTS` picks constants or an order, so every seed maps onto one of the
variants whose phase-document digests `record.py` stored in
`data/recorded.json`.  Expected VM outputs never come from `codegen` or
`pvm`: the two kernels have Python models below, and the progen outputs
were recorded once with the tree-walking evaluator.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "recorded.json"

VARIANTS = 16

# Share of the measured seconds each op kind gets, per workload.
SHARES = {
    "compile_large": {"compile": 0.08, "staged": 0.17, "run": 0.07,
                      "cli_compile": 0.36, "cli_run": 0.32},
    "vm": {"compile": 0.03, "staged": 0.05, "run": 0.2,
           "cli_compile": 0.34, "cli_run": 0.38},
}

WORKLOADS = tuple(SHARES)

LOOPS_OUTER, LOOPS_INNER = 2, 250
CALLS_DEPTH, CALLS_REPEAT = 333, 1


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    stdin: tuple = ()
    outputs: tuple = ()          # expected VM outputs, one per write
    exit_code: int = 0           # expected compiler exit code
    diagnostics: str = ""        # expected compiler stdout
    timed: bool = True           # False: compiled and checked, not timed


def load_recorded() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def wrap32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def tdiv(left: int, right: int) -> int:
    """Division truncating toward zero, wrapped to 32 bits."""
    quotient = abs(left) // abs(right)
    return wrap32(-quotient if (left < 0) != (right < 0) else quotient)


# ---------------------------------------------------------------------------
# compile_large: sibling procedures made from the recorded progen pool

def wrap_as_procedure(name: str, source: str) -> str:
    """Turn a whole progen program into one procedure declaration."""
    body = source.rstrip()
    if not body.endswith("end."):
        raise ValueError("progen program does not end with 'end.'")
    lines = (body[:-1] + ";").splitlines()
    return "\n".join([f"procedure {name};"] + ["    " + ln for ln in lines])


def compile_large(variant: int, recorded: dict) -> list[Program]:
    pool = recorded["pool"]
    order = list(range(len(pool)))
    random.Random(variant).shuffle(order)
    decls = [wrap_as_procedure(f"w{k}", pool[k]["source"]) for k in order]
    calls = ";\n".join(f"    call w{k}" for k in order)
    source = "\n".join(decls) + "\nbegin\n" + calls + "\nend.\n"
    stdin = tuple(v for k in order for v in pool[k]["inputs"])
    outputs = tuple(v for k in order for v in pool[k]["outputs"])
    return [Program("grande", source, stdin, outputs),
            errors_program(recorded)]


# ---------------------------------------------------------------------------
# vm: one kernel with two parts.  Nested while loops doing + - * /, odd and
# relations in the main frame, then recursion about 1,000 frames deep
# through a three-level procedure nest (LLA/INS/RET, static-chain walks,
# stack growth).

def vm_constants(variant: int) -> dict:
    rng = random.Random(1000 + variant)
    return {"mult": rng.randint(3, 97), "divisor": rng.randint(2, 50),
            "shift": rng.randint(3, 29), "s0": rng.randint(1, 999),
            **{f"k{i}": rng.randint(1, 60) for i in range(1, 5)}}


def vm_source(k: dict) -> str:
    return f"""const mult = {k['mult']}, divisor = {k['divisor']}, \
shift = {k['shift']},
    k1 = {k['k1']}, k2 = {k['k2']}, k3 = {k['k3']}, k4 = {k['k4']};
var i, j, x, y, s, n, acc, r;
procedure exterior;
    var a;
    procedure medio;
        var b;
        procedure interior;
            var c;
            begin
                c := n * k1 + a - b;
                acc := acc + c / k2;
                if n > 0 then begin
                    n := n - 1;
                    call exterior
                end
            end;
        begin
            b := a + k3;
            call interior
        end;
    begin
        a := n - k4;
        call medio
    end;
begin
    s := {k['s0']};
    i := 0;
    while i < {LOOPS_OUTER} do begin
        j := 0;
        while j < {LOOPS_INNER} do begin
            x := s * mult + j - i;
            y := x / divisor;
            if odd y then s := s + y - shift else s := s - y + shift;
            if s > 100000 then s := s / 7;
            if s <= 0 - 100000 then s := s / 5;
            j := j + 1
        end;
        write s;
        i := i + 1
    end;
    r := 0;
    while r < {CALLS_REPEAT} do begin
        n := {CALLS_DEPTH};
        acc := r;
        call exterior;
        write acc;
        r := r + 1
    end
end.
"""


def vm_model(k: dict) -> tuple:
    """The kernel's outputs, with 32-bit wrap-around and truncating
    division."""
    out = []
    s = k["s0"]
    for i in range(LOOPS_OUTER):
        for j in range(LOOPS_INNER):
            x = wrap32(wrap32(wrap32(s * k["mult"]) + j) - i)
            y = tdiv(x, k["divisor"])
            if y % 2 != 0:
                s = wrap32(wrap32(s + y) - k["shift"])
            else:
                s = wrap32(wrap32(s - y) + k["shift"])
            if s > 100000:
                s = tdiv(s, 7)
            if s <= -100000:
                s = tdiv(s, 5)
        out.append(s)
    for r in range(CALLS_REPEAT):
        acc = r
        for n in range(CALLS_DEPTH, -1, -1):
            a = wrap32(n - k["k4"])
            b = wrap32(a + k["k3"])
            c = wrap32(wrap32(wrap32(n * k["k1"]) + a) - b)
            acc = wrap32(acc + tdiv(c, k["k2"]))
        out.append(acc)
    return tuple(out)


def vm(variant: int, recorded: dict) -> list[Program]:
    k = vm_constants(variant)
    return [Program("maquina", vm_source(k), (), vm_model(k)),
            errors_program(recorded)]


def errors_program(recorded: dict) -> Program:
    """`tests/data/errores_programa.pl0+`, which must exit 1 with its
    recorded diagnostics; it rides along untimed in every workload."""
    errors = recorded["errors"]
    return Program("errores_programa", errors["source"], exit_code=1,
                   diagnostics=errors["stdout"], timed=False)


def flat_sum_source(terms: int = 300) -> str:
    return ("var x;\nbegin\n    x := " + " + ".join(["1"] * terms)
            + ";\n    write x\nend.\n")


def flat_sum_probe() -> Program:
    """A known defect kept visible: a flat 300-term sum must compile and
    print 300."""
    return Program("suma_plana", flat_sum_source(), (), (300,))


BUILDERS = {"compile_large": compile_large, "vm": vm}


def build(workload: str, seed: int, recorded: dict) -> list[Program]:
    return BUILDERS[workload](seed % VARIANTS, recorded)
