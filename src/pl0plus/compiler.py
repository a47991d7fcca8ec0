"""The `compilador` command.

The compiler is a pipeline over four phases, described by one table,
PHASES: each phase's option name and description, the extension of the
document it writes, and how to run it, write that document and read it
back.  A phase reads what the phase before it writes; the first reads
the `.pl0+` source.  The driver checks that the requested phases are
consecutive and that the input file's extension is the one the first of
them reads, then writes the last one's document next to the input.
Adding a phase means adding a descriptor, not editing the driver.

The `compilador` script starts here, not in `cli`, so a compile loads
only the compiler: the p+ format comes from `pcode`, and the machine in
`pvm` is never loaded.  The layers are called through their modules, by
names looked up at each call (`diagnostics.render_text`, not a name bound
here), so a tool that wraps a layer's functions in that layer's module
sees every call.  The `-x` report comes from `diagnostics` as text, so a
compile builds no XML tree.
"""

from __future__ import annotations

import sys

from . import codegen, diagnostics, lexer, parser, semantics
from .command import Command, Option, guard, read_input
from .diagnostics import PHASE_DESCRIPTIONS, has_errors
from .xmldoc import Record, XmlLoadError, XmlParseError


def _late(module, name: str):
    """`module.name`, looked up at each call rather than bound here."""
    return lambda *args: getattr(module, name)(*args)


class PhaseDescriptor(Record):
    """One phase and the document it writes.

    `run(made)` returns what the phase makes and its findings, `save(made,
    source)` writes what it made as its document, and `load(text)` reads
    that back with the document's `fuente` or None.  The last phase's
    document is read by no phase, so it has no `load`.
    """

    __slots__ = ("short_name", "description", "extension", "run", "save",
                 "load", "needs_error_free")

    def __init__(self, short_name: str, extension: str, run, save,
                 load=None, needs_error_free: bool = False):
        self.short_name = short_name
        self.description = PHASE_DESCRIPTIONS[short_name]
        self.extension = extension
        self.run = run
        self.save = save
        self.load = load
        self.needs_error_free = needs_error_free


PHASES = (
    PhaseDescriptor("lex", ".pl0+lex", _late(lexer, "tokenize"),
                    _late(lexer, "tokens_to_xml"),
                    _late(lexer, "tokens_from_xml")),
    PhaseDescriptor("sin", ".pl0+sin", _late(parser, "parse"),
                    _late(parser, "ast_to_xml"),
                    _late(parser, "ast_from_xml")),
    PhaseDescriptor("sem", ".pl0+sem", _late(semantics, "analyze"),
                    _late(semantics, "revised_to_xml"),
                    _late(semantics, "revised_from_xml")),
    PhaseDescriptor("gen", ".p+", _late(codegen, "generate"),
                    _late(codegen, "program_to_xml"), needs_error_free=True),
)

# EXTENSIONS[i] is the extension of the file that PHASES[i] reads: the
# first phase reads the source, each other one what the phase before
# wrote.  None of them is a suffix of another.
EXTENSIONS = (".pl0+",) + tuple(phase.extension for phase in PHASES)


class CompileConfig(Record):
    __slots__ = ("input_path", "phases", "show_result", "xml_errors")

    def __init__(self, input_path: str, phases: tuple,
                 show_result: bool = False, xml_errors: bool = False):
        self.input_path = input_path
        self.phases = phases
        self.show_result = show_result
        self.xml_errors = xml_errors


def parse_compiler_args(argv=None) -> CompileConfig:
    command = Command(
        "compilador", "Compilador de pl0+ a código p+ por fases; cada fase "
                      "lee y escribe una representación XML documentada.",
        [Option(("-m", "--mostrar"),
                "muestra el resultado final por salida estándar"),
         Option(("-x", "--errores-xml"), "además reporta errores y "
                "advertencias como XML por salida de error")]
        + [Option((f"--{phase.short_name}",), "ejecuta la "
                  + phase.description[0].lower() + phase.description[1:])
           for phase in PHASES],
        "archivo de entrada")
    values, path = command.parse(argv)

    selected = [phase for phase in PHASES
                if f"--{phase.short_name}" in values]
    if not selected:
        selected = list(PHASES)
    indices = [PHASES.index(phase) for phase in selected]
    if indices != list(range(indices[0], indices[-1] + 1)):
        command.error("las fases solicitadas deben ser consecutivas")

    found = [ext for ext in EXTENSIONS if path.endswith(ext)]
    if not found:
        command.error(f"extensión no reconocida: '{path}'")
    expected = EXTENSIONS[indices[0]]
    if found[0] != expected:
        command.error(f"la fase '{selected[0].short_name}' espera un archivo "
                      f"'{expected}', no '{found[0]}'")
    return CompileConfig(path, tuple(selected), "--mostrar" in values,
                         "--errores-xml" in values)


def run_pipeline(config: CompileConfig) -> int:
    path = config.input_path
    first = PHASES.index(config.phases[0])
    text = read_input(path)
    if text is None:
        return 2

    if first == 0:
        made, source = text, text
    else:
        try:
            made, source = PHASES[first - 1].load(text)
        except (XmlParseError, XmlLoadError) as exc:
            print(f"Error: '{path}': {exc}", file=sys.stderr)
            return 2

    diags = []
    last_run = None
    for phase in config.phases:
        if made is None:
            break
        if phase.needs_error_free and has_errors(diags):
            break
        made, found = phase.run(made)
        diags.extend(found)
        last_run = phase

    if source is not None:
        diagnostics.attach_context(diags, source)
    ordered = diagnostics.sort_diagnostics(diags)
    failed = has_errors(ordered)

    if not failed and made is not None and last_run is not None:
        rendered = last_run.save(made, source)
        output_path = path[:-len(EXTENSIONS[first])] + last_run.extension
        try:
            with open(output_path, "w", encoding="utf-8") as out:
                out.write(rendered + "\n")
        except OSError as exc:
            print(f"Error: no se pudo escribir '{output_path}': "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
        if config.show_result:
            print(rendered)

    if ordered:
        sys.stdout.write(diagnostics.render_text(ordered))
        if config.xml_errors:
            sys.stderr.write(diagnostics.render_xml(ordered) + "\n")
    return 1 if failed else 0


def compiler_main(argv=None) -> int:
    return guard(lambda: run_pipeline(parse_compiler_args(argv)))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(compiler_main())
