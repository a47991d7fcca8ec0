"""The `compilador` command.

The compiler is a pipeline over four phases.  Each phase is described by
a PhaseDescriptor naming the representation it consumes and the one it
produces; the driver validates that the requested phases are consecutive,
that the input file's extension matches the first phase, and writes the
last phase's XML next to the input with the new extension.  Adding a
phase means adding a descriptor, not editing the driver.

The `compilador` script starts here, not in `cli`, so a compile loads
only the compiler: the p+ format comes from `pcode`, and the machine in
`pvm` is never loaded.  The layers are called through their modules
(`diagnostics.render_text`, not a name bound here), so a tool that wraps
a layer's functions in that layer's module sees every call.
"""

from __future__ import annotations

import sys

from . import codegen, diagnostics, lexer, parser, semantics, xmldoc
from .command import Command, Option, read_input
from .diagnostics import PHASE_DESCRIPTIONS, has_errors
from .xmldoc import Record, XmlLoadError, XmlParseError


class Representation(Record):
    __slots__ = ("name", "extension", "load", "save")

    def __init__(self, name: str, extension: str, load=None, save=None):
        self.name = name
        self.extension = extension
        self.load = load  # document text -> (payload, source or None)
        self.save = save  # (payload, source or None) -> document text


def _load_lexemes(text):
    return lexer.tokens_from_xml(text)


def _save_lexemes(tokens, source):
    return lexer.tokens_to_xml(tokens, source)


def _load_tree(text):
    return parser.ast_from_xml(text)


def _save_tree(ast, source):
    return parser.ast_to_xml(ast, source)


def _load_revised(text):
    revised, table, source = semantics.revised_from_xml(text)
    return (revised, table), source


def _save_revised(payload, source):
    revised, table = payload
    return semantics.revised_to_xml(revised, table, source)


def _save_pcode(program, source):
    program.source = source
    return codegen.program_to_xml(program)


REPRESENTATIONS = {
    "source": Representation("source", ".pl0+"),
    "lexemes": Representation("lexemes", ".pl0+lex",
                              _load_lexemes, _save_lexemes),
    "syntax_tree": Representation("syntax_tree", ".pl0+sin",
                                  _load_tree, _save_tree),
    "revised_tree": Representation("revised_tree", ".pl0+sem",
                                   _load_revised, _save_revised),
    "pcode": Representation("pcode", ".p+", save=_save_pcode),
}


class PhaseDescriptor(Record):
    __slots__ = ("short_name", "description", "input_representation",
                 "output_representation", "run", "needs_error_free")

    def __init__(self, short_name: str, description: str,
                 input_representation: str, output_representation: str,
                 run, needs_error_free: bool = False):
        self.short_name = short_name
        self.description = description
        self.input_representation = input_representation
        self.output_representation = output_representation
        self.run = run  # (payload, diagnostics) -> payload or None
        self.needs_error_free = needs_error_free


def _run_lex(source, diags):
    tokens, found = lexer.tokenize(source)
    diags.extend(found)
    return tokens


def _run_sin(tokens, diags):
    ast, found = parser.parse(tokens)
    diags.extend(found)
    return ast


def _run_sem(ast, diags):
    revised, table, found = semantics.analyze(ast)
    diags.extend(found)
    return revised, table


def _run_gen(payload, diags):
    revised, table = payload
    program, found = codegen.generate(revised, table)
    diags.extend(found)
    return program


PHASES = (
    PhaseDescriptor("lex", PHASE_DESCRIPTIONS["lex"], "source", "lexemes",
                    _run_lex),
    PhaseDescriptor("sin", PHASE_DESCRIPTIONS["sin"], "lexemes",
                    "syntax_tree", _run_sin),
    PhaseDescriptor("sem", PHASE_DESCRIPTIONS["sem"], "syntax_tree",
                    "revised_tree", _run_sem),
    PhaseDescriptor("gen", PHASE_DESCRIPTIONS["gen"], "revised_tree",
                    "pcode", _run_gen, needs_error_free=True),
)


class CompileConfig(Record):
    __slots__ = ("input_path", "phases", "show_result", "xml_errors")

    def __init__(self, input_path: str, phases: tuple,
                 show_result: bool = False, xml_errors: bool = False):
        self.input_path = input_path
        self.phases = phases
        self.show_result = show_result
        self.xml_errors = xml_errors


def _match_extension(path: str) -> Representation | None:
    candidates = sorted(REPRESENTATIONS.values(),
                        key=lambda rep: len(rep.extension), reverse=True)
    for rep in candidates:
        if path.endswith(rep.extension):
            return rep
    return None


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

    rep = _match_extension(path)
    if rep is None:
        command.error(f"extensión no reconocida: '{path}'")
    first = selected[0]
    expected = REPRESENTATIONS[first.input_representation]
    if rep is not expected:
        command.error(f"la fase '{first.short_name}' espera un archivo "
                      f"'{expected.extension}', no '{rep.extension}'")
    return CompileConfig(path, tuple(selected), "--mostrar" in values,
                         "--errores-xml" in values)


def run_pipeline(config: CompileConfig) -> int:
    path = config.input_path
    first = config.phases[0]
    input_rep = REPRESENTATIONS[first.input_representation]
    text = read_input(path)
    if text is None:
        return 2

    if input_rep.name == "source":
        payload, source = text, text
    else:
        try:
            payload, source = input_rep.load(text)
        except (XmlParseError, XmlLoadError) as exc:
            print(f"Error: '{path}': {exc}", file=sys.stderr)
            return 2

    diags = []
    last_run = None
    for phase in config.phases:
        if payload is None:
            break
        if phase.needs_error_free and has_errors(diags):
            break
        payload = phase.run(payload, diags)
        last_run = phase

    if source is not None:
        diagnostics.attach_context(diags, source)
    ordered = diagnostics.sort_diagnostics(diags)
    failed = has_errors(ordered)

    if not failed and payload is not None and last_run is not None:
        output_rep = REPRESENTATIONS[last_run.output_representation]
        rendered = output_rep.save(payload, source)
        output_path = path[:-len(input_rep.extension)] \
            + output_rep.extension
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
            sys.stderr.write(xmldoc.serialize_document(
                diagnostics.render_xml(ordered)) + "\n")
    return 1 if failed else 0


def compiler_main(argv=None) -> int:
    return run_pipeline(parse_compiler_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(compiler_main())
