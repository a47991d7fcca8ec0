"""The `compilador` command, and the `interprete` entry points from `pvm`.

The compiler is a pipeline over four phases.  Each phase is described by
a PhaseDescriptor naming the representation it consumes and the one it
produces; the driver validates that the requested phases are consecutive,
that the input file's extension matches the first phase, and writes the
last phase's XML next to the input with the new extension.  Adding a
phase means adding a descriptor, not editing the driver.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import codegen, lexer, parser, semantics
from .diagnostics import (PHASE_DESCRIPTIONS, attach_context, has_errors,
                          render_text, render_xml, sort_diagnostics)
# The interpreter lives in pvm, so that `interprete` loads no compiler
# phase; these names keep it reachable from here as well.
from .pvm import (interpreter_main, parse_interpreter_args,  # noqa: F401
                  read_input)
from .xmldoc import (XmlLoadError, XmlParseError, parse_document,
                     serialize_document)


@dataclass(frozen=True)
class Representation:
    name: str
    extension: str
    load: object = None   # XmlDocument -> (payload, source or None)
    save: object = None   # (payload, source or None) -> XmlDocument


def _load_lexemes(doc):
    return lexer.tokens_from_xml(doc)


def _save_lexemes(tokens, source):
    return lexer.tokens_to_xml(tokens, source)


def _load_tree(doc):
    return parser.ast_from_xml(doc)


def _save_tree(ast, source):
    return parser.ast_to_xml(ast, source)


def _load_revised(doc):
    revised, table, source = semantics.revised_from_xml(doc)
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


@dataclass(frozen=True)
class PhaseDescriptor:
    short_name: str
    description: str
    input_representation: str
    output_representation: str
    run: object            # (payload, diagnostics) -> payload or None
    needs_error_free: bool = False


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


@dataclass
class CompileConfig:
    input_path: str
    phases: tuple
    show_result: bool = False
    xml_errors: bool = False


def _match_extension(path: str) -> Representation | None:
    candidates = sorted(REPRESENTATIONS.values(),
                        key=lambda rep: len(rep.extension), reverse=True)
    for rep in candidates:
        if path.endswith(rep.extension):
            return rep
    return None


def parse_compiler_args(argv=None, registry=PHASES) -> CompileConfig:
    prog = argparse.ArgumentParser(
        prog="compilador", add_help=False,
        description="Compilador de pl0+ a código p+ por fases; cada fase "
                    "lee y escribe una representación XML documentada.")
    prog.add_argument("-a", "--ayuda", action="help",
                      help="muestra esta ayuda y termina")
    prog.add_argument("-m", "--mostrar", action="store_true",
                      help="muestra el resultado final por salida estándar")
    prog.add_argument("-x", "--errores-xml", dest="errores_xml",
                      action="store_true",
                      help="además reporta errores y advertencias como XML "
                           "por salida de error")
    for phase in registry:
        prog.add_argument(f"--{phase.short_name}", action="store_true",
                          help="ejecuta la " + phase.description[0].lower()
                               + phase.description[1:])
    prog.add_argument("archivo", help="archivo de entrada")
    namespace = prog.parse_args(argv)

    selected = [phase for phase in registry
                if getattr(namespace, phase.short_name)]
    if not selected:
        selected = list(registry)
    indices = [registry.index(phase) for phase in selected]
    if indices != list(range(indices[0], indices[-1] + 1)):
        prog.error("las fases solicitadas deben ser consecutivas")

    rep = _match_extension(namespace.archivo)
    if rep is None:
        prog.error(f"extensión no reconocida: '{namespace.archivo}'")
    first = selected[0]
    expected = REPRESENTATIONS[first.input_representation]
    if rep is not expected:
        prog.error(f"la fase '{first.short_name}' espera un archivo "
                   f"'{expected.extension}', no '{rep.extension}'")
    return CompileConfig(namespace.archivo, tuple(selected),
                         namespace.mostrar, namespace.errores_xml)


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
            payload, source = input_rep.load(parse_document(text))
        except (XmlParseError, XmlLoadError) as exc:
            print(f"Error: '{path}': {exc}", file=sys.stderr)
            return 2

    diagnostics = []
    last_run = None
    for phase in config.phases:
        if payload is None:
            break
        if phase.needs_error_free and has_errors(diagnostics):
            break
        payload = phase.run(payload, diagnostics)
        last_run = phase

    if source is not None:
        attach_context(diagnostics, source)
    ordered = sort_diagnostics(diagnostics)
    failed = has_errors(ordered)

    if not failed and payload is not None and last_run is not None:
        output_rep = REPRESENTATIONS[last_run.output_representation]
        rendered = serialize_document(output_rep.save(payload, source))
        output_path = path[:-len(input_rep.extension)] \
            + output_rep.extension
        try:
            Path(output_path).write_text(rendered + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"Error: no se pudo escribir '{output_path}': "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
        if config.show_result:
            print(rendered)

    if ordered:
        sys.stdout.write(render_text(ordered))
        if config.xml_errors:
            sys.stderr.write(serialize_document(render_xml(ordered)) + "\n")
    return 1 if failed else 0


def compiler_main(argv=None) -> int:
    return run_pipeline(parse_compiler_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(compiler_main())
