"""The compiler driver and the interpreter front end."""

import errno
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import (DATA, DEEP_TREE_SHAPES, FIB, NESTING_SHAPES, deep_tree,
                    flat_sum, nested, nesting_opener)
from pl0plus.cli import compiler_main, interpreter_main
from pl0plus.compiler import (PHASES, CompileConfig, parse_compiler_args,
                              run_pipeline)
from pl0plus.parser import MAX_NESTING, TOO_DEEP, ast_to_xml
from pl0plus.pvm import parse_interpreter_args
from pl0plus.semantics import revised_to_xml
from pl0plus.xmldoc import parse_document

ECHO = "var x;\nbegin\n    read x;\n    write x;\nend.\n"

MISSING_SEMI = "var x;\nbegin\n    x := 1\n    write x;\nend.\n"

UNDECLARED = "begin y := 1 end.\n"

RUNAWAY = ("var x;\nbegin\n    x := 0;\n    while 1 = 1 do\n"
           "        x := x + 1\nend.\n")

# Seconds a command may take before its test fails instead of stalling
# the suite; one run takes well under a second.
SCRIPT_TIMEOUT = 10


# `compilador errores_lexicos.pl0+`'s standard output, byte for byte.  The
# source has tabs, each one column, and CRLF line ends, which reading the
# file turns into `\n`.
ERRORES_LEXICOS_TEXT = (
    "ERROR*****\nFase de origen:lex\nLínea 3: Caracter inválido.\n"
    "\tque lleva \x01 dentro *)\n-----------^\n"
    "ERROR*****\nFase de origen:lex\nLínea 5: Número demasiado grande\n"
    "\tx := 12345678901;\n------^\n"
    "ERROR*****\nFase de origen:lex\nLínea 6: Caracter inválido.\n"
    "\ty := x +   $ 1;\n------------^\n"
    "ERROR*****\nFase de origen:lex\nLínea 9: Comentario sin cerrar\n"
    "{ sin cerrar   \n^\n")

# `compilador -x errores_programa.pl0+`'s standard error, byte for byte.
ERRORES_PROGRAMA_REPORT = """\
<?xml version="1.0" ?>
<errores_y_advertencias>
  <errores>
    <error columna="10" linea="4">
      <mensaje>Falta un operador</mensaje>
      <contexto><![CDATA[    i := 2 % 4;]]></contexto>
      <fase nombre="sin">Fase de análisis sintáctico</fase>
    </error>
    <error columna="11" linea="4">
      <mensaje>Caracter inválido.</mensaje>
      <contexto><![CDATA[    i := 2 % 4;]]></contexto>
      <fase nombre="lex">Fase de análisis léxico</fase>
    </error>
    <error columna="8" linea="9">
      <mensaje>Referencia a variable no declarada</mensaje>
      <contexto><![CDATA[        f1:=f; i:=i+1;]]></contexto>
      <fase nombre="sem">Fase de análisis semántico</fase>
    </error>
  </errores>
  <advertencias>
    <error columna="18" linea="5">
      <mensaje>Falta un ';'</mensaje>
      <contexto><![CDATA[    f := 9 - i * 2]]></contexto>
      <fase nombre="sin">Fase de análisis sintáctico</fase>
    </error>
  </advertencias>
</errores_y_advertencias>
"""


def config_for(path, *flags):
    return parse_compiler_args([*flags, str(path)])


class TestCompilerArgs:
    def test_defaults_run_every_phase(self):
        config = parse_compiler_args(["programa.pl0+"])
        assert config.phases == PHASES
        assert config.input_path == "programa.pl0+"
        assert not config.show_result
        assert not config.xml_errors

    def test_flags(self):
        config = parse_compiler_args(["-m", "-x", "programa.pl0+"])
        assert config.show_result
        assert config.xml_errors

    def test_single_phase(self):
        config = parse_compiler_args(["--lex", "programa.pl0+"])
        assert [p.short_name for p in config.phases] == ["lex"]

    def test_consecutive_phases(self):
        config = parse_compiler_args(["--sin", "--sem", "arbol.pl0+lex"])
        assert [p.short_name for p in config.phases] == ["sin", "sem"]

    def test_phase_order_comes_from_the_registry(self):
        config = parse_compiler_args(["--sem", "--sin", "arbol.pl0+lex"])
        assert [p.short_name for p in config.phases] == ["sin", "sem"]

    def test_non_consecutive_phases_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_compiler_args(["--lex", "--sem", "programa.pl0+"])
        assert info.value.code == 2
        assert "consecutivas" in capsys.readouterr().err

    def test_unknown_extension_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_compiler_args(["programa.txt"])
        assert info.value.code == 2
        assert "extensión no reconocida" in capsys.readouterr().err

    def test_extension_must_match_first_phase(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_compiler_args(["--sem", "programa.pl0+"])
        assert info.value.code == 2
        assert ".pl0+sin" in capsys.readouterr().err

    def test_longer_extensions_win(self):
        config = parse_compiler_args(["--sin", "lista.pl0+lex"])
        assert [p.short_name for p in config.phases] == ["sin"]

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_compiler_args(["-a"])
        assert info.value.code == 0
        assert "compilador" in capsys.readouterr().out

    def test_input_file_is_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_compiler_args([])
        assert info.value.code == 2


class TestPipeline:
    def test_full_compilation(self, tmp_path, capsys):
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        assert run_pipeline(config_for(source)) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""
        produced = tmp_path / "eco.p+"
        doc = parse_document(produced.read_text(encoding="utf-8"))
        assert doc.root.name == "codigo_pmas"
        assert doc.root.find("fuente").cdata() == ECHO

    def test_unwritable_output(self, tmp_path, capsys):
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        output = tmp_path / "eco.p+"
        output.mkdir()
        assert run_pipeline(config_for(source, "-m")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"Error: no se pudo escribir '{output}': "
                                f"{os.strerror(errno.EISDIR)}\n")

    def test_show_result_prints_the_document(self, tmp_path, capsys):
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        assert run_pipeline(config_for(source, "-m")) == 0
        rendered = capsys.readouterr().out
        assert rendered == (tmp_path / "eco.p+").read_text(encoding="utf-8")

    def test_single_phase_writes_lexemes(self, tmp_path):
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        assert run_pipeline(config_for(source, "--lex")) == 0
        doc = parse_document(
            (tmp_path / "eco.pl0+lex").read_text(encoding="utf-8"))
        assert doc.root.name == "lexemas"

    def test_staged_compilation_matches_direct(self, tmp_path):
        direct = tmp_path / "directo.pl0+"
        direct.write_text(ECHO, encoding="utf-8")
        assert run_pipeline(config_for(direct)) == 0
        staged = tmp_path / "etapas.pl0+"
        staged.write_text(ECHO, encoding="utf-8")
        assert run_pipeline(config_for(staged, "--lex", "--sin")) == 0
        assert run_pipeline(
            config_for(tmp_path / "etapas.pl0+sin", "--sem", "--gen")) == 0
        assert (tmp_path / "etapas.p+").read_text(encoding="utf-8") == \
            (tmp_path / "directo.p+").read_text(encoding="utf-8")

    def test_huge_number_is_clamped(self, tmp_path, capsys):
        source = tmp_path / "enorme.pl0+"
        source.write_text("var x;\nbegin x := " + "9" * 5000 + " end.\n",
                          encoding="utf-8")
        assert run_pipeline(config_for(source)) == 1
        out = capsys.readouterr().out
        assert "Línea 2: Número demasiado grande\n" in out
        assert "\n" + "-" * 11 + "^" in out

    def test_warnings_still_produce_output(self, tmp_path, capsys):
        source = tmp_path / "aviso.pl0+"
        source.write_text(MISSING_SEMI, encoding="utf-8")
        assert run_pipeline(config_for(source, "-x")) == 0
        assert (tmp_path / "aviso.p+").exists()
        captured = capsys.readouterr()
        assert "ADVERTENCIA" in captured.out
        assert "Falta un ';'" in captured.out
        assert "advertencias" in captured.err

    def test_errors_suppress_output(self, tmp_path, capsys):
        source = tmp_path / "malo.pl0+"
        source.write_text(UNDECLARED, encoding="utf-8")
        assert run_pipeline(config_for(source)) == 1
        assert not (tmp_path / "malo.p+").exists()
        captured = capsys.readouterr()
        assert "ERROR" in captured.out
        assert "Referencia a variable no declarada" in captured.out
        assert captured.err == ""

    def test_analysis_errors_stop_a_staged_gen(self, tmp_path, capsys):
        # `gen` runs only on a tree that analysis found no error in.
        source = tmp_path / "malo.pl0+"
        source.write_text(UNDECLARED, encoding="utf-8")
        assert compiler_main(["--lex", "--sin", str(source)]) == 0
        capsys.readouterr()
        assert compiler_main(
            ["--sem", "--gen", str(tmp_path / "malo.pl0+sin")]) == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "malo.pl0+", "malo.pl0+sin"]
        captured = capsys.readouterr()
        assert captured.out == (
            "ERROR*****\nFase de origen:sem\n"
            "Línea 1: Referencia a variable no declarada\n"
            "begin y := 1 end.\n" + "-" * 6 + "^\n")
        assert captured.err == ""

    def test_fault_in_a_var_section_is_one_finding(self, tmp_path, capsys):
        # The names read before the fault stay declared.
        source = tmp_path / "seccion.pl0+"
        source.write_text("var x, y z;\nbegin x := 1; write x end.\n",
                          encoding="utf-8")
        assert compiler_main([str(source)]) == 1
        assert list(tmp_path.iterdir()) == [source]
        assert capsys.readouterr().out == (
            "ERROR*****\nFase de origen:sin\nLínea 1: Se esperaba ';'\n"
            "var x, y z;\n" + "-" * 9 + "^\n")

    def test_superscript_digit_is_an_invalid_character(self, tmp_path,
                                                       capsys):
        source = tmp_path / "cuadrado.pl0+"
        source.write_text("var x; begin x := ² end.", encoding="utf-8")
        assert compiler_main([str(source)]) == 1
        captured = capsys.readouterr()
        assert ("Fase de origen:lex\nLínea 1: Caracter inválido.\n"
                "var x; begin x := ² end.\n" + "-" * 18 + "^\n"
                in captured.out)
        assert captured.err == ""

    @pytest.mark.parametrize("flags", [[], ["--lex"]])
    def test_form_feed_in_a_comment_is_an_invalid_character(
            self, tmp_path, capsys, flags):
        source = tmp_path / "comentario.pl0+"
        source.write_text("var x;\n{ form\x0cfeed }\n"
                          "begin x := 1; write x end.\n", encoding="utf-8")
        assert compiler_main(flags + [str(source)]) == 1
        assert list(tmp_path.iterdir()) == [source]
        assert ("Línea 2: Caracter inválido.\n{ form\x0cfeed }\n"
                "------^\n" in capsys.readouterr().out)

    def test_xml_report_replaces_characters_xml_cannot_carry(self, tmp_path,
                                                             capsys):
        source = tmp_path / "control.pl0+"
        source.write_text("var x;\nbegin x := 1\x01; write x end.\n",
                          encoding="utf-8")
        assert compiler_main(["-x", str(source)]) == 1
        captured = capsys.readouterr()
        (item,) = parse_document(captured.err).root.find("errores").elements()
        assert item.find("contexto").cdata() == \
            "begin x := 1\ufffd; write x end."
        # The text report shows the line as it is.
        assert "begin x := 1\x01; write x end.\n" in captured.out

    def test_xml_report_goes_to_stderr(self, tmp_path, capsys):
        source = tmp_path / "malo.pl0+"
        source.write_text(UNDECLARED, encoding="utf-8")
        assert run_pipeline(config_for(source, "-x")) == 1
        report = parse_document(capsys.readouterr().err)
        assert report.root.name == "errores_y_advertencias"
        (item,) = report.root.find("errores").elements()
        assert item.find("fase").get("nombre") == "sem"

    def test_xml_report_text(self, tmp_path, capsys):
        source = tmp_path / "errores_programa.pl0+"
        shutil.copyfile(DATA / "errores_programa.pl0+", source)
        assert compiler_main(["-x", str(source)]) == 1
        assert capsys.readouterr().err == ERRORES_PROGRAMA_REPORT

    def test_lexical_errors_text(self, tmp_path, capsys):
        # A comment over several lines holding a character XML cannot
        # carry, an 11-digit number, a `$` after spaces, and an unclosed
        # comment over the spaces that end the input.
        source = tmp_path / "errores_lexicos.pl0+"
        shutil.copyfile(DATA / "errores_lexicos.pl0+", source)
        assert b"\r\n\t" in source.read_bytes()
        assert compiler_main([str(source)]) == 1
        assert capsys.readouterr() == (ERRORES_LEXICOS_TEXT, "")
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "errores_lexicos.pl0+"]

    def test_a_lone_carriage_return_ends_a_line(self, tmp_path, capsys):
        source = tmp_path / "retornos.pl0+"
        source.write_bytes(b"var x;\rbegin x := 1; write x end.\r$")
        assert compiler_main([str(source)]) == 1
        assert capsys.readouterr() == (
            "ERROR*****\nFase de origen:lex\nLínea 3: Caracter inválido.\n"
            "$\n^\n", "")

    def test_clean_compilation_emits_no_xml_report(self, tmp_path, capsys):
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        assert run_pipeline(config_for(source, "-x")) == 0
        assert capsys.readouterr().err == ""

    def test_unreadable_input(self, tmp_path, capsys):
        config = CompileConfig(str(tmp_path / "nada.pl0+"), PHASES)
        assert run_pipeline(config) == 2
        assert "no se pudo leer" in capsys.readouterr().err

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        source = tmp_path / "latin.pl0+"
        source.write_bytes(b"\xff\xfevar x;")
        assert run_pipeline(config_for(source)) == 2
        assert capsys.readouterr().err == (
            f"Error: '{source}': no es texto UTF-8: byte 0xff en la "
            f"posición 0\n")

    def test_malformed_intermediate_file(self, tmp_path, capsys):
        bad = tmp_path / "roto.pl0+lex"
        bad.write_text("esto no es XML", encoding="utf-8")
        assert run_pipeline(config_for(bad, "--sin")) == 2
        assert "Error" in capsys.readouterr().err

    @pytest.mark.parametrize("written", ["٧", "+4", " 4", "0_4", "4.0"])
    def test_lexeme_integers_are_ascii_decimal(self, tmp_path, capsys,
                                               written):
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        assert run_pipeline(config_for(source, "--lex")) == 0
        lexemes = tmp_path / "eco.pl0+lex"
        text = lexemes.read_text(encoding="utf-8")
        assert '<IDENTIFICADOR nombre="x" linea="1" columna="4"' in text
        lexemes.write_text(text.replace('columna="4"', f'columna="{written}"',
                                        1), encoding="utf-8")
        assert run_pipeline(config_for(lexemes, "--sin")) == 2
        assert capsys.readouterr().err == (
            f"Error: '{lexemes}': elemento 'IDENTIFICADOR': el atributo "
            f"'columna' no es un entero: '{written}'\n")

    def test_wrong_document_in_right_extension(self, tmp_path, capsys):
        bad = tmp_path / "roto.pl0+sin"
        bad.write_text("<lexemas/>", encoding="utf-8")
        assert run_pipeline(config_for(bad, "--sem")) == 2
        assert "Error" in capsys.readouterr().err

    def test_compiler_main_ties_it_together(self, tmp_path, capsys):
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        assert compiler_main([str(source)]) == 0
        assert (tmp_path / "eco.p+").exists()


COMPILER_USAGE = ("uso: compilador [-a] [-m] [-x] [--lex] [--sin] [--sem] "
                  "[--gen] archivo\n")

INTERPRETER_USAGE = "uso: interprete [-a] [-d] [--max-pasos N] archivo\n"

COMPILER_HELP = COMPILER_USAGE + """
Compilador de pl0+ a código p+ por fases; cada fase lee y escribe una
representación XML documentada.

argumentos:
  archivo            archivo de entrada

opciones:
  -a, --ayuda        muestra esta ayuda y termina
  -m, --mostrar      muestra el resultado final por salida estándar
  -x, --errores-xml  además reporta errores y advertencias como XML por salida
                     de error
  --lex              ejecuta la fase de análisis léxico
  --sin              ejecuta la fase de análisis sintáctico
  --sem              ejecuta la fase de análisis semántico
  --gen              ejecuta la fase de generación de código
"""

INTERPRETER_HELP = INTERPRETER_USAGE + """
Intérprete de código p+ en su representación XML.

argumentos:
  archivo        programa objeto (.p+)

opciones:
  -a, --ayuda    muestra esta ayuda y termina
  -d, --depurar  ejecuta paso a paso mostrando los registros, la instrucción y
                 el tope de la pila
  --max-pasos N  termina con un error en tiempo de ejecución si el programa no
                 se detiene en N pasos
"""

# (command, its argument parser, its usage line, its help text)
COMMANDS = {"compilador": (parse_compiler_args, COMPILER_USAGE, COMPILER_HELP),
            "interprete": (parse_interpreter_args, INTERPRETER_USAGE,
                           INTERPRETER_HELP)}


def refused(capsys, command, argv):
    """The stdout and stderr of a command line that ends the command."""
    with pytest.raises(SystemExit) as info:
        COMMANDS[command][0](argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestCommandLines:
    """Both commands' usage errors and help texts, exactly."""

    @pytest.mark.parametrize("command, argv, message", [
        ("compilador", [], "falta el argumento 'archivo'"),
        ("interprete", [], "falta el argumento 'archivo'"),
        ("interprete", ["-d"], "falta el argumento 'archivo'"),
        ("compilador", ["a.pl0+", "b.pl0+"], "sobra el argumento 'b.pl0+'"),
        ("interprete", ["x.p+", "-d", "y.p+"], "sobra el argumento 'y.p+'"),
        ("compilador", ["-z"], "opción no reconocida: '-z'"),
        ("compilador", ["-z", "a.pl0+"], "opción no reconocida: '-z'"),
        ("interprete", ["x.p+", "--pasos", "5"],
         "opción no reconocida: '--pasos'"),
        # neither prefix abbreviations nor grouped short flags are taken
        ("compilador", ["--mos", "a.pl0+"], "opción no reconocida: '--mos'"),
        ("interprete", ["--max", "5", "x.p+"],
         "opción no reconocida: '--max'"),
        ("compilador", ["-mx", "a.pl0+"], "opción no reconocida: '-mx'"),
        ("compilador", ["--mostrar=1", "a.pl0+"],
         "opción no reconocida: '--mostrar=1'"),
        ("interprete", ["x.p+", "--max-pasos"],
         "la opción --max-pasos requiere un valor"),
        ("interprete", ["--max-pasos", "-1", "x.p+"],
         "opción --max-pasos: no es un número de pasos: '-1'"),
        ("interprete", ["--max-pasos", "x", "x.p+"],
         "opción --max-pasos: no es un número de pasos: 'x'"),
        ("interprete", ["--max-pasos", "", "x.p+"],
         "opción --max-pasos: no es un número de pasos: ''"),
        ("interprete", ["--max-pasos=", "x.p+"],
         "opción --max-pasos: no es un número de pasos: ''"),
        # the value is always the next item, even one that looks like an
        # option or the file
        ("interprete", ["--max-pasos", "-d", "x.p+"],
         "opción --max-pasos: no es un número de pasos: '-d'"),
        ("interprete", ["--max-pasos", "x.p+"],
         "opción --max-pasos: no es un número de pasos: 'x.p+'"),
        # the first fault is the one reported
        ("interprete", ["-z", "--max-pasos", "x", "x.p+", "y.p+"],
         "opción no reconocida: '-z'"),
        ("compilador", ["--lex", "--sem", "programa.pl0+"],
         "las fases solicitadas deben ser consecutivas"),
        ("compilador", ["programa.txt"],
         "extensión no reconocida: 'programa.txt'"),
        ("compilador", ["--sem", "programa.pl0+"],
         "la fase 'sem' espera un archivo '.pl0+sin', no '.pl0+'"),
        # after `--` every item is a file
        ("compilador", ["--", "-a"], "extensión no reconocida: '-a'"),
        ("compilador", ["--", "a.pl0+", "--"], "sobra el argumento '--'"),
    ])
    def test_usage_error(self, capsys, command, argv, message):
        usage = COMMANDS[command][1]
        assert refused(capsys, command, argv) == (
            2, "", f"{usage}{command}: error: {message}\n")

    @pytest.mark.parametrize("argv", [["-a"], ["--ayuda"],
                                      ["programa.pl0+", "-a"],
                                      ["-z", "-a"], ["a.pl0+", "b.pl0+", "-a"],
                                      ["--lex", "--sem", "--ayuda"]])
    def test_compiler_help(self, capsys, argv):
        assert refused(capsys, "compilador", argv) == (0, COMPILER_HELP, "")

    @pytest.mark.parametrize("argv", [["-a"], ["--ayuda"], ["-d", "-a"],
                                      ["--max-pasos", "x", "x.p+", "-a"],
                                      ["x.p+", "y.p+", "--ayuda"]])
    def test_interpreter_help(self, capsys, argv):
        assert refused(capsys, "interprete", argv) == (0, INTERPRETER_HELP,
                                                        "")

    def test_help_is_an_option_only_before_double_dash(self, capsys):
        assert parse_interpreter_args(["--", "-a"]).input_path == "-a"
        assert refused(capsys, "interprete", ["--ayuda=1", "x.p+"]) == (
            2, "", f"{INTERPRETER_USAGE}interprete: error: opción no "
                   f"reconocida: '--ayuda=1'\n")

    def test_max_steps_with_equals(self):
        config = parse_interpreter_args(["--max-pasos=40", "objeto.p+"])
        assert (config.input_path, config.max_steps) == ("objeto.p+", 40)

    def test_file_after_double_dash_may_start_with_a_dash(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-eco.pl0+").write_text(ECHO, encoding="utf-8")
        assert compiler_main(["-m", "--", "-eco.pl0+"]) == 0
        assert (tmp_path / "-eco.p+").exists()
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO("8\n"))
        assert interpreter_main(["--", "-eco.p+"]) == 0
        assert capsys.readouterr() == ("8\n", "")

    def test_options_after_the_file(self):
        config = parse_compiler_args(["programa.pl0+", "--lex", "-m", "-x"])
        assert [p.short_name for p in config.phases] == ["lex"]
        assert (config.input_path, config.show_result, config.xml_errors) == (
            "programa.pl0+", True, True)
        config = parse_interpreter_args(["objeto.p+", "-d", "--max-pasos",
                                         "7"])
        assert (config.input_path, config.debug, config.max_steps) == (
            "objeto.p+", True, 7)

    def test_long_forms(self):
        config = parse_compiler_args(["--mostrar", "--errores-xml",
                                      "programa.pl0+"])
        assert config.show_result and config.xml_errors
        assert parse_interpreter_args(["--depurar", "objeto.p+"]).debug

    def test_dash_alone_is_a_file(self):
        assert parse_interpreter_args(["-"]).input_path == "-"


def compiled_file(tmp_path, source_text, name="programa"):
    source = tmp_path / f"{name}.pl0+"
    source.write_text(source_text, encoding="utf-8")
    assert run_pipeline(config_for(source)) == 0
    return tmp_path / f"{name}.p+"


class TestInterpreter:
    def test_args_defaults(self):
        config = parse_interpreter_args(["objeto.p+"])
        assert config.input_path == "objeto.p+"
        assert not config.debug

    def test_args_debug(self):
        assert parse_interpreter_args(["-d", "objeto.p+"]).debug

    def test_args_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_interpreter_args(["-a"])
        assert info.value.code == 0
        assert "interprete" in capsys.readouterr().out

    def test_runs_a_compiled_program(self, tmp_path, capsys, monkeypatch):
        target = compiled_file(tmp_path, ECHO)
        monkeypatch.setattr(sys, "stdin", io.StringIO("10\n"))
        assert interpreter_main([str(target)]) == 0
        assert capsys.readouterr().out == "10\n"

    def test_missing_file(self, capsys, tmp_path):
        assert interpreter_main([str(tmp_path / "nada.p+")]) == 2
        assert "no se pudo leer" in capsys.readouterr().err

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        target = tmp_path / "latin.p+"
        target.write_bytes("<codigo_pmas/>".encode("utf-8") + b"\xe9")
        assert interpreter_main([str(target)]) == 2
        assert capsys.readouterr().err == (
            f"Error: '{target}': no es texto UTF-8: byte 0xe9 en la "
            f"posición 14\n")

    def test_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "roto.p+"
        bad.write_text("<codigo_pmas><bailar/></codigo_pmas>",
                       encoding="utf-8")
        assert interpreter_main([str(bad)]) == 2
        assert "Error" in capsys.readouterr().err

    @pytest.mark.parametrize("written", [
        "0_1", "+1", "1 ", "١", "",
        pytest.param("1" * 5000, id="more-digits-than-int-converts")])
    def test_integer_attributes_are_ascii_decimal(self, tmp_path, capsys,
                                                  written):
        target = compiled_file(tmp_path, ECHO)
        text = target.read_text(encoding="utf-8")
        assert '<instanciar_procedimiento direccion="1"' in text
        target.write_text(text.replace('direccion="1"',
                                       f'direccion="{written}"'),
                          encoding="utf-8")
        assert interpreter_main([str(target)]) == 2
        assert capsys.readouterr().err == (
            f"Error: '{target}': elemento 'instanciar_procedimiento': el "
            f"atributo 'direccion' no es un entero: '{written}'\n")

    def test_runtime_error_exits_with_one(self, tmp_path, capsys,
                                          monkeypatch):
        target = compiled_file(
            tmp_path, "var x, y;\nbegin read x; y := y / x; end.\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("0\n"))
        assert interpreter_main([str(target)]) == 1
        assert "Error en tiempo de ejecución" in capsys.readouterr().err

    def test_args_max_steps(self):
        assert parse_interpreter_args(["objeto.p+"]).max_steps is None
        assert parse_interpreter_args(
            ["--max-pasos", "40", "objeto.p+"]).max_steps == 40

    @pytest.mark.parametrize("count", ["-1", "x", ""])
    def test_args_max_steps_must_be_a_count(self, count, capsys):
        with pytest.raises(SystemExit) as info:
            parse_interpreter_args(["--max-pasos", count, "objeto.p+"])
        assert info.value.code == 2
        assert "no es un número de pasos" in capsys.readouterr().err

    def test_max_steps_stops_a_runaway_loop(self, tmp_path, capsys):
        target = compiled_file(tmp_path, RUNAWAY)
        assert interpreter_main(["--max-pasos", "40", str(target)]) == 1
        assert capsys.readouterr().err == (
            "Error en tiempo de ejecución: Límite de pasos alcanzado "
            "(dirección 4, línea 4)\n")

    def test_runtime_error_names_the_source_line(self, tmp_path, capsys,
                                                 monkeypatch):
        target = compiled_file(
            tmp_path, "var x, y;\nbegin read x; y := y / x; end.\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("0\n"))
        assert interpreter_main([str(target)]) == 1
        assert capsys.readouterr().err == (
            "Error en tiempo de ejecución: División por cero "
            "(dirección 6, línea 2)\n")

    @pytest.mark.parametrize("source, stdin, status, out, err", [
        pytest.param("var x; begin x := x / 0 end.\n", "", 1, "",
                     "Error en tiempo de ejecución: División por cero "
                     "(dirección 4, línea 1)\n", id="runtime-error"),
        pytest.param(ECHO, "12\n", 0, "12\n", "", id="echo")])
    def test_python_dash_m_runs_interprete(self, tmp_path, source, stdin,
                                           status, out, err):
        target = compiled_file(tmp_path, source)
        result = subprocess.run(
            [sys.executable, "-m", "pl0plus.pvm", str(target)], input=stdin,
            capture_output=True, text=True, timeout=SCRIPT_TIMEOUT,
            cwd=Path(__file__).resolve().parents[1] / "src")
        assert (result.returncode, result.stdout, result.stderr) == (
            status, out, err)

    def test_python_dash_m_takes_a_step_limit_of_any_length(self,
                                                            tmp_path):
        target = compiled_file(tmp_path, FIB.read_text(encoding="utf-8"))
        result = subprocess.run(
            [sys.executable, "-m", "pl0plus.pvm", "--max-pasos",
             "99999999999999999999", str(target)], input="10\n",
            capture_output=True, text=True, timeout=SCRIPT_TIMEOUT,
            cwd=Path(__file__).resolve().parents[1] / "src")
        assert (result.returncode, result.stdout, result.stderr) == (
            0, "1\n1\n2\n3\n5\n8\n13\n21\n34\n55\n89\n", "")

    def test_debug_traces_to_stderr(self, tmp_path, capsys, monkeypatch):
        target = compiled_file(tmp_path, "begin end.\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n" * 10))
        assert interpreter_main(["-d", str(target)]) == 0
        err = capsys.readouterr().err
        assert "p=0 b=0 t=-1" in err
        assert "pila:" in err


# A program that writes numbers without end, and one whose `.p+` is far
# larger than a pipe's buffer.
ENDLESS_WRITES = ("var x;\nbegin\n    x := 0;\n    while 1 = 1 do\n"
                  "    begin\n        write x;\n        x := x + 1\n"
                  "    end\nend.\n")
LONG_PROGRAM = ("var x;\nbegin\n    x := 1" + ";\n    write x" * 6000
                + "\nend.\n")


def started(argv: list, **streams) -> subprocess.Popen:
    """`python -m` of a command's module, run from `src/`."""
    return subprocess.Popen(
        [sys.executable, "-m", *argv], text=True, stderr=subprocess.PIPE,
        cwd=Path(__file__).resolve().parents[1] / "src", **streams)


class TestHowACommandEnds:
    """A closed pipe, a full disk and an interrupt end a command with
    status 2 and one line on stderr, never a traceback."""

    @pytest.mark.parametrize("module, flags, source, first", [
        ("pl0plus.pvm", [], ENDLESS_WRITES, "0\n"),
        ("pl0plus.compiler", ["-m"], LONG_PROGRAM,
         '<?xml version="1.0" ?>\n')])
    def test_output_into_a_closed_pipe(self, tmp_path, module, flags,
                                       source, first):
        # As `... | head -1`: the reader takes one line and goes.
        target = compiled_file(tmp_path, source)
        if module == "pl0plus.compiler":
            target = target.with_suffix(".pl0+")
        process = started([module, *flags, str(target)],
                          stdout=subprocess.PIPE)
        assert process.stdout.readline() == first
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=SCRIPT_TIMEOUT) == 2
        assert err == ("Error: no se pudo escribir en la salida estándar: "
                       f"{os.strerror(errno.EPIPE)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full here")
    @pytest.mark.parametrize("module", ["pl0plus.pvm", "pl0plus.compiler"])
    def test_output_onto_a_full_disk(self, tmp_path, module):
        target = compiled_file(tmp_path, ECHO)
        flags = ["-m", str(target.with_suffix(".pl0+"))] \
            if module == "pl0plus.compiler" else [str(target)]
        with open("/dev/full", "w", encoding="utf-8") as full:
            process = started([module, *flags], stdout=full,
                              stdin=subprocess.PIPE)
            _, err = process.communicate("7\n", timeout=SCRIPT_TIMEOUT)
        assert process.returncode == 2
        assert err == ("Error: no se pudo escribir en la salida estándar: "
                       f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="no SIGINT to send here")
    def test_interrupt(self, tmp_path):
        import signal
        target = compiled_file(tmp_path, ENDLESS_WRITES)
        process = started(["pl0plus.pvm", str(target)],
                          stdout=subprocess.PIPE)
        assert process.stdout.readline() == "0\n"  # the machine runs
        process.send_signal(signal.SIGINT)
        _, err = process.communicate(timeout=SCRIPT_TIMEOUT)
        assert process.returncode == 2
        assert err == "Error: ejecución interrumpida\n"


class TestFlatSums:
    """A flat sum is a left spine as deep as it has terms: no phase, XML
    writer or XML reader may hit Python's recursion limit on it."""

    @pytest.mark.parametrize("terms", [1000, 10000])
    def test_compiles_and_runs(self, tmp_path, capsys, terms):
        target = compiled_file(tmp_path, flat_sum(terms))
        capsys.readouterr()
        assert interpreter_main([str(target)]) == 0
        assert capsys.readouterr().out == f"{terms}\n"

    @pytest.mark.parametrize("terms", [1000, 10000])
    def test_staged_compilation_matches_direct(self, tmp_path, capsys,
                                               terms):
        direct = compiled_file(tmp_path, flat_sum(terms), "directo")
        (tmp_path / "etapas.pl0+").write_text(flat_sum(terms),
                                               encoding="utf-8")
        for flag, extension in (("--lex", ".pl0+"), ("--sin", ".pl0+lex"),
                                ("--sem", ".pl0+sin"), ("--gen", ".pl0+sem")):
            path = tmp_path / f"etapas{extension}"
            assert run_pipeline(config_for(path, flag)) == 0, flag
        assert (tmp_path / "etapas.p+").read_bytes() == direct.read_bytes()
        # Tree documents indent at most 32 levels deep, so they grow
        # linearly with the terms (indenting by the full depth made each
        # 10,000-term tree 301 MB).
        for document in tmp_path.glob("etapas.*"):
            assert document.stat().st_size < 5_000_000, document.name
        capsys.readouterr()
        assert interpreter_main([str(tmp_path / "etapas.p+")]) == 0
        assert capsys.readouterr().out == f"{terms}\n"


class TestNesting:
    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_the_limit_compiles_and_runs(self, tmp_path, capsys, shape):
        target = compiled_file(tmp_path, nested(shape, MAX_NESTING))
        capsys.readouterr()
        assert interpreter_main([str(target)]) == 0
        assert capsys.readouterr().out == "1\n"

    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_the_limit_compiles_staged(self, tmp_path, shape):
        (tmp_path / "etapas.pl0+").write_text(nested(shape, MAX_NESTING),
                                               encoding="utf-8")
        for flag, extension in (("--lex", ".pl0+"), ("--sin", ".pl0+lex"),
                                ("--sem", ".pl0+sin"), ("--gen", ".pl0+sem")):
            path = tmp_path / f"etapas{extension}"
            assert run_pipeline(config_for(path, flag)) == 0, flag

    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_past_the_limit_is_a_diagnostic(self, tmp_path, capsys, shape):
        source = tmp_path / "hondo.pl0+"
        source.write_text(nested(shape, MAX_NESTING + 1), encoding="utf-8")
        assert run_pipeline(config_for(source)) == 1
        assert not (tmp_path / "hondo.p+").exists()
        line, _ = nesting_opener(shape, MAX_NESTING + 1)
        assert f"Línea {line}: {TOO_DEEP}" in capsys.readouterr().out

    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 1000,
                                       5000])
    @pytest.mark.parametrize("shape", DEEP_TREE_SHAPES)
    @pytest.mark.parametrize("extension, flags", [(".pl0+sin", ["--sem",
                                                                "--gen"]),
                                                  (".pl0+sem", ["--gen"])])
    def test_deep_tree_documents(self, tmp_path, capsys, extension, flags,
                                 shape, depth):
        # A hand-written tree document may nest deeper than any source the
        # parser takes; its reader holds it to the parser's limit.
        tree = deep_tree(shape, depth)
        path = tmp_path / f"hondo{extension}"
        path.write_text(revised_to_xml(tree) if extension == ".pl0+sem"
                        else ast_to_xml(tree), encoding="utf-8")
        status = compiler_main([*flags, str(path)])
        err = capsys.readouterr().err
        if depth <= MAX_NESTING:
            assert (status, err) == (0, "")
            assert (tmp_path / "hondo.p+").exists()
        else:
            # the element at level MAX_NESTING + 1 is the last one
            name = "escribir" if depth == MAX_NESTING + 1 else shape
            assert status == 2
            assert err == (f"Error: '{path}': elemento '{name}': "
                           f"anidamiento de más de {MAX_NESTING} niveles\n")


@pytest.mark.usefixtures("installed_scripts")
class TestInstalledScripts:
    def test_compilador_round_trip(self, tmp_path):
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        compile_run = subprocess.run(["compilador", str(source)],
                                     capture_output=True, text=True,
                                     timeout=SCRIPT_TIMEOUT)
        assert compile_run.returncode == 0, compile_run.stderr
        execute = subprocess.run(["interprete", str(tmp_path / "eco.p+")],
                                 input="37\n", capture_output=True, text=True,
                                 timeout=SCRIPT_TIMEOUT)
        assert execute.returncode == 0, execute.stderr
        assert execute.stdout == "37\n"

    def test_compilador_reports_errors(self, tmp_path):
        source = tmp_path / "malo.pl0+"
        source.write_text(UNDECLARED, encoding="utf-8")
        result = subprocess.run(["compilador", str(source)],
                                capture_output=True, text=True,
                                timeout=SCRIPT_TIMEOUT)
        assert result.returncode == 1
        assert "ERROR" in result.stdout

    @staticmethod
    def run_with_module_report(tmp_path, argv, stdin="", flags=()):
        """Run the [project.scripts] command argv[0] with Python's `flags`;
        return the finished process and the sorted names in its
        sys.modules at exit.  The probe runs the command's script with
        exec, since runpy would load typing itself (through pkgutil), and
        imports json only once the names are taken."""
        report = tmp_path / "modulos.json"
        probe = "\n".join([
            "import atexit, sys",
            "def report():",
            "    names = sorted(sys.modules)",
            "    import json",
            f"    with open({str(report)!r}, 'w') as out:",
            "        json.dump(names, out)",
            "atexit.register(report)",
            f"sys.argv = {[shutil.which(argv[0]), *argv[1:]]!r}",
            "with open(sys.argv[0], encoding='utf-8') as script:",
            "    code = compile(script.read(), sys.argv[0], 'exec')",
            "exec(code, {'__name__': '__main__'})"])
        result = subprocess.run([sys.executable, *flags, "-c", probe],
                                input=stdin, capture_output=True, text=True,
                                timeout=SCRIPT_TIMEOUT)
        return result, json.loads(report.read_text(encoding="utf-8"))

    @staticmethod
    def outside_the_standard_library(modules):
        """The names in `modules` that are neither pl0plus's nor in the
        standard library; `__main__` is the command's own script."""
        return [name for name in modules
                if name.partition(".")[0] not in sys.stdlib_module_names
                and name.partition(".")[0] not in ("pl0plus", "__main__")]

    def test_interprete_loads_only_the_machine(self, tmp_path):
        # Running a .p+ through the [project.scripts] target loads the
        # command-line plumbing, the p+ format and the machine: no
        # compiler phase, no dataclasses and no argparse.
        target = compiled_file(tmp_path, ECHO)
        result, modules = self.run_with_module_report(
            tmp_path, ["interprete", str(target)], stdin="5\n", flags=["-S"])
        assert result.returncode == 0, result.stderr
        assert result.stdout == "5\n"
        assert [name for name in modules if name.startswith("pl0plus")] == [
            "pl0plus", "pl0plus.command", "pl0plus.pcode", "pl0plus.pvm",
            "pl0plus.xmldoc"]
        for heavy in ("dataclasses", "argparse", "locale"):
            assert heavy not in modules
        assert self.outside_the_standard_library(modules) == []

    def test_compilador_loads_no_heavy_stdlib(self, tmp_path):
        # A compile loads no dataclasses, inspect, typing or pathlib, no
        # argparse with its gettext and locale, and not the machine, nor
        # `cli`, which loads it.  Under -S, site's own imports (which load
        # typing and pathlib on some installs) cannot hide one that the
        # compiler brings in.
        source = tmp_path / "eco.pl0+"
        source.write_text(ECHO, encoding="utf-8")
        result, modules = self.run_with_module_report(
            tmp_path, ["compilador", str(source)], flags=["-S"])
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "eco.p+").exists()
        assert [name for name in modules if name.startswith("pl0plus")] == [
            "pl0plus", "pl0plus.codegen", "pl0plus.command",
            "pl0plus.compiler", "pl0plus.diagnostics", "pl0plus.lexer",
            "pl0plus.parser", "pl0plus.pcode", "pl0plus.semantics",
            "pl0plus.xmldoc"]
        for heavy in ("dataclasses", "inspect", "typing", "pathlib",
                      "argparse", "gettext", "locale"):
            assert heavy not in modules
        assert self.outside_the_standard_library(modules) == []

    def test_cli_loads_both_commands(self):
        # `import pl0plus.cli` is the whole package's start-up: every
        # layer, the machine included, and still no argparse.
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                 "import pl0plus.cli; print(' '.join(sorted(name for name "
                 "in sys.modules if name.startswith(('pl0plus', "
                 "'argparse')))))")
        result = subprocess.run([sys.executable, "-S", "-c", probe],
                                capture_output=True, text=True,
                                timeout=SCRIPT_TIMEOUT)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "pl0plus", "pl0plus.cli", "pl0plus.codegen", "pl0plus.command",
            "pl0plus.compiler", "pl0plus.diagnostics", "pl0plus.lexer",
            "pl0plus.parser", "pl0plus.pcode", "pl0plus.pvm",
            "pl0plus.semantics", "pl0plus.xmldoc"]

    def test_codegen_loads_no_semantic_phase(self):
        # The revised tree is all the generator reads: it needs no symbol
        # table, so `import pl0plus.codegen` leaves `semantics` unloaded.
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                 "import pl0plus.codegen; print(' '.join(sorted(name for "
                 "name in sys.modules if name.startswith('pl0plus'))))")
        result = subprocess.run([sys.executable, "-S", "-c", probe],
                                capture_output=True, text=True,
                                timeout=SCRIPT_TIMEOUT)
        assert result.returncode == 0, result.stderr
        assert "pl0plus.codegen" in result.stdout.split()
        assert "pl0plus.semantics" not in result.stdout.split()

    def test_interprete_takes_only_ascii_integers(self, tmp_path):
        # int() would take "0_1" as 1 and "٤" as 4.
        target = compiled_file(tmp_path, ECHO)
        read = subprocess.run(["interprete", str(target)], input="0_1\n",
                              capture_output=True, text=True,
                              timeout=SCRIPT_TIMEOUT)
        assert read.returncode == 1
        assert read.stdout == ""
        assert read.stderr.startswith(
            "Error en tiempo de ejecución: Entrada inválida")
        steps = subprocess.run(["interprete", "--max-pasos", "٤", str(target)],
                               input="5\n", capture_output=True, text=True,
                               timeout=SCRIPT_TIMEOUT)
        assert steps.returncode == 2
        assert steps.stdout == ""
        assert "no es un número de pasos: '٤'" in steps.stderr

    def test_interprete_max_pasos_ends_a_runaway_loop(self, tmp_path):
        source = tmp_path / "bucle.pl0+"
        source.write_text(RUNAWAY, encoding="utf-8")
        subprocess.run(["compilador", str(source)], check=True,
                       capture_output=True, timeout=SCRIPT_TIMEOUT)
        result = subprocess.run(["interprete", "--max-pasos", "100000",
                                 str(tmp_path / "bucle.p+")],
                                capture_output=True, text=True,
                                timeout=SCRIPT_TIMEOUT)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Límite de pasos alcanzado" in result.stderr
