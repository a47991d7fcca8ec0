"""What the `compilador` and `interprete` commands share: reading the input
file, a small table-driven parser for their command lines, and how a
command ends.

A command line holds options and exactly one `archivo`, in any order; `--`
ends the options.  The help text is fixed, so it does not depend on the
terminal's width, and every message is Spanish.  A usage error prints the
usage line and the message to stderr and exits with status 2.
"""

from __future__ import annotations

import errno
import os
import sys


class _ClosedOutput:
    """Standard output for a process started with it closed, where Python
    leaves `sys.stdout` None: a write fails as one to a closed descriptor
    does, and a run that writes nothing is not disturbed."""

    def write(self, text: str):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self) -> None:
        pass


def guard(action) -> int:
    """`action()`'s exit status, with standard output flushed.  A failed
    write to it, as to a closed pipe, a full disk or a closed descriptor,
    or an interrupt ends the command with status 2 and one line on stderr,
    not a traceback."""
    if sys.stdout is None:
        sys.stdout = _ClosedOutput()
    try:
        try:
            return action()
        finally:
            sys.stdout.flush()
    except KeyboardInterrupt:
        message = "ejecución interrumpida"
    except OSError as exc:
        if not isinstance(sys.stdout, _ClosedOutput):
            # So that the flush at exit fails no more (the `signal`
            # module's note on SIGPIPE).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message = ("no se pudo escribir en la salida estándar: "
                   f"{exc.strerror or exc}")
    print(f"Error: {message}", file=sys.stderr)
    return 2


def read_input(path: str) -> str | None:
    """The text of a UTF-8 input file, or None after reporting to stderr
    why it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"Error: no se pudo leer '{path}': {exc.strerror or exc}",
              file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"Error: '{path}': no es texto UTF-8: byte "
              f"0x{exc.object[exc.start]:02x} en la posición {exc.start}",
              file=sys.stderr)
    return None


class Option:
    """A flag, or with `metavar` an option that takes a value: the next
    item, whatever it looks like, or the text after `=` in `--name=value`.
    `convert` turns the value's text into the value, or raises ValueError
    with the message to report."""

    __slots__ = ("names", "help", "metavar", "convert")

    def __init__(self, names: tuple, help: str, metavar: str | None = None,
                 convert=None):
        self.names = names
        self.help = help
        self.metavar = metavar
        self.convert = convert


HELP = Option(("-a", "--ayuda"), "muestra esta ayuda y termina")

_WIDTH = 78  # of the help text's lines


class Command:
    def __init__(self, prog: str, description: str, options: list,
                 file_help: str):
        self.prog = prog
        self.description = description
        self.options = [HELP, *options]
        self.file_help = file_help

    def usage(self) -> str:
        return " ".join(
            ["uso:", self.prog]
            + [f"[{option.names[0]}"
               + (f" {option.metavar}]" if option.metavar else "]")
               for option in self.options]
            + ["archivo"])

    def help(self) -> str:
        from textwrap import fill

        rows = [(", ".join(option.names)
                 + (f" {option.metavar}" if option.metavar else ""),
                 option.help) for option in self.options]
        column = 4 + max(len(label) for label, _ in rows)

        def entry(label, text):
            return fill(text, _WIDTH,
                        initial_indent=f"  {label}".ljust(column),
                        subsequent_indent=" " * column)

        return "\n".join([
            self.usage(), "", fill(self.description, _WIDTH), "",
            "argumentos:", entry("archivo", self.file_help), "",
            "opciones:", *[entry(label, text) for label, text in rows]]) + "\n"

    def error(self, message: str):
        sys.stderr.write(f"{self.usage()}\n{self.prog}: error: {message}\n")
        sys.exit(2)

    def parse(self, argv=None) -> tuple[dict, str]:
        """The values given, keyed by each option's last name (True for a
        flag), and the `archivo`.  `-a` prints the help and exits wherever
        it is; otherwise the first fault found is reported."""
        named = {name: option for option in self.options
                 for name in option.names}
        values = {}
        files = []
        fault = None
        items = iter(sys.argv[1:] if argv is None else argv)
        for item in items:
            if item == "--":
                files += items
                break
            if item == "-" or not item.startswith("-"):
                files.append(item)
                continue
            name, equals, value = item.partition("=")
            option = named.get(name if item.startswith("--") else item)
            if option is HELP and not equals:
                sys.stdout.write(self.help())
                sys.exit(0)
            if option is None or (equals and option.metavar is None):
                fault = fault or f"opción no reconocida: '{item}'"
            elif option.metavar is None:
                values[option.names[-1]] = True
            else:
                if not equals:
                    value = next(items, None)
                    if value is None:
                        fault = fault or f"la opción {name} requiere un valor"
                        continue
                try:
                    values[option.names[-1]] = option.convert(value)
                except ValueError as exc:
                    fault = fault or f"opción {name}: {exc}"
        if fault is None and len(files) != 1:
            fault = ("falta el argumento 'archivo'" if not files
                     else f"sobra el argumento '{files[1]}'")
        if fault is not None:
            self.error(fault)
        return values, files[0]
