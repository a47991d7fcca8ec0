"""The entry functions of both commands, in one import.

For programs that drive the commands in-process, such as perfbench and
the tests: `compiler_main` is `compilador`'s, from `compiler`, and
`interpreter_main` is `interprete`'s, from `pvm`.  Importing this module
loads every layer, so its import time is the whole package's.  The
console scripts do not start here: each points at its own command's
module, so `compilador` never loads the machine and `interprete` never
loads a compiler phase.
"""

from .compiler import compiler_main  # noqa: F401
from .pvm import interpreter_main  # noqa: F401
