"""A modular compiler for the pl0+ language and an interpreter for its
p+ stack-machine code.

Every phase reads and writes a documented XML representation, so the
pipeline can be stopped, inspected, edited and resumed at any phase
boundary:

    source (.pl0+) -> lexemes (.pl0+lex) -> syntax tree (.pl0+sin)
        -> revised tree (.pl0+sem) -> p+ object code (.p+)

The `compilador` entry point drives the phases; `interprete` executes
`.p+` files.
"""

__version__ = "0.1.0"
