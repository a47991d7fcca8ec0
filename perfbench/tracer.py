"""Spans around the public functions of the pl0plus modules.

`Tracer.install()` replaces each traced function at every module
attribute that holds it, including names bound by `from ... import` such
as `cli.parse_document` or `pvm.program_from_xml`, so spans follow the
path the entry functions really take.  Spans stay in memory with an op id
and a parent; each garbage-collector pause, seen through `gc.callbacks`,
is charged to the innermost open span and kept out of its self time.
"""

from __future__ import annotations

import gc
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("lexer", "parser", "semantics", "codegen", "xmldoc", "pvm",
          "cli", "diagnostics")

TRACED = {
    "lexer": ("tokenize", "tokens_to_xml", "tokens_from_xml"),
    "parser": ("parse", "ast_to_xml", "ast_from_xml"),
    "semantics": ("analyze", "revised_to_xml", "revised_from_xml",
                  "rebuild_symbol_table"),
    "codegen": ("generate", "program_to_xml", "program_from_xml"),
    "xmldoc": ("parse_document", "serialize_document"),
    "pvm": ("load", "run"),
    "diagnostics": ("attach_context", "sort_diagnostics", "render_text",
                    "render_xml"),
    "cli": ("compiler_main", "interpreter_main"),
}


class Span:
    __slots__ = ("op", "sid", "parent", "name", "layer", "start", "end",
                 "child", "gc")

    def __init__(self, op, sid, parent, name, layer):
        self.op, self.sid, self.parent = op, sid, parent
        self.name, self.layer = name, layer
        self.start = self.end = self.child = self.gc = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child - self.gc

    def as_dict(self) -> dict:
        return {"op": self.op, "id": self.sid, "parent": self.parent,
                "name": self.name, "start": self.start, "end": self.end,
                "self_s": self.self_s, "gc_s": self.gc}


def _metric_name(layer: str, function: str) -> str:
    # every cli function is glue around the layers: it counts as cli.self_s
    return "cli.self_s" if layer == "cli" else f"{layer}.{function}_s"


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"pl0plus.{layer}")
                        for layer in LAYERS}
        self.spans: list[Span] = []
        self.by_op: dict[int, list[Span]] = defaultdict(list)
        self.stack: list[Span] = []
        self.roots: list[Span] = []
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        self.gen2: dict[int, int] = defaultdict(int)
        self.op = 0
        self._patches = []
        self._gc_start = 0.0

    # -- spans

    def _open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(self.op, len(self.spans), parent, name, layer)
        self.spans.append(span)
        self.by_op[self.op].append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.end - span.start

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self.stack:
            self.stack[-1].gc += time.perf_counter() - self._gc_start
            if info["generation"] == 2:
                self.gen2[self.op] += 1

    @contextmanager
    def op_span(self):
        """Open the root span of one operation, around its timed region."""
        self.op += 1
        root = self._open("cli.self_s", "cli")
        self.roots.append(root)
        try:
            yield root
        finally:
            self._close(root)

    def count(self, name: str, value: int) -> None:
        self.counts[self.op][name] += value

    # -- patching

    def _wrap(self, layer: str, function: str, original):
        name = _metric_name(layer, function)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if function == "serialize_document":
                span_name = f"{name}.{args[0].root.name}"
            span = tracer._open(span_name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if function == "parse_document":
                span.name = f"{name}.{result.root.name}"
            elif function == "tokenize":
                tracer.count("lexer.tokens", len(result[0]))
            elif function == "generate" and result[0] is not None:
                tracer.count("codegen.instructions",
                             len(result[0].instructions))
            elif function == "render_text":
                tracer.count("diagnostics.count", len(args[0]))
            elif function == "run":
                tracer.count("pvm.stack_cells", len(args[0].stack))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, functions in TRACED.items():
            module = self.modules[layer]
            for function in functions:
                original = getattr(module, function)
                wrappers[id(original)] = (original,
                                          self._wrap(layer, function,
                                                     original))
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, found[1])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results

    def op_times(self, op: int) -> dict:
        """Self time per function and per layer, GC time per layer and
        full collections of one op.  Since a span's self time is its wall
        minus its children and its GC pauses, the self times plus the GC
        times add up to the op's wall by construction."""
        metrics = defaultdict(float)
        for span in self.by_op[op]:
            layer_key = f"{span.layer}.self_s"
            metrics[layer_key] += span.self_s
            if span.name != layer_key:
                metrics[span.name] += span.self_s
            metrics[f"{span.layer}.gc_s"] += span.gc
            metrics["gc.pause_s"] += span.gc
        metrics["gc.gen2_collections"] = self.gen2.get(op, 0)
        return metrics
