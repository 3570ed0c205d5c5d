"""Spans around relmag's public functions, installed only for a traced run.

Each wrapped call appends a span (name, parent, start, end) to in-memory
lists; the parent is the innermost span open when the call began, so time
in a shared helper such as ``matrices.determinant`` splits by caller.  A
span's self time is its duration minus the durations of its direct
children.  The spans are written to a file when the run ends.

Wrappers replace every binding of a wrapped function: the defining
module's, and those of modules that imported it by name (``systems`` and
``detbounds`` both import ``determinant``).  Methods are patched once, on
their class.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

MODULES = ("matrices", "circuits", "magnitude", "systems", "detbounds", "cli")
METHODS = {("matrices", "IntegerMatrix"): ("gram", "__post_init__")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.raised: dict[int, str] = {}  # span index -> exception class name
        self.max_det_bits = 0
        self.circuits_found = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, names, parents, starts, ends = (
            self._stack, self.span_name, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter_ns()
                stack.pop()
                self.raised[idx] = type(exc).__name__
                raise
            ends[idx] = perf_counter_ns()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _det_result(self, value):
        self.max_det_bits = max(self.max_det_bits, abs(value).bit_length())

    def _circuits_result(self, value):
        self.circuits_found += len(value)

    def install(self, extra):
        """Wrap relmag's public functions and the methods in METHODS.

        extra lists (span name, module, attribute) triples of the
        benchmark's own functions to wrap as well.
        """
        hooks = {
            "matrices.determinant": self._det_result,
            "circuits.enumerate_circuits": self._circuits_result,
        }
        wrapped = {}  # original function -> its wrapper
        for short in MODULES:
            mod = sys.modules["relmag." + short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = "%s.%s" % (short, attr)
                    wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules["relmag." + short], cls_name)
            for meth in methods:
                self._patch(cls, meth, self.wrap(
                    "%s.%s.%s" % (short, cls_name, meth), vars(cls)[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "relmag" or mod_name.startswith("relmag."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(mod, attr, wrapped[obj])
        for name, owner, attr in extra:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> list[int]:
        """Self time of every span, in ns."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [e - s - c for s, e, c in zip(self.start, self.end, child)]

    def write(self, path):
        """One line per span: name, parent index, start and end in ns, raised."""
        with open(path, "w") as fh:
            fh.write("# index name parent start_ns end_ns raised\n")
            for i, (nid, p, s, e) in enumerate(
                    zip(self.span_name, self.parent, self.start, self.end)):
                fh.write("%d %s %d %d %d %s\n" % (
                    i, self.names[nid], p, s, e, self.raised.get(i, "-")))
