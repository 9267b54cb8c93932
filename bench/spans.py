"""Span tracing of ``logpool`` from outside the package.

:func:`install` wraps every public function and dataclass constructor of the
traced modules, at every module attribute that binds it, so calls made
inside ``logpool`` through ``from .x import y`` are caught as well as calls
from the benchmark.  ``Dist.log_p`` is wrapped on the class.  Nothing in the
package's source changes; the wrapping lives only in the traced process.

Per name the tracer sums calls, self time and the items the calls handled
(bytes for the serializers, children for ``unanimity_report``) over every
traced call.  While ``recording`` is set it also keeps each span's name,
start, end, parent span and operation id in flat arrays in memory, and
:meth:`Tracer.write` turns them into JSON Lines when the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.  Spans nest strictly (one thread, synchronous
calls), so the covered part is the sum of the children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: The package's layers, in dependency order; ``errors`` holds no work.
LAYERS = (
    "core",
    "pooling",
    "welfare",
    "constructions",
    "factorize",
    "stability",
    "persona",
    "jsonio",
    "suites",
    "cli",
)


class Tracer:
    """Per-name call, self-time and item totals over every traced call, and
    the spans of the calls made while ``recording`` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.items: list[int] = []
        self.op = -1
        self.recording = False
        self._next_id = 0
        self._stack: list[list] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_op = array("i")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.items.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, items=None):
        """``fn`` timed as span ``name``; ``items(args, result)``, when given,
        counts what the call handled."""
        nid = self.name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = -1
            if self.recording:
                span = self._next_id
                self._next_id += 1
            frame = [0.0, 0.0, span]
            stack.append(frame)
            frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t = perf_counter()
                stack.pop()
                duration = t - frame[0]
                self.self_s[nid] += duration - frame[1]
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
                if span >= 0:
                    self.span_id.append(span)
                    self.span_name.append(nid)
                    self.start.append(frame[0])
                    self.end.append(t)
                    self.parent.append(stack[-1][2] if stack else -1)
                    self.span_op.append(self.op)
            if items is not None:
                self.items[nid] += items(args, result)
            return result

        return traced

    def total(self, name: str, field: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return getattr(self, field)[nid]

    def write(self, path: Path, t0: float) -> None:
        """The recorded spans as JSON Lines in order of their start, times in
        seconds from ``t0``."""
        names = self.names
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        with open(path, "w") as fh:
            for i in order:
                fh.write(
                    f'{{"id":{self.span_id[i]},"name":"{names[self.span_name[i]]}",'
                    f'"start":{self.start[i] - t0:.9f},"end":{self.end[i] - t0:.9f},'
                    f'"parent":{self.parent[i]},"op":{self.span_op[i]}}}\n'
                )


#: What a call handled, for the names that count it.  The JSON text is ASCII
#: (``ensure_ascii``), so its length is its size in bytes.
_ITEMS = {
    "jsonio.dumps": lambda args, result: len(result),
    "jsonio.loads": lambda args, result: len(args[0]),
    "welfare.unanimity_report": lambda args, result: len(result.gaps),
}


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer in this process."""
    replace = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"logpool.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                replace[id(obj)] = tracer.wrap(name, obj, _ITEMS.get(name))
            elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                obj.__init__ = tracer.wrap(name, obj.__init__)
    core = importlib.import_module("logpool.core")
    log_p = core.Dist.log_p
    core.Dist.log_p = property(tracer.wrap("core.Dist.log_p", log_p.fget))
    for modname, mod in list(sys.modules.items()):
        if modname != "logpool" and not modname.startswith("logpool."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapped = replace.get(id(value))
            if wrapped is not None:
                setattr(mod, attr, wrapped)
