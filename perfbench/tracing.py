"""Spans around fishergeo's public functions, recorded from outside the library.

``install`` wraps every public function and every constructor, public method
and property of every public class in the layer modules. The library binds
names with ``from .x import y``, so each binding of a wrapped function in any
``fishergeo`` module (and in module-level dicts such as the battery table)
is replaced too. A span records its name, its parent and its start and end
times; the root span of each benchmark call is opened by the harness, so
all spans of one call share that root. Spans stay in memory until the run
ends. A layer's self time is the duration of its spans minus the part
covered by their child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from functools import cached_property

import numpy as np

#: The library modules measured as layers, in dependency order.
LAYERS = (
    "simplex", "geometry", "markov", "models", "connections",
    "families", "verify", "batteries", "jsonio", "cli",
)
#: Class members wrapped besides public methods: constructors and calls.
DUNDERS = ("__init__", "__call__")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def call(self, kind: str, run):
        """Run one benchmark call under a root span named ``call:<kind>``."""
        return self.wrap(run, f"call:{kind}")()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules' public callables and rebind every binding."""
        wrapped: dict = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fishergeo.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fishergeo" and not mod_name.startswith("fishergeo."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, name))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(member.__func__, name)))
            elif isinstance(member, property) and member.fget is not None:
                setattr(cls, attr, property(self.wrap(member.fget, name), member.fset, member.fdel, member.__doc__))
            elif isinstance(member, cached_property):
                replacement = cached_property(self.wrap(member.func, name))
                replacement.__set_name__(cls, attr)
                setattr(cls, attr, replacement)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        return name, parent, dur

    def self_times(self):
        """Per-span self time: duration minus the durations of child spans."""
        name, parent, dur = self.arrays()
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - children

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else int(np.count_nonzero(np.array(self.name) == nid))

    def layer_self_ms(self) -> dict[str, float]:
        """Total self time per layer (the part of a span name before its first dot)."""
        name, _, _ = self.arrays()
        per_name = np.bincount(name, weights=self.self_times(), minlength=len(self.names))
        totals: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            layer = "harness" if label.startswith("call:") else label.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + 1000.0 * float(per_name[nid])
        return totals

    def count_within(self, name: str, ancestors: tuple[str, ...]) -> int:
        """Spans named ``name`` with a span named in ``ancestors`` above them."""
        target = self._ids.get(name)
        above = {self._ids[a] for a in ancestors if a in self._ids}
        if target is None or not above:
            return 0
        found = 0
        for idx in np.flatnonzero(np.array(self.name) == target):
            up = self.parent[idx]
            while up >= 0 and self.name[up] not in above:
                up = self.parent[up]
            found += up >= 0
        return found

    def write(self, path) -> None:
        """Write every span (name, parent, start, end) as a compressed archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
