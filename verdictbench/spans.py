"""Span tracing of the program's layers, installed from outside.

``Tracer.install`` wraps every public function of the traced modules and
of ``cli.dispatch``.  Modules bind imported names separately (``galois``
calls its own ``factor_univariate`` binding, not ``polyring``'s), so each
binding of a traced function in every loaded module of the package is
replaced, and ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, job]``, kept in memory and written
out by ``dump``.  A span's self time is its duration minus the time its
child spans cover; a layer's busy time counts only the outermost span of a
recursive call chain.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "galoispoints"
LAYERS = ("gf", "polyring", "galois", "projective", "curve", "embedder",
          "families", "schema")


def _count_elements(counters: dict, args, kwargs, group) -> None:
    key = "projective.generate_group.elements"
    counters[key] = counters.get(key, 0) + len(group)


def _max_k(counters: dict, args, kwargs, field) -> None:
    key = "gf.make_field.max_k"
    k = args[1] if len(args) > 1 else kwargs.get("k", 1)
    counters[key] = max(counters.get(key, 0), k)


# Counters read off a finished call, by span name
AFTER_CALL = {"projective.generate_group": _count_elements,
              "gf.make_field": _max_k}


def traced_functions() -> dict:
    """id(function) -> (span name, function) for every function to trace."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj):
                continue
            # lru_cache wrappers are not functions but carry __wrapped__
            fn = getattr(obj, "__wrapped__", obj)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[id(obj)] = (f"{layer}.{name}", obj)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    out[id(cli.dispatch)] = ("cli.dispatch", cli.dispatch)
    return out


class Tracer:
    """Collects spans while installed; aggregates them per layer."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.counters: dict = {}
        self._stack: list = []
        self._active: dict = {}
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        after, counters = AFTER_CALL.get(name), self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job,
                    active.get(name, 0) > 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            active[name] = active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                span[2] = clock()
            if after:
                after(counters, args, kwargs, result)
            return result

        traced.__wrapped_by_trace__ = True
        return traced

    def install(self) -> None:
        if self._patches:
            return
        targets = traced_functions()
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][1] is obj:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def aggregate(self) -> dict:
        """Per span name: calls, busy_s and self_s, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child[i]
            if not nested:
                agg["busy_s"] += end - start
        for key, value in self.counters.items():
            name, counter = key.rsplit(".", 1)
            out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                  "self_s": 0.0})[counter] = value
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines and forget them."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:5]) + "\n")
        self.spans.clear()
        self.counters.clear()


def wrapped_names() -> list:
    """Bindings in the loaded package that are tracing wrappers; empty when
    no tracer is installed."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname == PACKAGE or modname.startswith(PACKAGE + "."):
            for attr, obj in vars(mod).items():
                if getattr(obj, "__wrapped_by_trace__", False):
                    out.append(f"{modname}.{attr}")
    return out
