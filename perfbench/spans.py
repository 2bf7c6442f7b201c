"""In-memory span recorder for the traced benchmark run.

The recorder wraps every public function that a ``navbound`` module
defines, in every ``navbound`` module that binds the name (so
``signal_model.generate_ca_code``, imported from ``cacode``, is wrapped
too). Calls resolve module globals at call time, so calls made inside a
module reach the wrapper as well. Private helpers (leading underscore)
are not wrapped: their time is part of the calling span's self time.

Spans are kept in flat typed arrays (about 30 bytes each) and turned
into per-name totals only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import types
from array import array
from time import perf_counter

import numpy as np


def _package_modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Wraps a package's public functions and records one span per call.

    ``counters`` maps a span name to ``fn(args, kwargs, result) -> int``;
    the returned counts are summed per name (work done at that boundary).
    """

    def __init__(self, package, counters=None):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: 0 for name in (counters or {})}
        self.op_id = -1
        self._stack = [-1]
        self._counters = counters or {}
        self._patches = []
        wrappers = {}
        for mod in _package_modules(package):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(package.__name__)):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patches.append((mod, attr, obj, wrappers[obj]))

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        nid = len(self.names)
        self.names.append(name)
        counter = self._counters.get(name)
        name_id, parent, op, start, end = (self.name_id, self.parent, self.op,
                                           self.start, self.end)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                self.counts[name] += counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def __len__(self):
        return len(self.start)

    def arrays(self):
        """Span columns as numpy arrays (name id, parent index, op id, start, end)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (totals).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly on one thread, so children never
        overlap each other.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(a["name_id"], minlength=n_names)
        incl = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)
        return {name: {"calls": int(calls[k]), "s": float(incl[k]),
                       "self_s": float(self_s[k])}
                for k, name in enumerate(self.names)}

    def top_level_seconds(self) -> float:
        """Total duration of spans that have no parent span."""
        a = self.arrays()
        top = a["parent"] < 0
        return float((a["end"][top] - a["start"][top]).sum())

    def child_calls(self, child_name: str, parent_name: str) -> int:
        """Number of spans named ``child_name`` directly under ``parent_name``."""
        if child_name not in self.names or parent_name not in self.names:
            return 0
        a = self.arrays()
        child_id = self.names.index(child_name)
        parent_id = self.names.index(parent_name)
        idx = np.flatnonzero(a["name_id"] == child_id)
        parents = a["parent"][idx]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(a["name_id"][parents] == parent_id))

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
