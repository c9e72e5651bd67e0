"""Spans and counters recorded around library calls, from outside the library.

`Tracer.install` replaces each named function with a timing wrapper in every
loaded ``strategizer`` module that binds it. The modules import each other by
name (``from .games import game_value``), so patching only the defining
module would miss the calls one module makes into another.

A span is (name, start, end, parent span index, task id). Spans are kept in
memory while the tracer is active (``tracer.task`` is set) and summarised, or
written out, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.task = None  # spans are recorded only while a task id is set
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.task)
            if count is not None:
                for key, value in count(result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return wrapper

    def install(self, targets):
        """Patch {"module.attribute": count function or None} targets; the
        span name is the key. ``module.Class.method`` patches a classmethod.
        """
        loaded = [m for k, m in sys.modules.items() if k.split(".")[0] == "strategizer"]
        for name, count in targets.items():
            module, attr = name.split(".", 1)
            owner = sys.modules[f"strategizer.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, original.__func__, count))
                self._undo.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, count)
            for mod in loaded:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def _self_times(self):
        """Each span's duration minus the time its direct child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        """Per span name: calls, total_s and self_s."""
        out = {}
        for (name, start, end, _, _), own in zip(self.spans, self._self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def self_time_by_task(self, name):
        """{task id: self seconds} summed over the spans called `name`."""
        out = Counter()
        for (span_name, _, _, _, task), own in zip(self.spans, self._self_times()):
            if span_name == name:
                out[task] += own
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
