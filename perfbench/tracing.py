"""Span recording around the public functions of the ``sawtopics`` modules.

``install`` replaces every public function defined in a layer module by a
wrapper, in every loaded ``sawtopics`` namespace that binds the same
function object (so ``from .saw import update_theta`` in another module is
traced as well). Each wrapped call records one span: name, start, end and
the index of the span that was open when it began. Spans stay in memory
until ``Recorder.dump``. Wrappers count calls and raised exceptions and
change no argument or result, so traced runs write the same bytes as
untraced ones.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "sawtopics"
LAYERS = ("corpus", "cooccur", "anchors", "topics", "saw", "survival",
          "evaluation", "methods", "cli")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self._child_time: list[float] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self.failed.append(False)
        self._child_time.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def exit(self, i: int, failed: bool) -> None:
        self.ends[i] = time.perf_counter()
        self.failed[i] = failed
        self._stack.pop()
        p = self.parents[i]
        if p >= 0:
            self._child_time[p] += self.ends[i] - self.starts[i]

    def span(self, name: str, fn, *args, **kwargs):
        i = self.enter(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.exit(i, True)
            raise
        self.exit(i, False)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls and self seconds (duration
        minus the time covered by its direct child spans)."""
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0})
            dur = self.ends[i] - self.starts[i]
            s["calls"] += 1
            s["failed"] += int(self.failed[i])
            s["total_s"] += dur
            s["self_s"] += dur - self._child_time[i]
        return out

    def dump(self, path) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p, "failed": f}
                 for n, s, e, p, f in zip(self.names, self.starts, self.ends,
                                          self.parents, self.failed)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "summary": self.summary()}, fh)
            fh.write("\n")


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.span(name, fn, *args, **kwargs)
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the public functions of each layer module; the package must be imported."""
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped[id(fn)] = _wrap(rec, f"{layer}.{attr}", fn)
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, attr, wrapped[id(obj)])
