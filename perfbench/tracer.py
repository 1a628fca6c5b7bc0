"""Outside-in tracing of the holanom package, installed only for a traced run.

The tracer wraps, from outside the program, every public function of each
holanom module and the arithmetic methods of ``GradedPoly``.  Each wrapped
call records a span ``[name, start, end, parent, op, out, raised, counters]``
in memory; ``parent`` is the index of the enclosing span (-1 at the top)
and ``op`` the id of the benchmark op that caused it.  ``out`` is the
length of a list result.  Two hot helpers are counted instead of timed:
``GeneratorSet.degree`` and ``univariate.evaluate`` add one to a counter of
the innermost open span.

``from .x import f`` copies a binding into the importing module, so one
function can be reachable under several names (``todd`` in ``chern`` and
``anomaly``); every binding that holds the original object is patched, and
``uninstall`` puts each one back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from time import perf_counter

MODULES = ("cli", "theoryfile", "theory", "duality", "anomaly", "chern", "ring", "univariate")

# class -> {attribute: span suffix}; __radd__/__rmul__ alias __add__/__mul__
CLASS_SPANS = {
    "GradedPoly": {
        "__init__": "init", "__add__": "add", "__radd__": "add", "__sub__": "sub",
        "__rsub__": "sub", "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
        "__truediv__": "div", "__pow__": "pow", "exp": "exp", "log": "log",
        "component": "component", "substitute": "substitute", "evaluate": "evaluate",
    },
}
# (module, qualified name) -> counter name
COUNTERS = {("ring", "GeneratorSet.degree"): "degree", ("univariate", "evaluate"): "evaluate"}

NAME, START, END, PARENT, OP, OUT, RAISED, COUNTS = range(8)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, -1, False, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
            if type(result) is list:
                record[OUT] = len(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                record = spans[stack[-1]]
                counts = record[COUNTS]
                if counts is None:
                    counts = record[COUNTS] = {}
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _targets(self):
        """(original object, wrapper) for every module-level function traced."""
        wrappers = {}
        for short, module in self.modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not callable(obj) or inspect.isclass(obj) or inspect.isgeneratorfunction(obj):
                    continue
                counter = COUNTERS.get((short, attr))
                wrappers[id(obj)] = (obj, self._counter(counter, obj) if counter
                                     else self._span(f"{short}.{attr}", obj))
        return wrappers

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = self._targets()
        for namespace in [self.package, *self.modules.values()]:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(namespace, attr, wrappers[id(obj)][1])
        ring = self.modules["ring"]
        for cls_name, methods in CLASS_SPANS.items():
            cls = getattr(ring, cls_name)
            made = {}
            for attr, suffix in methods.items():
                fn = cls.__dict__[attr]
                if id(fn) not in made:
                    made[id(fn)] = self._span(f"ring.{cls_name}.{suffix}", fn)
                self._patch(cls, attr, made[id(fn)])
        for (short, qualname), counter in COUNTERS.items():
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                cls = getattr(self.modules[short], cls_name)
                self._patch(cls, attr, self._counter(counter, cls.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "counters": s[COUNTS] or {},
                }) + "\n")

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        spans = self.spans
        own = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own
