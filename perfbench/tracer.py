"""Outside-in tracer for the layer modules of ``cauchyspec``.

The tracer wraps the public functions of each layer module and patches the
wrapper in at every place inside the package that binds the same function
object: the defining module, every module that imported the name, and
module-level dicts that hold it (such as the CLI's command table).  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` puts every original back.

Each call records a span ``[name, start, end, parent]`` in memory; spans are
only turned into numbers (calls, inclusive and self time) or written out after
the measured run.  Counts such as array points are taken by hooks at the same
boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "cauchyspec"


def public_functions(module):
    """Functions a module defines under a name without a leading underscore."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Records spans around the public functions of the given layer modules.

    ``hooks`` maps a span name (``"<module>.<function>"``) to a callable
    ``hook(tracer, args, kwargs) -> (args, kwargs)`` run at call entry; a hook
    adds to ``tracer.counts`` and may substitute arguments (for instance wrap
    an integrand to count its evaluation points).
    """

    def __init__(self, layers, hooks=None):
        self.layers = tuple(layers)
        self.hooks = dict(hooks or {})
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in self.layers:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in public_functions(mod).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if id(val) in wrappers and val is wrappers[id(val)][0]:
                    self._patched.append((mod, key, val))
                    setattr(mod, key, wrappers[id(val)][1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers and v is wrappers[id(v)][0]:
                            self._patched.append((val, k, v))
                            val[k] = wrappers[id(v)][1]

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds (inclusive
        minus the time covered by traced child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), c in zip(self.spans, child):
            rec = out[name]
            rec["calls"] += 1
            rec["incl_s"] += end - start
            rec["self_s"] += end - start - c
        return dict(out)

    def dump(self, path):
        """Write the spans, one JSON array per line, with times relative to
        the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent]) + "\n")
