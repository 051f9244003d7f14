"""Outside-in span tracer for the pipeline benchmark.

`Tracer.patch_function` / `patch_method` replace public functions and
methods of the program's modules with wrappers that record a span (name,
start, end, parent) per call, and `uninstall` puts the originals back.  A
function imported by name into another module is replaced there too, so
every call site is traced.  Spans stay in memory, in flat lists of strings
and numbers that the garbage collector need not scan; `summary` turns them
into per-name call counts, inclusive time and self time (the span minus the
time its child spans cover).
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []     # index of the enclosing span, or -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, fn, name, on_result=None):
        """Return fn wrapped in a span; `name` may be a callable of the
        call's arguments, and `on_result(result, args, kwargs)` sees each
        return value."""
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name(*args, **kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, modules, module, attribute, name,
                       on_result=None):
        """Trace module.attribute everywhere a program module holds it."""
        original = getattr(module, attribute)
        wrapped = self.wrap(original, name, on_result)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attribute, name, on_result=None):
        original = cls.__dict__[attribute]
        self._patches.append((cls, attribute, original))
        setattr(cls, attribute, self.wrap(original, name, on_result))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def durations(self) -> dict:
        """Seconds of each span, listed per span name in call order."""
        out: dict = defaultdict(list)
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name].append(end - start)
        return dict(out)

    def _self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and the
        inclusive seconds of each child name under it."""
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0,
                                     "children": defaultdict(float)})
        for name, start, end, parent, own in zip(
                self.names, self.starts, self.ends, self.parents,
                self._self_times()):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            if parent >= 0:
                stats[self.names[parent]]["children"][name] += end - start
        return {name: {**entry, "children": dict(entry["children"])}
                for name, entry in stats.items()}

    def self_by_root(self, prefix: str) -> dict:
        """Self seconds per layer (the span name up to its first dot) under
        each enclosing span whose name starts with `prefix`."""
        roots: list = []
        out: dict = defaultdict(lambda: defaultdict(float))
        for name, parent, own in zip(self.names, self.parents,
                                     self._self_times()):
            # a parent is recorded before its children
            root = name if name.startswith(prefix) else \
                (roots[parent] if parent >= 0 else None)
            roots.append(root)
            if root is not None:
                out[root][name.split(".")[0]] += own
        return {root: dict(layers) for root, layers in out.items()}
