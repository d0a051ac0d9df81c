"""In-memory spans and counts around calls into a package's functions.

A :class:`Tracer` replaces chosen functions with wrappers that time each
call, aggregate per label (calls, total and self seconds) and keep one span
record per call.  Spans of ``hot`` layers, called millions of times, are
aggregated only.  Nothing is written while the program runs; the caller
reads :meth:`Tracer.snapshot` when it is done.

Only the traced benchmark run installs a tracer, so untraced runs execute
the package unmodified.
"""

from __future__ import annotations

import functools
import sys
import time


class MissingLayerError(RuntimeError):
    """A function the benchmark must trace does not exist any more."""


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self._patches = []  # (owner, attribute, original, owned) for uninstall
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far; installed wrappers stay."""
        self.stats = {}  # label -> [calls, seconds, child seconds]
        self.counts = {}  # counter name -> int, computed at layer boundaries
        self.spans = []  # (id, parent id or None, label, start, end)
        self.top_level_s = 0.0
        self._stack = []  # open frames: [id, label, child seconds]
        self._next_id = 0

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, label, hot: bool = False, after=None):
        """Return ``fn`` wrapped in a span.

        ``label`` is a string or ``label(args, kwargs) -> str``.  ``after``
        runs outside the span with ``(tracer, label, args, kwargs, result)``.
        A call made while a span of the same label is open (a method that
        calls its sibling) belongs to the open span.
        """
        labeler = label if callable(label) else None
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = labeler(args, kwargs) if labeler else label
            stack = self._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                seconds = end - start
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += seconds
                st[2] += frame[2]
                if parent is None:
                    self.top_level_s += seconds
                else:
                    parent[2] += seconds
                if not hot:
                    self.spans.append((frame[0], parent[0] if parent else None,
                                       name, start, end))
            if after is not None:
                after(self, name, args, kwargs, result)
            return result

        return traced

    def _package_modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def patch_function(self, module_name: str, attr: str, label, **kw) -> None:
        """Wrap ``package.module_name.attr`` everywhere the package binds it.

        Modules that did ``from .x import attr`` hold their own reference, so
        every module of the package is searched for the same object.
        """
        full = f"{self.package}.{module_name}"
        module = sys.modules.get(full)
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            raise MissingLayerError(f"{full}.{attr} is missing; the benchmark "
                                    "cannot trace this layer")
        wrapped = self.wrap(original, label, **kw)
        for mod in self._package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._patches.append((mod, name, original, True))

    def patch_method(self, cls, attr: str, label, **kw) -> None:
        """Wrap a method on ``cls`` (inherited methods are wrapped on ``cls``)."""
        original = getattr(cls, attr, None)
        if not callable(original):
            raise MissingLayerError(f"{cls.__module__}.{cls.__qualname__}.{attr} "
                                    "is missing; the benchmark cannot trace this layer")
        owned = attr in vars(cls)
        setattr(cls, attr, self.wrap(original, label, **kw))
        self._patches.append((cls, attr, original, owned))

    def patch_item(self, seq: list, index: int, value, original) -> None:
        """Replace ``seq[index]`` (e.g. a registry entry) and remember the original."""
        seq[index] = value
        self._patches.append((seq, index, original, None))

    def uninstall(self) -> None:
        for owner, key, original, owned in reversed(self._patches):
            if owned is None:
                owner[key] = original
            elif owned:
                setattr(owner, key, original)
            else:
                delattr(owner, key)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
            "spans": [list(s) for s in self.spans],
        }
