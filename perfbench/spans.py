"""In-memory span tracing around daecure's public entry points.

Everything here lives in the benchmark: the package under test is not
edited.  A :class:`Tracer` records one span (name, start, end, parent)
per call of a wrapped function, and :class:`Patcher` swaps the wrappers
into every loaded ``daecure`` module that holds the original object
(``from .x import f`` copies a reference, so patching only the defining
module would miss callers) and puts the originals back afterwards.
"""

import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at the root


def self_times(spans, until=None):
    """Per-name self time: duration minus the part covered by child spans.

    With ``until`` set, only spans that ended by then are counted, which
    gives the split of a window that starts at the root span.
    """
    child = [0.0] * len(spans)
    keep = [until is None or s.end <= until for s in spans]
    for i, s in enumerate(spans):
        if keep[i] and s.parent is not None:
            child[s.parent] += s.end - s.start
    out = defaultdict(float)
    for i, s in enumerate(spans):
        if keep[i]:
            out[s.name] += (s.end - s.start) - child[i]
    return dict(out)


def layer_of(name):
    """The module part of a span name ('numkernel.factor' -> 'numkernel')."""
    return name.split(".", 1)[0]


def has_ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


class Tracer:
    """Collects spans and named counts for one traced operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def reset(self):
        self.spans, self.counts, self._stack = [], defaultdict(int), []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx):
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, on_call=None):
        """``fn`` traced as ``name``; ``on_call(args, result)`` may count.

        A call made while the innermost open span already has this name
        (a function recursing into itself) is not traced again, so a
        span count is a count of outermost calls.
        """
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._stack
            if st and tracer.spans[st[-1]].name == name:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_call is not None:
                on_call(args, out)
            return out

        traced.__wrapped__ = fn
        return traced


class Patcher:
    """Replaces functions and methods in loaded modules and restores them."""

    def __init__(self, package="daecure"):
        self.package = package
        self._saved = []   # (owner, attribute, original object)

    def _modules(self):
        pre = self.package + "."
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(pre))]

    def function(self, module, attr, wrapper):
        """Swap ``module.attr`` for ``wrapper(original)`` wherever it is
        bound at module level; returns False when the target is absent."""
        orig = getattr(module, attr, None)
        if orig is None:
            return False
        new = wrapper(orig)
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, key, orig))
                    setattr(mod, key, new)
        return True

    def method(self, cls, attr, wrapper):
        """Swap a method (plain or classmethod) defined on ``cls``."""
        orig = cls.__dict__.get(attr)
        if orig is None:
            return False
        if isinstance(orig, classmethod):
            new = classmethod(wrapper(orig.__func__))
        else:
            new = wrapper(orig)
        self._saved.append((cls, attr, orig))
        setattr(cls, attr, new)
        return True

    def restore(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        saved, self._saved = self._saved, []
        return all(vars(owner)[key] is orig for owner, key, orig in saved)
