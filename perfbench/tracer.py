"""In-memory span recorder for the traced benchmark run.

A span is one call through a wrapped entry point: its name, start and end
times, the index of the span that was open when it began (its parent, -1 at
the top) and a work count (points evaluated, arguments traced, ...).  Spans
stay in a list until the run ends.  A call made while a span of the same
name is already open (an entry point that calls another entry point of the
same layer, such as ``G_jet`` calling ``solve_G``) is not recorded again, so
per-name totals never count the same interval twice.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent count")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._open: set = set()  # names with a span in progress
        self._patches: list = []

    def wrap(self, fn, name: str, count=None, observe=None):
        """`fn` recording a span called `name` per outermost call.

        `count(args, kwargs)` gives the span's work count; `observe(args,
        kwargs, result)` sees each result.  Both run after the span ends,
        so their cost stays outside the recorded interval.
        """
        spans, stack, open_, clock = self.spans, self._stack, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            open_.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_.discard(name)
                spans[index] = Span(name, start, end, parent, 0)
            if count is not None:
                spans[index] = spans[index]._replace(count=count(args, kwargs))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, observe=None):
        """Replace `owner.attr` by its traced wrapper until `restore()`.

        On a class the attribute is taken from the class ``__dict__``, so a
        classmethod is wrapped as one and every descriptor is restored intact.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, count, observe))
        else:
            wrapped = self.wrap(original, name, count, observe)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Per span: duration minus the union of its direct children's intervals
    (clipped to the span), so overlapping children are not subtracted twice."""
    children: list = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for c in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
