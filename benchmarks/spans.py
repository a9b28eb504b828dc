"""In-memory span tracer that wraps library functions from the outside.

A span is (name, start, end, parent). Spans are appended to a list while a
traced operation runs and only summarized when it has finished, so tracing
writes nothing during the measurement. Because the benchmark runs on one
thread, spans nest strictly and a span's self time is its duration minus
the durations of its direct children.

`Tracer.installed(targets)` swaps each target attribute (a module-level
function as the calling module looks it up, or a method on its class) for a
wrapper that records a span, and restores the originals on exit.
"""

import time
from contextlib import contextmanager


class Tracer:
    """Span recorder plus named counters for one traced operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self.missing = []  # targets `installed` could not patch
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = self.clock()

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name, on_result=None):
        """fn wrapped in a span; on_result(tracer, result) may replace the result."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            return result if on_result is None else on_result(self, result)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Patch (owner, attribute, span name, on_result) targets for the block.

        A target whose attribute does not exist is not patched but listed in
        `self.missing` as "owner.attribute", so the caller can refuse a run
        whose layer would otherwise read zero without notice.
        """
        saved = []
        try:
            for owner, attr, name, on_result in targets:
                orig = vars(owner).get(attr)
                if orig is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, on_result))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name):
        yield


def summarize(spans, hidden=()):
    """Per name: {"self": s, "total": s, "calls": n} from nested spans.

    Spans named in `hidden` are left out of the summary, and their time is
    taken out of the totals of every span that encloses them; a self time
    never includes a child span anyway.
    """
    child = [0.0] * len(spans)
    inner_hidden = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
        if name in hidden:
            while parent >= 0:
                inner_hidden[parent] += end - start
                parent = spans[parent][3]
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        if name in hidden:
            continue
        entry = out.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0})
        entry["self"] += end - start - child[i]
        entry["total"] += end - start - inner_hidden[i]
        entry["calls"] += 1
    return out
