"""In-memory spans for the traced run, written out when the run ends.

A span is [name, start_ns, end_ns, parent, root]: `parent` is the index of
the enclosing span (-1 for none) and `root` the index of the outermost one,
so all spans of one benchmark operation share a root.  Spans are recorded
only around calls the benchmark makes into a module, and around the calls
the CLI layer makes into the layers below it; calls inside the other
modules are not wrapped, so the overhead stays a few percent.
"""

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        span = [name, 0, 0, parent, root]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span):
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)

        return traced

    @contextmanager
    def patched(self, module, names):
        """Trace calls made from `module` through its globals, given as
        {global name: span name}, for the duration of the block."""
        saved = {name: getattr(module, name) for name in names}
        for name, span_name in names.items():
            setattr(module, name, self.wrap(span_name, saved[name]))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def total_ns(self, name, start=0, end=None, self_time=False):
        """Summed duration of the spans named `name` among spans[start:end]; with
        `self_time`, minus the time their direct children cover."""
        end = len(self.spans) if end is None else end
        total = 0
        for i in range(start, end):
            s = self.spans[i]
            if s[0] == name:
                total += s[2] - s[1]
            elif self_time and s[3] >= start and self.spans[s[3]][0] == name:
                total -= s[2] - s[1]
        return total

    def mean_us(self, name, root):
        """Mean duration of the spans named `name` inside operations named `root`."""
        spans = self.spans
        return statistics.fmean(
            s[2] - s[1] for s in spans if s[0] == name and spans[s[4]][0] == root
        ) / 1e3

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "root"],
                       "spans": self.spans}, fh)
