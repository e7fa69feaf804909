"""Span tracing from outside the package.

A traced run replaces each measured public function, at every module
attribute where callers look it up, by a wrapper that records one span per
call: name, start, end, enclosing span and request id.  Spans are kept in
flat arrays while the run lasts and written out once it ends.  The backend
implementation modules (``_kernels_py`` / ``_fastkernels``) are left alone:
the kernel layer's boundary is the ``swapeq.kernels`` module, so calls the
kernels make among themselves count as their caller's self time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_BACKEND_MODULES = ("swapeq._kernels_py", "swapeq._fastkernels")


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock  # seconds; hostspeed.HostSpeed.clock leaves out calibration time
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.request_id = 0
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None, name_of=None):
        """Wrapper recording a span per call.  count(counts, args, result)
        records counters at the same boundary; name_of(args) picks a span
        name per call (cli.run is named after its subcommand)."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self.current
            self.name.append(self.name_id(name_of(args)) if name_of else nid)
            self.parent.append(parent)
            self.request.append(self.request_id)
            self.end.append(0.0)
            self.current = idx
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self.current = parent
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def layer_times(self):
        """(self seconds, calls) per span name.  Wrapped calls nest strictly
        within one thread, so the time a span's children cover is the sum of
        their durations."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(count):
            key = self.names[self.name[i]]
            self_s[key] += dur[i] - covered[i]
            calls[key] += 1
        return self_s, calls

    def write(self, path) -> None:
        """Spans as TSV: name, start and end (s, from the first span),
        parent span index (-1 for roots), request id."""
        t0 = self.start[0] if self.start else 0.0
        rows = ["span\tname\tstart_s\tend_s\tparent\trequest"]
        rows += [
            f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.7f}\t"
            f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t{self.request[i]}"
            for i in range(len(self.start))
        ]
        path.write_text("\n".join(rows) + "\n")


@contextmanager
def installed(tracer: Tracer, specs):
    """Patch every swapeq module attribute bound to a measured function.

    specs: (span name, module, attribute, count, name_of) tuples naming where
    the function is defined; every other swapeq module holding the same
    object gets the same wrapper.  Originals are restored on exit.
    """
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == "swapeq" or k.startswith("swapeq.")) and m is not None
               and k not in _BACKEND_MODULES]
    saved = []
    try:
        for name, module, attr, count, name_of in specs:
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, count, name_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)
