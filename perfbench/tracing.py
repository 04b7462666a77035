"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions and methods of nzs with wrappers
that record one span per call: name, start, end and the span that was
open when the call began (its parent). A function is replaced in every
nzs module that binds it, since `from .vecmat import spmv` leaves a
second reference in nzs.games and nzs.instances. Spans live in flat
arrays until the run ends; `save` writes them to one .npz file.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, on_result):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = (self.name_id, self.parent,
                                           self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def patch_function(self, module, attr, name, on_result=None):
        """Trace module.attr under `name` wherever an nzs module binds it."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, on_result)
        for modname, mod in list(sys.modules.items()):
            if modname != "nzs" and not modname.startswith("nzs."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, None))
        self._patches.append((cls, attr, original))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def mark(self):
        """Index of the next span, to split the run into phases."""
        return len(self.start)

    def totals(self, lo=0, hi=None):
        """{name: (calls, self seconds)} over spans lo..hi-1.

        Spans in that range whose parent lies before lo are treated as
        roots; the range must not cut through an open span.
        """
        hi = len(self.start) if hi is None else hi
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = end - start
        child = np.zeros(hi - lo)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
