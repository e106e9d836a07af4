"""Span recorder that wraps sphwell's public functions from outside the package.

Loaded only by ``child.py`` in traced commands.  ``install`` replaces each
traced function in every ``sphwell`` module that holds it (``quantum``
imports ``sph_bessel_j_table`` by name, ``cli`` imports ``sph_bessel_j``,
and so on), so no call path bypasses the span.  Spans are kept in memory
and written once, as JSON, when the command ends.

A span is ``[id, parent, name, t0, t1, attrs, counts]`` with ``time.perf_counter``
stamps; ``attrs`` holds sizes read from the arguments or the return value.  A
function called far more than 10^4 times per command (scalar
``sph_bessel_j``) is not spanned: its calls and summed time are counted
in the enclosing span instead, which keeps its overhead to two clock reads.
"""

import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time

import numpy as np

# The table engine at this commit switches to Miller's downward sweep, and
# its int16 rescale-event array, for 0.5 <= x < l_max.
_MILLER_CUTOFF = 0.5


def _args(fn):
    sig = inspect.signature(fn)
    return lambda a, k: sig.bind(*a, **k).arguments


def _table_attrs(args, result):
    x = np.asarray(args["x"], dtype=float)
    l_max = int(args["l_max"])
    miller = int(np.count_nonzero((x >= _MILLER_CUTOFF) & (x < l_max)))
    return {
        "cells": int(result.size),
        "bytes_computed": 8 * int(result.size) + 2 * (l_max + 1) * miller,
    }


def _mc_attrs(args, result):
    from sphwell import classical

    return {"blocks": math.ceil(args["config"].samples / classical.MC_BLOCK)}


# (module, function, attrs(bound args, result) or None, counted instead of spanned)
TARGETS = [
    ("numerics", "integrate_composite",
     lambda a, r: {"nodes": 15 * int(a["panels"])}, False),
    ("numerics", "accumulate_histogram",
     lambda a, r: {"samples": int(np.size(a["samples"]))}, False),
    ("specfun", "sph_bessel_j_table", _table_attrs, False),
    ("specfun", "sph_bessel_zero", None, False),
    ("specfun", "sph_bessel_j", None, True),
    ("quantum", "total_density_values",
     lambda a, r: {"points": int(np.size(a["r"]))}, False),
    ("quantum", "normalization_constants_sq_all", None, False),
    ("quantum", "density_mass", lambda a, r: {"residual": abs(float(r) - 1.0)}, False),
    ("quantum", "conventional_density_values", None, False),
    ("classical", "draw_chords", lambda a, r: {"samples": int(a["count"])}, False),
    ("classical", "mc_histogram", _mc_attrs, False),
    ("classical", "classical_total_density", None, False),
    ("cli", "write_svg", None, False),
]


class Recorder:
    """Spans and counted calls of one command, kept in memory until ``dump``.

    Each thread has a stack of open frames ``[span id, {name: [calls, seconds]}]``;
    a counted call adds to the innermost frame, and the frame's counts are
    stored with its span when it closes.
    """

    def __init__(self):
        self.spans = []
        self.loose = []  # counts made in a pool task outside any span: [parent, counts]
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def span(self, name, fn, attrs=None):
        bind = _args(fn) if attrs is not None else None

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [next(self._ids), {}]
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = attrs(bind(args, kwargs), result) if attrs and result is not None else None
                self.spans.append([frame[0], parent, name, t0, t1, extra, frame[1]])

        return wrapped

    def count(self, name, fn):
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack = getattr(local, "stack", None)
                if stack:
                    counts = stack[-1][1]
                    slot = counts.get(name)
                    if slot is None:
                        counts[name] = [1, dt]
                    else:
                        slot[0] += 1
                        slot[1] += dt

        return wrapped

    def adopting_pool(self, base):
        """ThreadPoolExecutor subclass whose tasks take the submitter's span as parent."""
        recorder = self

        class Pool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def task(*a, **k):
                    stack = recorder._stack()
                    frame = [parent, {}]
                    stack.append(frame)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()
                        if frame[1]:
                            recorder.loose.append(frame)

                return super().submit(task, *args, **kwargs)

        return Pool

    def dump(self, path, extra):
        record = dict(extra)
        record["spans"] = self.spans
        record["loose"] = self.loose
        with open(path, "w") as handle:
            json.dump(record, handle)


def install(recorder):
    """Wrap every target in each loaded sphwell module that refers to it."""
    from sphwell import classical  # the package imports every submodule

    modules = [m for name, m in sys.modules.items()
               if name == "sphwell" or name.startswith("sphwell.")]
    for mod_name, fn_name, attrs, counted in TARGETS:
        original = getattr(sys.modules["sphwell." + mod_name], fn_name)
        label = f"{mod_name}.{fn_name}"
        if counted:
            wrapped = recorder.count(label, original)
        else:
            wrapped = recorder.span(label, original, attrs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    classical.ThreadPoolExecutor = recorder.adopting_pool(classical.ThreadPoolExecutor)
