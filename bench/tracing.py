"""Spans around every call into a shortops layer, recorded from outside it.

``install`` replaces each public function of every ``shortops.*`` module, by
identity, in every shortops namespace that bound it (``parallel`` calls
``shorting.complementability`` through its own binding, for example), wraps
the public methods of the modules' classes (``Subspace.range_of``, ...), and
wraps ``numpy.linalg``'s LAPACK entry points and genlab's invariant bodies.
A span is recorded only inside an operation opened with ``Tracer.op``, so
generators and reference checks in the benchmark stay out of the counts.

Spans are folded into totals as they close: per span name the call count,
inclusive and self time (duration minus the time covered by child spans),
per (parent, child) pair a call count, and per span name the time spent
in spans entered from another layer. That keeps memory flat over a long
run; every per-layer metric is a function of these totals.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAPACK = ("svd", "eigh", "inv", "qr", "lstsq")
LIBRARY_LAYERS = ("numcore", "geometry", "douglas", "shorting", "minusorder",
                  "parallel", "genlab")
ROOT = "bench.op"


def layer_of(key: str) -> str:
    head = key.split(".", 1)[0]
    return "numcore" if head == "linalg" else head


def svd_flops(args, kwargs) -> float:
    """Real flops of a complex SVD from its shape (Golub & Van Loan, Fig. 8.6.1
    counts times 4 for complex arithmetic); computed, not measured."""
    a = args[0]
    m, n = a.shape[-2:]
    m, n = max(m, n), min(m, n)
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    if not kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
        real = 4 * m * n * n - 4 * n ** 3 / 3
    elif kwargs.get("full_matrices", args[1] if len(args) > 1 else True):
        real = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        real = 14 * m * n * n + 8 * n ** 3
    return 4.0 * real * batch


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # open spans: [name, child seconds]
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.entered = defaultdict(float)    # inclusive time entered from another layer
        self.edges = defaultdict(int)        # "parent>child" -> calls
        self.svd_flops = 0.0

    @contextmanager
    def op(self):
        """Root span of one benchmark operation."""
        frame = [ROOT, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, perf_counter() - t0, ok=True)

    def _close(self, frame, seconds, ok):
        self.stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.inclusive[name] += seconds
        self.self_s[name] += seconds - frame[1]
        if not ok:
            self.raised[name] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[1] += seconds
            self.edges[parent[0] + ">" + name] += 1
            if layer_of(parent[0]) != layer_of(name):
                self.entered[name] += seconds

    def wrap(self, name, fn, flops=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            if flops is not None:
                tracer.svd_flops += flops(args, kwargs)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer._close(frame, perf_counter() - t0, ok)

        return traced

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "inclusive": dict(self.inclusive),
                "self": dict(self.self_s), "raised": dict(self.raised),
                "entered": dict(self.entered), "edges": dict(self.edges),
                "svd_flops": self.svd_flops}


def merge(into: dict, other: dict) -> dict:
    """Add the totals of one tracer (for example a CLI child's) into another."""
    for key, value in other.items():
        if isinstance(value, dict):
            bucket = into.setdefault(key, {})
            for k, v in value.items():
                bucket[k] = bucket.get(k, 0) + v
        else:
            into[key] = into.get(key, 0) + value
    return into


def _shortops_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "shortops" or name.startswith("shortops."))]


def install(tracer: Tracer) -> None:
    """Wrap the library and numpy.linalg's LAPACK entry points for ``tracer``,
    for the rest of the process."""
    wrappers = {}
    modules = _shortops_modules()
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, types.FunctionType):
                wrappers[value] = tracer.wrap(f"{short}.{attr}", value)
            elif isinstance(value, type):
                for mname, member in list(vars(value).items()):
                    if mname.startswith("_"):
                        continue
                    key = f"{short}.{attr}.{mname}"
                    if isinstance(member, types.FunctionType):
                        setattr(value, mname, tracer.wrap(key, member))
                    elif isinstance(member, classmethod):
                        setattr(value, mname, classmethod(tracer.wrap(key, member.__func__)))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(mod, attr, wrappers[value])

    for name in LAPACK:
        setattr(np.linalg, name, tracer.wrap(f"linalg.{name}", getattr(np.linalg, name),
                                             svd_flops if name == "svd" else None))

    genlab = sys.modules.get("shortops.genlab")
    if genlab is not None:
        genlab.INVARIANTS[:] = [(n, tracer.wrap(f"genlab.invariant:{n}", f))
                                for n, f in genlab.INVARIANTS]
