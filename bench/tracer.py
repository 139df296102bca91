"""Span tracer that wraps the public functions of kcurv's modules from outside.

Each function object is wrapped exactly once, keyed by its identity, and
every module-level alias of it (``curvature.classify`` is ``cone.classify``)
is rebound to that one wrapper, so a call is counted once whichever name it
went through.  Public methods of kcurv's classes are wrapped on the class.

A span is (function, parent span, start, end, status, two work numbers).
Spans stay in append-only arrays while tracing runs; aggregates and the
span dump are computed after the traced work has finished.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("symform", "cone", "curvature", "geodesic", "aronhold", "cicy", "cli")


class Tracer:
    def __init__(self, probes=None):
        """``probes`` maps a span name to fn(args, result) -> (work_a, work_b)."""
        self.probes = probes or {}
        self.names: list[str] = []
        self.errors: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.status = array("i")      # 0 ok, k > 0: raised self.errors[k - 1]
        self.start = array("d")
        self.end = array("d")
        self.work_a = array("d")
        self.work_b = array("d")
        self._stack = [-1]
        self._bindings = []           # (owner, attribute, original)
        self._wrappers = {}           # id(original) -> wrapper

    # ------------------------------------------------------------ install

    def _wrapper(self, fn, name):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        nid = len(self.names)
        self.names.append(name)
        probe = self.probes.get(name)
        clock = time.perf_counter
        stack, fns, parents, status = self._stack, self.fn, self.parent, self.status
        starts, ends, wa, wb = self.start, self.end, self.work_a, self.work_b
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fns)
            fns.append(nid)
            parents.append(stack[-1])
            status.append(0)
            starts.append(0.0)
            ends.append(0.0)
            wa.append(0.0)
            wb.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[i] = clock()
                ename = type(exc).__name__
                if ename not in errors:
                    errors.append(ename)
                status[i] = errors.index(ename) + 1
                raise
            finally:
                stack.pop()
            ends[i] = clock()
            if probe is not None:
                wa[i], wb[i] = probe(args, result)
            return result

        traced.__wrapped_by_bench__ = True
        self._wrappers[key] = traced
        return traced

    def install(self, package):
        """Wrap every public function and method defined in the layer modules
        of ``package`` and rebind all of its aliases in kcurv's namespaces."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package.__name__ or n.startswith(prefix)) and m is not None]
        layer_of = {prefix + layer: layer for layer in LAYERS}
        seen_classes = set()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__wrapped_by_bench__", False) or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in layer_of:
                    name = f"{layer_of[obj.__module__]}.{obj.__name__}"
                    self._bind(mod, attr, obj, self._wrapper(obj, name))
                elif (inspect.isclass(obj) and obj.__module__ in layer_of
                      and id(obj) not in seen_classes):
                    seen_classes.add(id(obj))
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        name = f"{layer_of[obj.__module__]}.{meth.__name__}"
                        self._bind(obj, mname, meth, self._wrapper(meth, name))
        if len(set(self.names)) != len(self.names):
            dup = sorted({n for n in self.names if self.names.count(n) > 1})
            self.uninstall()
            raise RuntimeError(f"span names are ambiguous: {dup}")

    def _bind(self, owner, attr, original, wrapper):
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # ------------------------------------------------------------ results

    def __len__(self):
        return len(self.fn)

    def arrays(self):
        """Every span as numpy arrays, with its duration and self time."""
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return {
            "fn": np.array(self.fn), "parent": parent, "dur": dur, "self": dur - child,
            "status": np.array(self.status),
            "work_a": np.array(self.work_a), "work_b": np.array(self.work_b),
        }

    def dump(self, path):
        """Write every span as gzip CSV: id,name,parent,start_s,end_s,status."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,parent,start_s,end_s,status\n")
            for i in range(len(self.fn)):
                st = self.status[i]
                fh.write(f"{i},{self.names[self.fn[i]]},{self.parent[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.errors[st - 1] if st else 'ok'}\n")
