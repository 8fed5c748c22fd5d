"""Spans around the public functions of the ``darboux`` layers.

``Tracer.install`` wraps every public function defined in the layer modules
and rebinds each module-level name that refers to one of them, in every
loaded ``darboux.*`` module (modules import each other's functions by name,
so wrapping the defining module alone would miss most calls).  Nothing in
``src/`` changes; ``uninstall`` restores the original bindings.

A span is one call: its name, its parent span, the op it belongs to, and its
start and end.  The hot layers make millions of calls per run, so spans are
kept in memory aggregated by (op, name, parent): call count, total time and
the time covered by child spans.  A span's self time is its duration minus
its children's; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "geometry", "potentials", "specfun", "spectra", "wavefun", "oracle",
          "classical", "verify")


def _assembled(counters, args, kwargs, result):
    # computed from array sizes, not measured traffic
    counters["wavefun.grid_points"] += result.values.size
    counters["wavefun.field_bytes_computed"] += (result.values.nbytes + result.q1.nbytes
                                                 + result.q2.nbytes)


def _fd_rows(counters, args, kwargs, result):
    # the three nested grids n, 2n - 1, 4n - 3, each without its two walls
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    n = grid.n_points
    counters["oracle.matrix_rows"] += (n - 2) + (2 * n - 3) + (4 * n - 5)


POST_HOOKS = {
    "wavefun.assemble_bound_state": _assembled,
    "oracle.fd_eigensolve_1d": _fd_rows,
}


class Tracer:
    def __init__(self):
        self.op = None
        self.stack = []          # frames [name, time covered by children]
        self.spans = {}          # (op, name, parent) -> [calls, total_s, child_s]
        self.op_spans = []       # (op, kind, start, end)
        self.counters = Counter()
        self.names = []
        self._saved = []

    def _wrap(self, fn, name):
        stack, spans, perf = self.stack, self.spans, time.perf_counter
        post = POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (tracer.op, name, parent)
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, dt, frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += frame[1]
            if post is not None:
                post(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"darboux.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, name))
                    self.names.append(name)
        for modname, mod in list(sys.modules.items()):
            if modname != "darboux" and not modname.startswith("darboux."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def begin_op(self, index, kind):
        self.op = index
        self.op_spans.append([index, kind, time.perf_counter(), None])

    def end_op(self):
        self.op_spans[-1][3] = time.perf_counter()
        self.op = None

    def totals(self):
        """Per function: calls and self time, summed over ops and parents."""
        calls, self_s = Counter(), Counter()
        for (_, name, _), (n, total, child) in self.spans.items():
            calls[name] += n
            self_s[name] += total - child
        return calls, self_s

    def layer_value(self, metric):
        """Value of a per-layer metric named ``<layer>[.<function>].<kind>``."""
        if metric in ("wavefun.grid_points", "wavefun.field_bytes_computed",
                      "oracle.matrix_rows"):
            return self.counters[metric]
        if metric in ("specfun.norm_cache.entries", "specfun.w_cache.entries"):
            sf = importlib.import_module("darboux.specfun")
            return len(sf._NORM_CACHE if "norm" in metric else sf._W_CACHE)
        prefix, kind = metric.rsplit(".", 1)
        calls, self_s = self.totals()
        if prefix in LAYERS and kind == "self_s":
            return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))
        if prefix not in self.names:
            raise KeyError(f"{metric}: {prefix} is not a traced function")
        if kind == "calls":
            return calls[prefix]
        if kind == "self_s":
            return self_s[prefix]
        raise KeyError(metric)

    def dump(self):
        return {
            "spans": [{"op": op, "name": name, "parent": parent, "calls": n,
                       "total_s": total, "self_s": total - child}
                      for (op, name, parent), (n, total, child) in self.spans.items()],
            "ops": [{"op": i, "kind": k, "start": s, "end": e} for i, k, s, e in self.op_spans],
            "counters": dict(self.counters),
        }
