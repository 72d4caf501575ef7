"""Span tracer that instruments the spongedim modules from outside.

`instrument` replaces every public function of each layer module, in every
spongedim namespace that imported it, by a wrapper that records a span; public
classes get their `__init__` and public methods wrapped on the class itself.
A span's self time is its duration minus the time its child spans cover, so a
layer's self time is the work it does that no deeper layer accounts for.
Private helpers are not wrapped: their time counts toward the nearest wrapped
caller.  A few wrappers also add counts (rows, nodes, draws, bytes) read from
the arguments or the result; the time those hooks take is charged to no span.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("cli", "io", "ifs", "weights", "scales", "engine", "variational",
          "simulate", "rng")


class Tracer:
    """Spans with their parent, aggregated per name; raw spans are kept up to
    `keep` so that a trace file stays bounded."""

    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.enabled = True
        self.spans = []        # (name, parent index or -1, start, end)
        self.dropped = 0
        self._stack = []       # [name, start, covered, span index]
        self.reset()

    def reset(self):
        """Start a new aggregation window (one pass of a workload)."""
        self.self_s = collections.defaultdict(float)
        self.total_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.coding_keys = set()

    # -- spans ---------------------------------------------------------

    def enter(self, name: str):
        idx = -1
        if len(self.spans) < self.keep:
            parent = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, parent, 0.0, 0.0))
        else:
            self.dropped += 1
        self._stack.append([name, time.perf_counter(), 0.0, idx])

    def exit(self):
        end = time.perf_counter()
        name, start, covered, idx = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - covered
        self.total_s[name] += dur
        self.calls[name] += 1
        if idx >= 0:
            self.spans[idx] = (name, self.spans[idx][1], start, end)
        if self._stack:
            self._stack[-1][2] += dur

    def charge(self, seconds: float):
        """Mark time spent in the tracer's own hooks as covered, so it lands
        in no span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    def span(self, name: str):
        return _SpanContext(self, name)

    def paused(self):
        """Context in which wrapped functions run untraced (for checks)."""
        return _Paused(self)

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                t0 = time.perf_counter()
                hook(tracer, result, args, kwargs)
                tracer.charge(time.perf_counter() - t0)
            return result

        return traced

    def counter(self, fn, hook):
        """Wrapper that only counts (no span), for helpers whose time should
        stay with their caller."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                t0 = time.perf_counter()
                hook(tracer, result, args, kwargs)
                tracer.charge(time.perf_counter() - t0)
            return result

        return counted

    def dump(self, path: str, extra: dict):
        doc = dict(extra)
        doc["dropped_spans"] = self.dropped
        doc["spans"] = [{"name": n, "parent": p, "start": s, "end": e}
                        for n, p, s, e in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


class _Paused:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.was = self.tracer.enabled
        self.tracer.enabled = False

    def __exit__(self, *exc):
        self.tracer.enabled = self.was
        return False


# ---------------------------------------------------------------------------
# counting hooks, keyed by span name


def _rows_of_sequence(tr, result, args, kwargs):
    seq = args[2] if len(args) > 2 else kwargs["seq"]
    tr.counts["scales.PrefixTable.rows"] += int(seq.horizon)


def _rows_projected(tr, result, args, kwargs):
    tr.counts["ifs.ProjectionCoding.project_rows.rows"] += int(result.shape[0])


def _coding_key(tr, result, args, kwargs):
    ifs = args[0]
    chain = args[1] if len(args) > 1 else kwargs["chain"]
    key = (ifs.A.tobytes(), ifs.T.tobytes(),
           tuple(tuple(sorted(int(k) for k in D)) for D in chain))
    if key not in tr.coding_keys:
        tr.coding_keys.add(key)
        tr.counts["ifs.build_projection_coding.distinct"] += 1


def _nodes(tr, result, args, kwargs):
    tr.counts["simulate.nodes_sampled"] += int(sum(l.size for l in result.levels))


def _draws(tr, result, args, kwargs):
    tr.counts["rng.uniform.draws"] += int(result.size)


def _bytes(tr, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tr.counts["io.bytes_written"] += os.path.getsize(path)


HOOKS = {
    "scales.PrefixTable": _rows_of_sequence,
    "ifs.ProjectionCoding.project_rows": _rows_projected,
    "ifs.build_projection_coding": _coding_key,
    "simulate.sample_tree": _nodes,
    "rng.uniform": _draws,
    "io.write_json": _bytes,
    "io.write_csv": _bytes,
}


def _boxes(tr, result, args, kwargs):
    # boxes enumerated by simulate._raster_count: the product of each
    # rectangle's grid spans, as that function computes it
    import numpy as np
    lo, size, k = args[0], args[1], args[2]
    if lo.size == 0:
        return
    eps = 1e-12
    i_lo = np.floor(lo * k + eps).astype(np.int64)
    i_hi = np.maximum(np.ceil((lo + size) * k - eps).astype(np.int64) - 1, i_lo)
    tr.counts["simulate.boxes_rasterized"] += int((i_hi - i_lo + 1).prod(axis=1).sum())


def _minimize(tr, result, args, kwargs):
    tr.counts["variational.nm_solves"] += 1
    tr.counts["variational.objective_evals"] += int(result.nfev)


COUNTERS = {
    ("simulate", "_raster_count"): _boxes,
    ("variational", "minimize"): _minimize,
}


def instrument(tracer: Tracer, package: str = "spongedim"):
    """Wrap the layers of `package`; returns a function that undoes it."""
    modules = {layer: importlib.import_module("%s.%s" % (package, layer))
               for layer in LAYERS}
    namespaces = list(modules.values()) + [importlib.import_module(package)]
    undo = []
    wrapped = {}       # id(original) -> (original, wrapper)

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            span = "%s.%s" % (layer, name)
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(span, obj, HOOKS.get(span)))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _instrument_class(tracer, obj, span, undo)

    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            hit = wrapped.get(id(obj))
            if hit is not None:
                setattr(ns, name, hit[1])
                undo.append((ns, name, obj))

    for (layer, name), hook in COUNTERS.items():
        mod = modules[layer]
        orig = getattr(mod, name)
        setattr(mod, name, tracer.counter(orig, hook))
        undo.append((mod, name, orig))

    def restore():
        for target, name, orig in reversed(undo):
            setattr(target, name, orig)

    return restore


def _instrument_class(tracer, cls, span, undo):
    own = vars(cls)
    if "__init__" in own and not dataclasses.is_dataclass(cls):
        orig = own["__init__"]
        setattr(cls, "__init__", tracer.wrap(span, orig, HOOKS.get(span)))
        undo.append((cls, "__init__", orig))
    for name, attr in list(own.items()):
        if name.startswith("_"):
            continue
        mspan = "%s.%s" % (span, name)
        if inspect.isfunction(attr):
            new = tracer.wrap(mspan, attr, HOOKS.get(mspan))
        elif isinstance(attr, (classmethod, staticmethod)):
            new = type(attr)(tracer.wrap(mspan, attr.__func__, HOOKS.get(mspan)))
        else:
            continue
        setattr(cls, name, new)
        undo.append((cls, name, attr))
