"""Outside-in tracing for the benchmark's traced runs.

The public functions of each polarkit module are replaced, at module-attribute
level and only while a traced run is measuring, by wrappers that record a
span (name, start, end, parent) per call.  polarkit's modules call each other
through module attributes, so calls made inside the library nest correctly.
Hot scalar methods (FiniteField arithmetic, Form evaluation) are only
counted, in a separate pass.  Spans stay in memory; the worker writes them
as JSON lines at exit.
The layer of ``polarkit._linalg`` is called ``linalg`` in metric names.
"""

import statistics
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from polarkit import _linalg, cli, fieldred, forms, gf, group, intriguing, manifest, polar
from polarkit import constructions as cx


def _orbit_attrs(args, kwargs, result):
    n = args[0].num_points
    return {"images": n * len(args[1]), "useful": n - result.n_orbits}


def _mulmod_attrs(args, kwargs, result):
    A, B = args[0], args[1]
    rows = A.shape[0] if A.ndim > 1 else 1
    return {"rows": rows, "bytes": 8 * (A.size + B.size + result.size)}


def _classify_attrs(args, kwargs, result):
    n, m = args[0].num_points, len(args[1])
    return {"cells": n * min(m, n - m)}


# (module, function, span name, attrs(args, kwargs, result) -> counts)
SPANNED = [
    (group, "classical_generators", "group.classical_generators",
     lambda a, k, r: {"generators": len(r)}),
    (group, "multiplier", "group.multiplier", None),
    (group, "orbits", "group.orbits", _orbit_attrs),
    (group, "vector_orbits", "group.vector_orbits", None),
    (_linalg, "mulmod", "linalg.mulmod", _mulmod_attrs),
    (gf, "field", "gf.field", None),
    (forms, "standard_form", "forms.standard_form", None),
    (polar, "build", "polar.build", lambda a, k, r: {"points": r.num_points}),
    (polar, "maximal_ts_points", "polar.maximal_ts_points", None),
    (polar, "perp_residual", "polar.perp_residual", None),
    (intriguing, "classify", "intriguing.classify", _classify_attrs),
    (intriguing, "zsigmondy", "intriguing.zsigmondy", None),
    (fieldred, "reduce", "fieldred.reduce", None),
    (fieldred, "blow_up", "fieldred.blow_up", lambda a, k, r: {"points": len(r)}),
    (manifest, "run_target", "manifest.run_target", None),
    (cli, "main", "cli.main", None),
] + [(cx, name, f"constructions.{name}", None)
     for name, obj in sorted(vars(cx).items())
     if isinstance(obj, types.FunctionType) and not name.startswith("_")
     and obj.__module__ == cx.__name__]

# (class, method, counter name): calls counted, no span
COUNTED = [(gf.FiniteField, m, "gf.scalar_ops")
           for m in ("add", "sub", "mul", "inv", "div", "pow", "frobenius")]
COUNTED += [(forms.Form, "evaluate", "forms.evaluate.calls"),
            (forms.Form, "evaluate_pair", "forms.evaluate_pair.calls")]


class Recorder:
    """Spans of the traced passes and counters of one counting pass."""

    def __init__(self):
        self.on = True
        self.spans = []          # dicts: id, parent, name, start, end, pass, attrs
        self.counts = defaultdict(int)
        self.passes = 0          # passes finished
        self._stack = []

    def end_pass(self):
        self.passes += 1

    def span(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = {"id": sid, "parent": parent, "name": name,
                   "pass": self.passes, "attrs": {}}
            self.spans.append(rec)
            self._stack.append(sid)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec["attrs"] = attrs(args, kwargs, result)
            return result
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


@contextmanager
def _patched(replacements):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    for owner, attr, fn in replacements:
        setattr(owner, attr, fn)
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def spanning(recorder):
    """Record a span per call of the SPANNED functions within the block."""
    return _patched([(owner, attr, recorder.span(name, getattr(owner, attr), attrs))
                     for owner, attr, name, attrs in SPANNED])


def counting(recorder):
    """Count the calls of the COUNTED methods within the block.  Kept apart
    from the spans: a wrapper per scalar operation would inflate the self
    time of every pure-Python layer."""
    return _patched([(owner, attr, recorder.counted(key, owner.__dict__[attr]))
                     for owner, attr, key in COUNTED])


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


# per-layer metrics: name -> unit; the order is the report order
LAYER_METRICS = {
    "group.classical_generators.calls": "count",
    "group.classical_generators.self_s": "s",
    "group.classical_generators.generators": "count",
    "group.multiplier.calls": "count",
    "group.multiplier.self_s": "s",
    "group.orbits.calls": "count",
    "group.orbits.self_s": "s",
    "group.orbits.images": "count",
    "group.orbits.useful_ratio": "ratio",
    "group.vector_orbits.self_s": "s",
    "linalg.mulmod.calls": "count",
    "linalg.mulmod.rows": "count",
    "linalg.mulmod.self_s": "s",
    "linalg.mulmod.bytes": "bytes",
    "gf.field.calls": "count",
    "gf.field.self_s": "s",
    "gf.scalar_ops": "count",
    "forms.standard_form.self_s": "s",
    "forms.evaluate.calls": "count",
    "forms.evaluate_pair.calls": "count",
    "polar.build.calls": "count",
    "polar.build.self_s": "s",
    "polar.build.points": "count",
    "polar.maximal_ts_points.self_s": "s",
    "polar.perp_residual.self_s": "s",
    "intriguing.classify.calls": "count",
    "intriguing.classify.self_s": "s",
    "intriguing.classify.cells": "count",
    "intriguing.zsigmondy.self_s": "s",
    "fieldred.reduce.self_s": "s",
    "fieldred.blow_up.self_s": "s",
    "fieldred.blow_up.points": "count",
    "constructions.self_s": "s",
    "manifest.run_target.calls": "count",
    "manifest.run_target.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
}


def pass_metrics(spans, counts):
    """Every per-layer metric of one pass, from its spans and counters."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        name = s["name"]
        if name.startswith("constructions."):
            name = "constructions"
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[s["id"]]
        for k, v in s["attrs"].items():
            out[f"{name}.{k}"] += v
    out.update(counts)
    images = out["group.orbits.images"]
    out["group.orbits.useful_ratio"] = (
        out["group.orbits.useful"] / images if images else 0.0)
    return {name: out[name] for name in LAYER_METRICS}


def layer_metrics(recorder, traced_passes):
    """Each per-layer metric: span metrics as the median over the first
    `traced_passes` passes, counters from the counting pass after them."""
    by_pass = defaultdict(list)
    for s in recorder.spans:
        by_pass[s["pass"]].append(s)
    per_pass = [pass_metrics(by_pass[i], recorder.counts)
                for i in range(traced_passes)]
    return {name: statistics.median(m[name] for m in per_pass)
            for name in LAYER_METRICS}
