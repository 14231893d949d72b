"""In-memory span tracer for the womplab layers.

`instrument(recorder)` wraps every public function defined in a layer
module, and every public method of the classes those modules define, in
every ``womplab`` namespace that binds it: a function imported with
``from .x import y`` is looked up in the importing module's globals, so
patching only its home module would miss those calls.  Each call records a
span (name, start, end, parent) plus a few work counters derived from its
arguments or result.  Leaving the context puts every original back.

The tracer keeps one call stack, so it assumes the traced code runs on one
thread; the benchmark drives every workload single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time

from womplab.trig import quadrature_grid_size

PACKAGE = "womplab"
LAYERS = ("trig", "classes", "discretization", "greedy", "recovery",
          "experiments")


class Recorder:
    """Spans of the calls made while instrumented, kept in memory.

    Each span is a list ``[name, start, end, parent, counters]``; parent is
    the index of the enclosing span, or -1 for a top-level call.
    """

    def __init__(self):
        self.spans = []
        self.stack = [-1]

    def clear(self):
        self.spans = []
        self.stack = [-1]


# ------------------------------------------------------------- work counters
# Each counter takes the call's result followed by its arguments, with the
# parameter names of the wrapped function, and returns integer counts.

def _check_usd(res, sampled, u, p=2.0, mode="two-sided", method="exhaustive",
               trials=500, *args, **kwargs):
    supports = math.comb(sampled.size, u) if method == "exhaustive" else trials
    return {"supports": supports, "holds": int(res.holds)}


def _womp(res, *args, **kwargs):
    return {"steps": res.steps, "rank_deficient": int(res.rank_deficient)}


def _best_vterm(res, h, target, v, *args, **kwargs):
    return {"supports": math.comb(h.size, v) if v else 0}


def _best_vterm_l2_muxi(res, f0, sampled, v, *args, **kwargs):
    return {"supports": math.comb(sampled.size, v) if v else 0}


def _evaluate_at(res, *args, **kwargs):
    return {"entries": res.size}


def _poly_eval(res, poly, *args, **kwargs):
    return {"entries": res.shape[0] * len(poly.coeffs)}


def _lp_norm(res, poly, p, measure="mu", pointset=None, oversample=8):
    if measure == "mu_m":
        return {"grid_points": 0}
    n = quadrature_grid_size(poly.degree, p, oversample)
    return {"grid_points": n ** poly.dim}


def _multiply(res, f, g):
    return {"term_pairs": len(f.coeffs) * len(g.coeffs)}


def _make_fooling(res, *args, **kwargs):
    theta = math.prod(2 * b + 1 for b in res.box)
    return {"svd_entries": res.pointset.m * theta}


COUNTERS = {
    "discretization.check_usd": _check_usd,
    "greedy.womp": _womp,
    "greedy.best_vterm": _best_vterm,
    "recovery.best_vterm_l2_muxi": _best_vterm_l2_muxi,
    "trig.TrigSystem.evaluate_at": _evaluate_at,
    "trig.TrigPolynomial.eval": _poly_eval,
    "trig.lp_norm": _lp_norm,
    "trig.multiply": _multiply,
    "recovery.make_fooling": _make_fooling,
}


def _wrap(fn, name, recorder):
    count = COUNTERS.get(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        spans, stack = recorder.spans, recorder.stack
        span = [name, 0.0, 0.0, stack[-1], None]
        stack.append(len(spans))
        spans.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        if count is not None:
            span[4] = count(result, *args, **kwargs)
        return result

    return traced


def _public_functions(obj):
    return [(attr, val) for attr, val in vars(obj).items()
            if not attr.startswith("_") and inspect.isfunction(val)]


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Record spans of every layer call made inside the ``with`` block."""
    patches = []  # (owner, attribute, original), undone in reverse order
    wrappers = {}  # original module-level function -> its wrapper
    try:
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, val in vars(module).items():
                if attr.startswith("_") or getattr(val, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(val):
                    wrappers[val] = _wrap(val, f"{layer}.{attr}", recorder)
                elif inspect.isclass(val):
                    for meth, fn in _public_functions(val):
                        name = f"{layer}.{val.__qualname__}.{meth}"
                        patches.append((val, meth, fn))
                        setattr(val, meth, _wrap(fn, name, recorder))
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in namespaces:
            for attr, val in _public_functions(module):
                if val in wrappers:
                    patches.append((module, attr, val))
                    setattr(module, attr, wrappers[val])
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ----------------------------------------------------------------- analysis

def self_times(spans) -> list:
    """Per span: its duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, busy_s, self_s and summed counters.

    busy_s sums durations of the spans with no enclosing span of the same
    name, so a recursive call is not counted twice.
    """
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        row = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["busy_s"] += span[2] - span[1]
        for key, val in (span[4] or {}).items():
            row[key] = row.get(key, 0) + val
    return totals


def top_level_seconds(spans) -> float:
    """Total duration of the spans that no other span encloses."""
    return sum(span[2] - span[1] for span in spans if span[3] < 0)
