"""Tests of the benchmark's own machinery: tracer, self time, output checks,
host-speed normalization.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import womplab  # noqa: E402
from womplab import TrigSystem, draw_points  # noqa: E402
from womplab.trig import TrigPolynomial  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _bindings():
    """Every function object reachable from womplab namespaces and classes."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key != "womplab" and not key.startswith("womplab."):
            continue
        for attr, val in vars(module).items():
            if inspect.isfunction(val):
                out[(key, attr)] = val
            elif inspect.isclass(val):
                for meth, fn in vars(val).items():
                    if inspect.isfunction(fn):
                        out[(key, attr, meth)] = fn
    return out


def test_instrument_restores_every_wrapped_function():
    before = _bindings()
    with tracer.instrument(tracer.Recorder()):
        during = _bindings()
        assert womplab.recovery.check_usd is not before[("womplab.recovery", "check_usd")]
        assert TrigSystem.evaluate_at is not before[("womplab.trig", "TrigSystem", "evaluate_at")]
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) > 50
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_instrument_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.instrument(tracer.Recorder()):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_under_their_caller_with_counters():
    system = TrigSystem(1, (3,))
    pts = draw_points(40, 1, seed=1)
    f0 = TrigPolynomial(1, {(k,): 1.0 / (1 + abs(k)) for k in range(-3, 4)})
    rec = tracer.Recorder()
    with tracer.instrument(rec):
        womplab.recovery.recover(f0, system, pts, v=1)
    names = [s[0] for s in rec.spans]
    top = [s for s in rec.spans if s[3] < 0]
    assert [s[0] for s in top] == ["recovery.recover"]
    cert = rec.spans[names.index("discretization.check_usd")]
    assert rec.spans[cert[3]][0] == "recovery.recover"
    assert cert[4] == {"supports": 35, "holds": cert[4]["holds"]}  # C(7, 3)
    totals = tracer.layer_totals(rec.spans)
    assert totals["greedy.womp"]["steps"] == 2
    assert totals["trig.TrigSystem.evaluate_at"]["entries"] == 40 * 7
    assert rec.stack == [-1]


def test_self_time_is_duration_minus_child_time():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 7.5, 0, None],
        ["d", 8.0, 9.0, 0, {"n": 3}],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 2.5, 1.0])
    totals = tracer.layer_totals(spans)
    assert totals["a"] == {"calls": 1, "busy_s": 10.0, "self_s": pytest.approx(3.5)}
    assert totals["b"]["calls"] == 2
    assert totals["b"]["busy_s"] == pytest.approx(5.5)
    assert totals["d"]["n"] == 3
    assert tracer.top_level_seconds(spans) == 10.0


def test_recursive_span_counts_busy_time_once():
    spans = [["f", 0.0, 4.0, -1, None], ["f", 1.0, 2.0, 0, None]]
    totals = tracer.layer_totals(spans)
    assert totals["f"]["busy_s"] == 4.0
    assert totals["f"]["self_s"] == pytest.approx(4.0)


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def test_reference_passes_its_own_check(reference):
    for name in ("certified", "sweep", "adversary"):
        ref = reference.get(name)
        if ref is None:
            continue
        assert all(not p for p in checks.check_pass(name, copy.deepcopy(ref), ref))


def test_check_fails_on_a_nudged_c_low(reference):
    ref = reference["certified"]
    observed = copy.deepcopy(ref)
    observed[3]["c_low"] += 1e-9
    problems = checks.check_pass("certified", observed, ref)
    assert [bool(p) for p in problems] == [i == 3 for i in range(len(ref))]


def test_check_fails_on_a_swapped_womp_selection(reference):
    for name, items in (("certified", lambda s: s),
                        ("sweep", lambda s: s["cells"])):
        ref = reference[name]
        observed = copy.deepcopy(ref)
        sel = items(observed)[0]["selected"]
        sel[0], sel[1] = sel[1], sel[0]
        problems = checks.check_pass(name, observed, ref)
        assert problems[0] and not any(problems[1:])


def test_check_fails_on_a_moved_slope(reference):
    ref = reference["sweep"]
    observed = copy.deepcopy(ref)
    observed["slopes"]["2"] += 2e-4
    assert all(checks.check_pass("sweep", observed, ref))


def test_invariants_without_reference():
    item = {"c_low": 0.4, "c_high": 1.2, "holds": True, "worst_support": [0],
            "selected": [1, 2], "residual_norms": [2.0, 1.0, 1.5],
            "error_lp_mu": float("nan"), "sigma_discrete": 1.0, "sigma_ref": 1.0}
    problems = checks.check_certified(item)
    assert len(problems) == 3  # holds outside [1/2, 3/2], rising residual, nan
    gap = {"vanishing_defect": 1e-15, "recovery_fooled": True,
           "recovery_errors": [2.0, 2.0 + 1e-6], "norm_p": 2.0}
    assert checks.check_adversary(gap)  # zero-recovery error != norm_p


def test_norm_pass_time_ignores_a_uniform_host_slowdown():
    times, kernel = [1.0, 1.2, 1.1], [0.2, 0.24, 0.22]
    quiet = run.norm_pass_seconds(times, kernel)
    assert quiet == pytest.approx(5.0 * calibration.REFERENCE_S)
    slow = run.norm_pass_seconds([1.3 * t for t in times], [1.3 * k for k in kernel])
    assert slow == pytest.approx(quiet)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
