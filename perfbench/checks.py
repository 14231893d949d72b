"""Output checks for the benchmark workloads.

Every item gets the invariants that need no reference.  On the default
seed the items are also compared with `reference_seed0.json`, recorded by
`record_reference.py` from the unmodified library: certificate extremes to
1e-12 and the worst support exactly, greedy selections and `holds` exactly,
errors and sigmas to a relative 1e-6, and sweep slopes to 1e-4.

Each check returns a list of problems; an empty list means the item passed.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_seed0.json")

C_TOL = 1e-12
REL_TOL = 1e-6
SLOPE_TOL = 1e-4
DEFECT_MAX = 1e-9
ZERO_RECOVERY_REL_TOL = 1e-9
# Residual norms of nested projections may rise by roundoff only.
RESIDUAL_RISE_REL = 1e-12
LOWER_CONST, UPPER_CONST = 0.5, 1.5


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _rel_close(a, b, tol=REL_TOL) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _residuals_problems(norms) -> list:
    slack = RESIDUAL_RISE_REL * max(1.0, norms[0])
    if any(b > a + slack for a, b in zip(norms, norms[1:])):
        return [f"residual norm increased: {norms}"]
    return []


def _finite_problems(values: dict) -> list:
    return [f"{k} is not finite: {v}" for k, v in values.items()
            if v is not None and not math.isfinite(v)]


def check_certified(item: dict, ref: dict | None = None) -> list:
    problems = []
    if not item["c_low"] <= item["c_high"]:
        problems.append(f"c_low {item['c_low']} > c_high {item['c_high']}")
    in_band = LOWER_CONST <= item["c_low"] and item["c_high"] <= UPPER_CONST
    if item["holds"] != in_band:
        problems.append(f"holds={item['holds']} disagrees with "
                        f"[{item['c_low']}, {item['c_high']}]")
    problems += _residuals_problems(item["residual_norms"])
    problems += _finite_problems({k: item[k] for k in
                                  ("error_lp_mu", "sigma_discrete", "sigma_ref")})
    if ref is None:
        return problems
    for key in ("c_low", "c_high"):
        if abs(item[key] - ref[key]) > C_TOL:
            problems.append(f"{key} {item[key]!r} != reference {ref[key]!r}")
    for key in ("worst_support", "holds", "selected"):
        if item[key] != ref[key]:
            problems.append(f"{key} {item[key]} != reference {ref[key]}")
    for key in ("error_lp_mu", "sigma_discrete", "sigma_ref"):
        if not _rel_close(item[key], ref[key]):
            problems.append(f"{key} {item[key]!r} != reference {ref[key]!r}")
    return problems


def check_sweep_cell(cell: dict, ref: dict | None = None) -> list:
    problems = _residuals_problems(cell["residual_norms"])
    problems += _finite_problems({f"error p={p}": e for p, e in cell["errors"].items()})
    if ref is None:
        return problems
    if cell["selected"] != ref["selected"]:
        problems.append(f"selected {cell['selected']} != reference {ref['selected']}")
    for p, err in cell["errors"].items():
        if not _rel_close(err, ref["errors"].get(p)):
            problems.append(f"error p={p} {err!r} != reference {ref['errors'].get(p)!r}")
    return problems


def check_sweep_slopes(slopes: dict | None, ref: dict | None = None) -> list:
    if slopes is None:
        return ["no slopes"]
    problems = _finite_problems({f"slope p={p}": s for p, s in slopes.items()})
    if ref is not None:
        if set(slopes) != set(ref):
            problems.append(f"slopes for p in {sorted(slopes)}, reference {sorted(ref)}")
        for p in set(slopes) & set(ref):
            if abs(slopes[p] - ref[p]) > SLOPE_TOL:
                problems.append(f"slope p={p} {slopes[p]!r} != reference {ref[p]!r}")
    return problems


def check_adversary(item: dict, ref: dict | None = None) -> list:
    """Same on every seed: the construction carries its own certificate."""
    problems = []
    if not item["vanishing_defect"] <= DEFECT_MAX:
        problems.append(f"vanishing defect {item['vanishing_defect']} > {DEFECT_MAX}")
    if item["recovery_fooled"] is not True:
        problems.append("zero-data recovery was not fooled")
    err = max(item["recovery_errors"])
    if not abs(err - item["norm_p"]) <= ZERO_RECOVERY_REL_TOL * item["norm_p"]:
        problems.append(f"zero-recovery error {err!r} != norm_p {item['norm_p']!r}")
    return problems


def check_pass(workload: str, summary, ref) -> list:
    """Problems per item of one pass, in item order (empty list: passed)."""
    shared = []  # problems of the pass as a whole, charged to every item
    if workload == "sweep":
        items, refs = summary["cells"], ref and ref["cells"]
        shared = check_sweep_slopes(summary["slopes"], ref and ref["slopes"])
        check = check_sweep_cell
    else:
        items, refs = summary, ref
        check = check_certified if workload == "certified" else check_adversary
    if refs is None:
        refs = [None] * len(items)
    elif len(refs) != len(items):
        return [["item count differs from the reference"]] * len(items)
    return [(check(item, r) if isinstance(item, dict) else [repr(item)]) + shared
            for item, r in zip(items, refs)]
