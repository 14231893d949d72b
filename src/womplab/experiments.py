"""Experiment drivers behind the command-line interface.

Each driver takes a plain config dict (already merged from defaults, an
optional INI file, and CLI overrides), runs one experiment family, writes
CSV output, and returns the record objects.  Every CSV starts with a
comment line echoing the section config, so any row can be reproduced
from the file alone.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from dataclasses import dataclass, replace

import numpy as np

from .classes import (PROFILES, ClassSpec, default_truncation_level,
                      sample_class_function)
from .discretization import (METHODS, MODES, DiscretizationReport, PointSet,
                             SubsetCapError, build_sampled, check_usd,
                             draw_points, read_pointset, uniform_grid_points,
                             write_pointset)
from .recovery import (RecoveryReport, adversary_gap, recover, reconstruct,
                       write_fooling)
from .greedy import SELECTIONS, womp
from .trig import TrigPolynomial, TrigSystem, lp_norm


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


# Sampled entries m N at the top of README's scope (12,000 samples of
# 2,001 columns); a larger rate-sweep cell is refused before it runs.
SCOPE_ENTRIES = 12_000 * 2_001


DEFAULTS = {
    "common": {
        "seed": 0,
        "out": "womplab-out",
    },
    "find-points": {
        "d": 1,
        "degree": 4,
        "u": 2,
        "m0": 8,
        "m_cap": 4096,
        "mode": "two-sided",
        "grid": False,
    },
    "check-disc": {
        "d": 1,
        "degree": 4,
        "u": 2,
        "p": 2.0,
        "mode": "two-sided",
        "method": "exhaustive",
        "trials": 500,
        "m": 64,
        "points_file": "",
        "grid": False,
    },
    "recover": {
        "d": 1,
        "degree": 4,
        "v": 1,
        "p": 2.0,
        "t": 1.0,
        "c_emp": 2.0,
        "m": 64,
        "target": "dense",
        "sparsity": 2,
        "r": 2.0,
        "beta": 1.0,
        "J": -1,  # -1 means the default level for the given v
        "density": 0.5,
        "selection": "argmax",
        "certify": True,
        "points_file": "",
    },
    "rate-sweep": {
        "d": 1,
        "r": 2.0,
        "beta": 1.0,
        "profile": "saturated-spread",
        "density": 0.5,
        "p_list": "2,4",
        "v_list": "1,2,3,4,6,8",
        "seeds": 20,
        "a": 30.0,
        "t": 1.0,
        "c_emp": 2.0,
        "certify": False,
        "J": -1,
    },
    "fooling": {
        "d": 1,
        "box_list": "8,16,32",
        "m_rule": "quarter",
        "m_list": "",
        "seeds": 10,
        "p": 4.0,
        "q": 2.0,
    },
}


def _at_least(lo):
    return (lambda x: x >= lo), f"expected >= {lo}"


# The values each key accepts: a tuple of choices, or a test with the
# phrase its refusal prints.  A (section, key) entry overrides the key's
# own, and a *_list key is checked entry by entry.  The drivers check only
# what needs a derived value: N, theta, J against degree, the caps.
VALID = {
    **dict.fromkeys(("d", "u", "v", "m", "m0", "m_cap", "trials",
                     "seeds", "v_list", "box_list", "p", "q"), _at_least(1)),
    **dict.fromkeys(("seed", "degree", "m_list", "c_emp"), _at_least(0)),
    **dict.fromkeys((("recover", "p"), "p_list"),
                    ((lambda x: x >= 2), "recovery guarantees need p >= 2")),
    ("check-disc", "p"): ((lambda x: 1 <= x < math.inf), "expected 1 <= p < inf"),
    "J": _at_least(-1),
    "t": ((lambda x: 0 < x <= 1), "expected 0 < t <= 1"),
    "r": ((lambda x: x > 0), "expected > 0"),
    "a": ((lambda x: x > 0), "expected > 0"),
    "beta": ((lambda x: 0 < x <= 2), "expected 0 < beta <= 2"),
    "density": ((lambda x: 0 < x <= 1), "expected 0 < density <= 1"),
    "mode": MODES, "method": METHODS, "selection": SELECTIONS,
    "target": ("dense", "sparse") + PROFILES, "profile": PROFILES,
    "m_rule": ("quarter", "explicit"),
}


def default_config() -> dict:
    return deepcopy(DEFAULTS)


def dump_config(cfg: dict) -> str:
    """Render a config dict in the INI format parse_config reads."""
    lines = []
    for section in cfg:
        lines.append(f"[{section}]")
        for key, val in cfg[section].items():
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def _coerce(section, key, raw, default):
    if isinstance(default, bool):
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(str(raw).strip())
        if isinstance(default, float):
            return float(str(raw).strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    return str(raw).strip()


def parse_config(path: str | None, overrides: dict | None = None) -> dict:
    """Merge DEFAULTS <- INI file <- CLI overrides into one config dict.

    A key its section does not declare, or a value that VALID rejects,
    raises ConfigError naming the key.
    """
    cfg = default_config()
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (J vs j)
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from None
        for section in parser.sections():
            if section not in cfg:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                # an undeclared key stays a string, for _check to refuse
                cfg[section][key] = _coerce(section, key, raw, cfg[section].get(key))
    for key, val in (overrides or {}).items():
        if val is not None:
            cfg["common"][key] = val
    for section, values in cfg.items():
        _check(section, values)
    return cfg


def _numbers(sec, section, key):
    """Entries of a list key; only m_list, unused by m_rule = quarter, may be empty."""
    kind, noun = (float, "numbers") if key == "p_list" else (int, "integers")
    try:
        vals = [kind(tok) for tok in str(sec[key]).replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected {noun}, "
                          f"got {sec[key]!r}") from None
    if not vals and key != "m_list":
        raise ConfigError(f"[{section}] {key}: empty list")
    return vals


def _check(section, sec):
    """Refuse the first key of a config section that DEFAULTS does not
    declare, or the first value that VALID rejects."""
    for key, val in sec.items():
        if key not in DEFAULTS[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        rule = VALID.get((section, key), VALID.get(key))
        for x in _numbers(sec, section, key) if key.endswith("_list") else (val,):
            if rule and isinstance(rule[0], str) and x not in rule:
                raise ConfigError(f"[{section}] {key}: expected one of "
                                  f"{', '.join(rule)}, got {x!r}")
            if rule and callable(rule[0]) and not rule[0](x):
                raise ConfigError(f"[{section}] {key}: {rule[1]}, got {x:.12g}")


def _echo(section_cfg) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(section_cfg.items()))


def _write_csv(path, header, rows, echo):
    with open(path, "w") as fh:
        fh.write(f"# config: {echo}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _outdir(cfg) -> str:
    out = cfg["common"]["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _pointset_from(sec, section, system, seed):
    if sec.get("points_file"):
        pts = read_pointset(sec["points_file"])
        if pts.dim != system.dim:
            raise ConfigError(f"[{section}] points_file: {sec['points_file']} "
                              f"holds points of dimension {pts.dim}, the "
                              f"system has d = {system.dim}")
        return pts
    if sec.get("grid"):
        try:
            return uniform_grid_points(2 * max(system.box) + 1, system.dim)
        except ValueError as exc:
            raise ConfigError(f"[{section}] grid: {exc}") from None
    return draw_points(sec["m"], system.dim, seed)


# ---------------------------------------------------------------- find-points

def run_find_points(cfg: dict):
    """Double m until the two-sided certificate holds; emit the trail.

    Returns (pointset_or_None, list_of_reports).  Attempt k redraws points
    with seed seed+k, so the trail is reproducible row by row.  Failure to
    certify within the cap is reported, not raised.
    """
    sec = cfg["find-points"]
    seed = cfg["common"]["seed"]
    d, degree, u = sec["d"], sec["degree"], sec["u"]
    system = TrigSystem(d, (degree,) * d)
    if u > system.size:
        raise ConfigError(f"[find-points] u: {u} exceeds the system size {system.size}")
    attempts = ([_pointset_from(sec, "find-points", system, seed)] if sec["grid"]
                else (draw_points(sec["m0"] << k, d, seed + k)
                      for k in range((sec["m_cap"] // sec["m0"]).bit_length())))
    reports, found = [], None
    try:
        for pts in attempts:
            reports.append(check_usd(build_sampled(system, pts), u, 2.0,
                                     sec["mode"], "exhaustive"))
            if reports[-1].holds:
                found = pts
                break
    except SubsetCapError as exc:
        raise ConfigError(f"[find-points] u: {exc}") from None

    out = _outdir(cfg)
    echo = _echo({**sec, "seed": seed})
    _write_csv(os.path.join(out, "find_points_trail.csv"),
               DiscretizationReport.CSV_HEADER,
               [r.csv_row() for r in reports], echo)
    if found is not None:
        write_pointset(found, os.path.join(out, "points.txt"))
    return found, reports


# ----------------------------------------------------------------- check-disc

def run_check_disc(cfg: dict) -> DiscretizationReport:
    sec = cfg["check-disc"]
    seed = cfg["common"]["seed"]
    system = TrigSystem(sec["d"], (sec["degree"],) * sec["d"])
    pts = _pointset_from(sec, "check-disc", system, seed)
    if sec["u"] > system.size:
        raise ConfigError(f"[check-disc] u: expected 1 to N = {system.size}, "
                          f"got {sec['u']}")
    if sec["p"] != 2 and sec["method"] == "exhaustive":
        raise ConfigError(f"[check-disc] p: p = {sec['p']:g} checks are "
                          "randomized searches only; use [check-disc] method = "
                          "randomized")
    try:
        rep = check_usd(build_sampled(system, pts), sec["u"], sec["p"],
                        sec["mode"], sec["method"], sec["trials"], seed)
    except SubsetCapError as exc:
        raise ConfigError(f"[check-disc] u: {exc}; use [check-disc] method = "
                          "randomized") from None
    out = _outdir(cfg)
    _write_csv(os.path.join(out, "discretization.csv"),
               DiscretizationReport.CSV_HEADER, [rep.csv_row()],
               _echo({**sec, "seed": seed}))
    return rep


# -------------------------------------------------------------------- recover

def _make_target(sec, system, seed):
    kind = sec["target"]
    rng = np.random.default_rng(seed)
    if kind == "dense":
        coeff = rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size)
        return TrigPolynomial(system.dim,
                              dict(zip(system.indices(), coeff)))
    if kind == "sparse":
        v = sec["sparsity"]
        if not 0 <= v <= system.size:
            raise ConfigError(f"[recover] sparsity: expected 0 to "
                              f"N = {system.size}, got {v}")
        cols = rng.choice(system.size, size=v, replace=False)
        coeff = rng.standard_normal(v) + 1j * rng.standard_normal(v)
        return reconstruct(system, cols, coeff)
    J = sec["J"] if sec["J"] >= 0 else default_truncation_level(sec["v"])
    if 2 ** (J + 1) - 1 > max(system.box):
        raise ConfigError(f"[recover] J: truncation level J={J} needs box "
                          f"degree >= {2 ** (J + 1) - 1}")
    return sample_class_function(ClassSpec(sec["r"], sec["beta"], J), kind,
                                 seed, dim=system.dim, density=sec["density"])


def run_recover(cfg: dict):
    sec = cfg["recover"]
    seed = cfg["common"]["seed"]
    system = TrigSystem(sec["d"], (sec["degree"],) * sec["d"])
    pts = _pointset_from(sec, "recover", system, seed)
    if pts.m == 0:
        raise ConfigError(f"[recover] points_file: {sec['points_file']} holds no points")
    u = math.ceil((1 + sec["c_emp"]) * sec["v"])
    if u > system.size:
        raise ConfigError(f"[recover] v: u = ceil((1 + c_emp) v) = {u} "
                          f"exceeds the dictionary size N = {system.size}")
    f0 = _make_target(sec, system, seed)
    report = recover(f0, system, pts, v=sec["v"], p=sec["p"], t=sec["t"],
                     c_emp=sec["c_emp"], certify=sec["certify"],
                     selection=sec["selection"], seed=seed)
    out = _outdir(cfg)
    echo = _echo({**sec, "seed": seed})
    _write_csv(os.path.join(out, "recovery.csv"),
               type(report).CSV_HEADER, [report.csv_row()], echo)
    _write_csv(os.path.join(out, "womp_trace.csv"), report.trace.CSV_HEADER,
               report.trace.csv_rows(), echo)
    return report


# ----------------------------------------------------------------- rate-sweep

@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(median error) against log v."""

    p: float
    v_values: tuple
    medians: tuple
    slope: float
    intercept: float
    target_exponent: float
    n_seeds: int


def target_exponent(p: float, beta: float, r: float, d: int) -> float:
    """Predicted decay exponent 1 - 1/p - 1/beta - r/d of the error in v."""
    return 1.0 - 1.0 / p - 1.0 / beta - r / d


def schedule_m(v: int, a: float) -> int:
    """Sample budget a * v * log(2v)^4."""
    return int(math.ceil(a * v * math.log(2 * v) ** 4))


def fit_rate(v_values, medians, p, target, n_seeds) -> RateFit:
    """Fit the decay slope; refuses with fewer than 4 surviving v points."""
    keep = [(v, e) for v, e in zip(v_values, medians) if e > 0]
    if len(keep) < 4:
        raise ValueError(f"only {len(keep)} usable v values; need at least 4")
    lv = np.log([v for v, _ in keep])
    le = np.log([e for _, e in keep])
    slope, intercept = np.polyfit(lv, le, 1)
    return RateFit(float(p), tuple(v for v, _ in keep), tuple(e for _, e in keep),
                   float(slope), float(intercept), target, n_seeds)


def _cell_shape(sec, v):
    """Truncation level J, box system (degree 2^J - 1) and sample budget
    of the sweep cells at v."""
    J = sec["J"] if sec["J"] >= 0 else default_truncation_level(v)
    return J, TrigSystem(sec["d"], (2 ** J - 1,) * sec["d"]), schedule_m(v, sec["a"])


def _sweep_cell(args):
    """One (v, seed) cell: draw points, sample the target, recover, measure."""
    sec, base_seed, v, seed_idx = args
    d = sec["d"]
    J, system, m = _cell_shape(sec, v)
    spec = ClassSpec(sec["r"], sec["beta"], J)
    cell_seed = base_seed + 100_003 * v + seed_idx
    pts = draw_points(m, d, cell_seed)
    f0 = sample_class_function(spec, sec["profile"], cell_seed, dim=d,
                               density=sec["density"])
    p_list = _numbers(sec, "rate-sweep", "p_list")
    report = recover(f0, system, pts, v=v, p=p_list[0], t=sec["t"],
                     c_emp=sec["c_emp"], certify=sec["certify"],
                     compute_sigma=False, seed=seed_idx)
    errors = {p_list[0]: report.error_lp_mu}
    for p in p_list[1:]:
        errors[p] = lp_norm(f0 - report.approximant, p, "mu")
    return {"v": v, "seed": seed_idx, "m": m, "J": J, "size": system.size,
            "steps": report.trace.steps, "errors": errors, "report": report}


def rate_sweep_compute(sec: dict, base_seed: int = 0, threads: int = 1):
    """Run all sweep cells and fit slopes; returns (cells, fits, dropped_v).

    Pure compute path (no files), shared by the CLI driver and the
    acceptance gate, so it checks its section itself, before any cell
    runs.  A v whose sample budget falls below its greedy step count is
    dropped and reported back; a section that leaves the fit fewer than
    4 distinct v, repeats a p, or has a cell with u above N or with more
    than SCOPE_ENTRIES sampled entries is refused.
    """
    _check("rate-sweep", sec)
    v_list = _numbers(sec, "rate-sweep", "v_list")
    p_list = _numbers(sec, "rate-sweep", "p_list")
    if len(set(v_list)) < len(v_list) or len(v_list) < 4:
        raise ConfigError(f"[rate-sweep] v_list: expected at least 4 entries, "
                          f"none repeated, got {sec['v_list']!r}")
    if len(set(p_list)) < len(p_list):
        raise ConfigError(f"[rate-sweep] p_list: expected no repeated entry, "
                          f"got {sec['p_list']!r}")
    dropped = sorted(v for v in v_list
                     if schedule_m(v, sec["a"]) < math.ceil(sec["c_emp"] * v))
    kept = [v for v in v_list if v not in dropped]
    if len(kept) < 4:
        raise ConfigError(f"[rate-sweep] a: a = {sec['a']:g} gives fewer "
                          f"samples than greedy steps at v = "
                          f"{', '.join(map(str, dropped))}, leaving "
                          f"{len(kept)} v; the fit needs 4")
    for v in kept:
        _, system, m = _cell_shape(sec, v)
        n, u = system.size, math.ceil((1 + sec["c_emp"]) * v)
        if u > n:
            raise ConfigError(f"[rate-sweep] c_emp: at v = {v}, u = ceil((1 + "
                              f"c_emp) v) = {u} exceeds the dictionary size N = {n}")
        if m * n > SCOPE_ENTRIES:
            raise ConfigError(f"[rate-sweep] v_list: v = {v} takes m = {m} "
                              f"samples of N = {n} columns, {m * n:,} entries; "
                              f"the scope ends at {SCOPE_ENTRIES:,}")
    n_seeds = sec["seeds"]
    jobs = [(sec, base_seed, v, s) for v in kept for s in range(n_seeds)]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(_sweep_cell, jobs))
    else:
        cells = [_sweep_cell(job) for job in jobs]

    fits = {}
    for p in p_list:
        medians = [float(np.median([c["errors"][p] for c in cells if c["v"] == v]))
                   for v in kept]
        fits[p] = fit_rate(kept, medians, p,
                           target_exponent(p, sec["beta"], sec["r"], sec["d"]),
                           n_seeds)
    return cells, fits, dropped


def run_rate_sweep(cfg: dict):
    """Full decay-rate experiment; returns (cells, fits dict keyed by p)."""
    sec = cfg["rate-sweep"]
    base_seed = cfg["common"]["seed"]
    cells, fits, dropped = rate_sweep_compute(sec, base_seed)
    p_list = _numbers(sec, "rate-sweep", "p_list")

    out = _outdir(cfg)
    echo = _echo({**sec, "seed": base_seed})
    rows = [replace(c["report"], p=p, error_lp_mu=c["errors"][p]).csv_row()
            for c in cells for p in p_list]
    _write_csv(os.path.join(out, "rate_cells.csv"), RecoveryReport.CSV_HEADER,
               rows, echo)

    summary = {}
    for p, fit in fits.items():
        with open(os.path.join(out, f"rate_medians_p{p:g}.dat"), "w") as fh:
            fh.write(f"# log(v) log(median_error)  slope={fit.slope:.6g} "
                     f"intercept={fit.intercept:.6g} target={fit.target_exponent:g}\n")
            for v, e in zip(fit.v_values, fit.medians):
                fh.write(f"{math.log(v):.12g} {math.log(e):.12g}\n")
        summary[f"p={p:g}"] = {
            "slope": fit.slope, "intercept": fit.intercept,
            "target_exponent": fit.target_exponent,
            "v_values": list(fit.v_values), "medians": list(fit.medians),
            "seeds": fit.n_seeds, "dropped_v": dropped,
        }
    with open(os.path.join(out, "rate_fit.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return cells, fits


# -------------------------------------------------------------------- fooling

def zero_data_recovery(system: TrigSystem, pts):
    """Sample-based recovery map used against the adversary: greedy on the
    box dictionary.  On all-zero samples it returns the zero polynomial."""
    if pts.m == 0:
        return lambda samples: TrigPolynomial(system.dim, {})
    sampled = build_sampled(system, pts)

    def recover_map(samples):
        trace = womp(sampled, samples, steps=min(sampled.m, sampled.size))
        return reconstruct(system, trace.selected, trace.coefficients)

    return recover_map


def run_fooling(cfg: dict):
    """Adversary grid over box sizes; returns the list of gap records."""
    sec = cfg["fooling"]
    seed = cfg["common"]["seed"]
    d = sec["d"]
    boxes = _numbers(sec, "fooling", "box_list")
    if sec["m_rule"] == "quarter":
        m_list = [TrigSystem(d, (b,) * d).size // 4 for b in boxes]
    else:
        m_list = _numbers(sec, "fooling", "m_list")
        if len(m_list) != len(boxes):
            raise ConfigError(f"[fooling] m_list: expected {len(boxes)} "
                              f"entries, one per box, got {len(m_list)}")
        for box, m in zip(boxes, m_list):
            half = (2 * box + 1) ** d / 2
            if m > half:
                raise ConfigError(f"[fooling] m_list: m = {m} exceeds theta/2 = {half} on box {box}")

    out = _outdir(cfg)
    records = []
    rows = []
    for box, m in zip(boxes, m_list):
        system = TrigSystem(d, (box,) * d)
        theta = system.size
        for s in range(sec["seeds"]):
            pts = (draw_points(m, d, seed + 7919 * box + s) if m > 0
                   else PointSet(d, np.zeros((0, d))))
            gap = adversary_gap(pts, (box,) * d, p=sec["p"], q=sec["q"],
                                recovery=zero_data_recovery(system, pts))
            records.append(gap)
            inst = gap.instance
            ratio = gap.guaranteed_error / theta ** (1 - 1 / sec["p"])
            rows.append(f"{box},{theta},{m},{s},{inst.norm_q:.12g},"
                        f"{inst.norm_p:.12g},{gap.guaranteed_error:.12g},"
                        f"{ratio:.12g},{inst.vanishing_defect:.3g},"
                        f"{gap.recovery_fooled}")
            if s == 0:
                write_fooling(inst, os.path.join(out, f"fooling_box{box}.txt"))
    _write_csv(os.path.join(out, "fooling.csv"),
               "box,theta,m,seed,norm_q,norm_p,guaranteed_error,"
               "ratio_to_theta,vanishing_defect,recovery_fooled",
               rows, _echo({**sec, "seed": seed}))
    return records
