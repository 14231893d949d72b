"""Experiment drivers behind the command-line interface.

Each driver takes a plain config dict (already merged from defaults, an
optional INI file, and CLI overrides), runs one experiment family, writes
CSV output, and returns the record objects.  Every CSV starts with a
comment line echoing the section config and the seed, so any row can be
reproduced from the file alone.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import statistics
from copy import deepcopy
from dataclasses import dataclass, replace

import numpy as np

from .classes import (PROFILES, ClassSpec, default_truncation_level,
                      sample_class_function)
from .discretization import (METHODS, MODES, DiscretizationReport, PointSet,
                             SubsetCapError, build_sampled, check_usd,
                             draw_points, read_pointset, uniform_grid_points,
                             write_pointset)
from .recovery import (EXACT_RECOVERY_REL_TOL, RecoveryReport, adversary_gap,
                       recover, write_fooling)
from .greedy import SELECTIONS, _samples, womp
from .trig import TrigPolynomial, TrigSystem, lp_norms, reconstruct


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
    """Entries of a list key; only m_list, empty for theta/4 per box, may be empty."""
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


def _write_csv(cfg, section, name, header, rows) -> str:
    """Make the output directory and write the table `name` in it: a `# config:`
    line echoing cfg[section] and the common seed, the header, the rows."""
    out = cfg["common"]["out"]
    os.makedirs(out, exist_ok=True)
    echo = sorted({**cfg[section], "seed": cfg["common"]["seed"]}.items())
    with open(os.path.join(out, name), "w") as fh:
        fh.write("# config: " + " ".join(f"{k}={v}" for k, v in echo) + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return out


def _check_scope(section, key, m, noun, system):
    """Refuse m points of `system` past SCOPE_ENTRIES sampled entries."""
    entries = m * system.size
    if entries > SCOPE_ENTRIES:
        raise ConfigError(f"[{section}] {key}: {m} {noun} of N = {system.size} "
                          f"columns are {entries:,} entries; the scope ends "
                          f"at {SCOPE_ENTRIES:,}")


def _pointset_from(sec, section, system, seed):
    if sec.get("points_file") and sec.get("grid"):
        raise ConfigError(f"[{section}] grid: expected false when "
                          "points_file is set, got true")
    if sec.get("points_file"):
        try:
            pts = read_pointset(sec["points_file"])
        except OSError as exc:
            raise ConfigError(f"[{section}] points_file: cannot read "
                              f"{sec['points_file']}: {exc.strerror}") from None
        if pts.dim != system.dim:
            raise ConfigError(f"[{section}] points_file: {sec['points_file']} "
                              f"holds points of dimension {pts.dim}, the "
                              f"system has d = {system.dim}")
        if pts.m == 0:
            raise ConfigError(f"[{section}] points_file: {sec['points_file']} "
                              "holds no points")
        _check_scope(section, "points_file", pts.m, "points", system)
        return pts
    if sec.get("grid"):
        n = 2 * max(system.box) + 1
        _check_scope(section, "grid", n ** system.dim, "grid points", system)
        return uniform_grid_points(n, system.dim)
    _check_scope(section, "m", sec["m"], "points", system)
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
    if sec["m0"] > sec["m_cap"]:
        raise ConfigError(f"[find-points] m0: expected <= m_cap = "
                          f"{sec['m_cap']}, got {sec['m0']}")
    if not sec["grid"]:
        _check_scope("find-points", "m0", sec["m0"], "points", system)
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

    out = _write_csv(cfg, "find-points", "find_points_trail.csv",
                     DiscretizationReport.CSV_HEADER,
                     [r.csv_row() for r in reports])
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
    _write_csv(cfg, "check-disc", "discretization.csv",
               DiscretizationReport.CSV_HEADER, [rep.csv_row()])
    return rep


# -------------------------------------------------------------------- recover

def _make_target(sec, system, seed):
    kind = sec["target"]
    rng = np.random.default_rng(seed)
    if kind == "dense":
        coeff = rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size)
        return reconstruct(system, range(system.size), coeff)
    if kind == "sparse":
        v = sec["sparsity"]
        if not 0 <= v <= system.size:
            raise ConfigError(f"[recover] sparsity: expected 0 to "
                              f"N = {system.size}, got {v}")
        cols = rng.choice(system.size, size=v, replace=False)
        coeff = rng.standard_normal(v) + 1j * rng.standard_normal(v)
        return reconstruct(system, cols, coeff)
    J = sec["J"] if sec["J"] >= 0 else default_truncation_level(sec["v"])
    if 2 ** J - 1 > max(system.box):
        raise ConfigError(f"[recover] J: truncation level J={J} needs box "
                          f"degree >= {2 ** J - 1}")
    return sample_class_function(ClassSpec(sec["r"], sec["beta"], J), kind,
                                 seed, dim=system.dim, density=sec["density"])


def run_recover(cfg: dict):
    sec = cfg["recover"]
    seed = cfg["common"]["seed"]
    system = TrigSystem(sec["d"], (sec["degree"],) * sec["d"])
    pts = _pointset_from(sec, "recover", system, seed)
    u = math.ceil((1 + sec["c_emp"]) * sec["v"])
    if u > system.size:
        raise ConfigError(f"[recover] v: u = ceil((1 + c_emp) v) = {u} "
                          f"exceeds the dictionary size N = {system.size}")
    f0 = _make_target(sec, system, seed)
    report = recover(f0, system, pts, v=sec["v"], p=sec["p"], t=sec["t"],
                     c_emp=sec["c_emp"], certify=sec["certify"],
                     selection=sec["selection"], seed=seed)
    _write_csv(cfg, "recover", "recovery.csv", type(report).CSV_HEADER,
               [report.csv_row()])
    _write_csv(cfg, "recover", "womp_trace.csv", report.trace.CSV_HEADER,
               report.trace.csv_rows())
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


def _sweep_cell(sec, base_seed, v, seed_idx):
    """One (v, seed) cell: draw points, sample the target, recover, measure."""
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
    # an error at rounding level relative to the samples is exact recovery
    tol = EXACT_RECOVERY_REL_TOL * report.trace.residual_norms[0]
    errors = {p: 0.0 if e <= tol else e
              for p, e in zip(p_list, lp_norms(f0 - report.approximant, p_list))}
    return {"v": v, "seed": seed_idx, "m": m, "errors": errors, "report": report}


def rate_sweep_compute(sec: dict, base_seed: int = 0, threads: int = 1):
    """Run all sweep cells and fit slopes; returns (cells, fits, dropped_v).

    Pure compute path (no files), shared by the CLI driver and the
    acceptance gate, so it checks its section itself, before any cell
    runs.  A v whose sample budget falls below its greedy step count is
    dropped and reported back; a section that leaves the fit fewer than
    4 distinct v, repeats a p, or has a cell with u above N or with more
    than SCOPE_ENTRIES sampled entries is refused.  The cells run in one
    serial loop; `threads` accepts only 1, and goes once the benchmark's
    sweep workload stops passing it (ROADMAP item 1a).
    """
    if threads != 1:
        raise ValueError(f"threads: expected 1 (serial sweep), got {threads}")
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
        _check_scope("rate-sweep", "v_list", m, f"samples (v = {v})", system)
    n_seeds = sec["seeds"]
    cells = [_sweep_cell(sec, base_seed, v, s)
             for v in kept for s in range(n_seeds)]

    fits = {}
    for p in p_list:
        medians = [statistics.median(c["errors"][p] for c in cells if c["v"] == v)
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

    out = _write_csv(cfg, "rate-sweep", "rate_cells.csv", RecoveryReport.CSV_HEADER,
                     [replace(c["report"], p=p, error_lp_mu=c["errors"][p]).csv_row()
                      for c in cells for p in p_list])

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
    box dictionary.  All-zero samples (m = 0 included) return the zero
    polynomial and build no sampled matrix, since the greedy would stop
    before its first pick; the first other samples build it, once."""
    sampled = None

    def recover_map(samples):
        nonlocal sampled
        if not _samples(pts, samples).any():
            return TrigPolynomial(system.dim, {})
        if sampled is None:
            sampled = build_sampled(system, pts)
        trace = womp(sampled, samples)
        return reconstruct(system, trace.selected, trace.coefficients)

    return recover_map


def run_fooling(cfg: dict):
    """Adversary grid over box sizes; returns the list of gap records."""
    sec = cfg["fooling"]
    seed = cfg["common"]["seed"]
    d = sec["d"]
    boxes = _numbers(sec, "fooling", "box_list")
    m_list = (_numbers(sec, "fooling", "m_list")
              or [TrigSystem(d, (b,) * d).size // 4 for b in boxes])
    if len(m_list) != len(boxes):
        raise ConfigError(f"[fooling] m_list: expected {len(boxes)} "
                          f"entries, one per box, got {len(m_list)}")
    for box, m in zip(boxes, m_list):
        half = (2 * box + 1) ** d / 2
        if m > half:
            raise ConfigError(f"[fooling] m_list: m = {m} exceeds theta/2 = {half} on box {box}")
        # make_fooling factors the m x theta evaluation matrix by a full SVD,
        # whose theta x theta factor (the identity at m = 0) holds the null basis
        system = TrigSystem(d, (box,) * d)
        _check_scope("fooling", "box_list", m, "points", system)
        _check_scope("fooling", "box_list", system.size, "SVD factor rows", system)

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
    out = _write_csv(cfg, "fooling", "fooling.csv",
                     "box,theta,m,seed,norm_q,norm_p,guaranteed_error,"
                     "ratio_to_theta,vanishing_defect,recovery_fooled", rows)
    for box, gap in zip(boxes, records[::sec["seeds"]]):
        write_fooling(gap.instance, os.path.join(out, f"fooling_box{box}.txt"))
    return records
