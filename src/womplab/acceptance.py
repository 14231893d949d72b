"""Acceptance gate: nine numbered behavioral checks over the whole stack.

Each criterion is a self-contained experiment with pinned ensembles, seeds,
and tolerances.  They are exposed one per function so the test suite can
assert them individually and the `verify` subcommand can run any subset.
Results never raise on a failed bound; they come back as CriterionResult
records with a pass flag and a measured-numbers detail string.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from copy import deepcopy
from dataclasses import dataclass

import numpy as np

from .discretization import build_sampled, check_usd, draw_points, \
    uniform_grid_points
from .experiments import DEFAULTS, rate_sweep_compute, zero_data_recovery
from .greedy import project, womp
from .recovery import _ratio, adversary_gap, recover, sample_target
from .trig import TrigSystem, fejer_kernel, lp_norms, reconstruct


# The pinned acceptance bounds: criterion 4's worst residual/sigma_v,
# criterion 5's factor on H(u, p) sigma_ref, criterion 8's allowance over
# the predicted slope, and criterion 6's certify counts out of 50.
LEBESGUE_RATIO = 3.0
PIPELINE_FACTOR = 6.0
SLOPE_MARGIN = 0.35
SCALING_PASS_MIN = 45
SCALING_FAIL_MAX = 10


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


# ------------------------------------------------------------------ 1

def criterion_fejer():
    """Kernel identities: unit mean, peak value, nonnegativity on a grid."""
    worst_peak = 0.0
    worst_min = 0.0
    for d in (1, 2):
        for j in range(1, 9):
            kern = fejer_kernel((j,) * d)
            if kern.coeffs[(0,) * d] != 1.0:
                return False, f"coefficient 0 of K_{j} (d={d}) is not 1"
            expected = float(j ** d)
            peak = math.fsum(c.real for c in kern.coeffs.values())
            worst_peak = max(worst_peak, abs(peak - expected) / expected)
            grid = uniform_grid_points(256 if d == 1 else 64, d).points
            vals = kern.eval(grid)
            if np.abs(vals.imag).max() > 1e-12:
                return False, f"K_{j} (d={d}) is not real on the grid"
            worst_min = min(worst_min, float(vals.real.min()))
    ok = worst_peak <= 1e-12 and worst_min >= -1e-12
    return ok, (f"peak rel err {worst_peak:.2e} (<=1e-12), "
                f"grid min {worst_min:.2e} (>=-1e-12)")


# ------------------------------------------------------------------ 2

def criterion_exact_grid():
    """On the 2N+1 grid both discretization constants are exactly 1."""
    worst = 0.0
    for deg in range(2, 9):
        system = TrigSystem(1, (deg,))
        sampled = build_sampled(system, uniform_grid_points(2 * deg + 1, 1))
        for u in range(1, deg + 1):
            rep = check_usd(sampled, u, 2.0, "two-sided", "exhaustive")
            dev = max(abs(rep.c_low - 1.0), abs(rep.c_high - 1.0))
            worst = max(worst, dev)
            if not rep.holds or dev > 1e-10:
                return False, (f"deg={deg} u={u}: c_low={rep.c_low:.3e} "
                               f"c_high={rep.c_high:.3e}")
    return True, f"max |c-1| = {worst:.2e} over N=2..8, all u<=N (<=1e-10)"


# ------------------------------------------------------------------ 3

def criterion_greedy_recovery():
    """Orthonormal case: exact support recovery in exactly v steps."""
    deg = 4
    system = TrigSystem(1, (deg,))
    pts = uniform_grid_points(2 * deg + 1, 1)
    sampled = build_sampled(system, pts)
    worst_resid = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        v = seed % 4 + 1
        support = rng.choice(system.size, size=v, replace=False)
        mags = 1.5 * 0.7 ** np.arange(v)
        phases = np.exp(2j * np.pi * rng.uniform(size=v))
        f0 = reconstruct(system, support, mags * phases)
        y = f0.eval(pts.points)
        norm0 = float(np.sqrt(np.mean(np.abs(y) ** 2)))
        trace = womp(sampled, y)
        if trace.steps != v:
            return False, f"seed {seed}: took {trace.steps} steps, expected {v}"
        if set(trace.selected) != set(int(c) for c in support):
            return False, f"seed {seed}: wrong support {trace.selected}"
        worst_resid = max(worst_resid, trace.residual_norms[-1])
        if trace.residual_norms[-1] > 1e-10:
            return False, f"seed {seed}: residual {trace.residual_norms[-1]:.2e}"
        drops = np.diff(trace.residual_norms)
        if np.any(drops > 1e-12 * norm0):
            return False, f"seed {seed}: residual norm increased"
        for k in range(1, trace.steps + 1):
            res = project(sampled, y, trace.selected[:k]).residual
            ips = sampled.columns(trace.selected[:k]).conj().T @ res / sampled.m
            if np.abs(ips).max() > 1e-10 * max(1.0, norm0):
                return False, f"seed {seed}: residual not orthogonal at step {k}"
    return True, f"100 seeds, v<=4; max final residual {worst_resid:.2e} (<=1e-10)"


# --------------------------------------------------------------- 4 and 5

# (degree, u) cells of the shared recovery ensemble; sizes 9 and 17.
_ENSEMBLE_CELLS = ((4, 3), (4, 4), (8, 3), (8, 4))
_ENSEMBLE_SEEDS = 50


@functools.cache
def _recovery_ensemble():
    """Dense targets, certified point sets, recover with 2v steps, both norms.

    Cached because criteria 4 and 5 read the same 200 runs.  The
    certificate is a check_usd at the cell's own u: recover's would be at
    u = 3 v, which is 3 on the u = 4 cells.
    """
    cells = []
    for deg, u in _ENSEMBLE_CELLS:
        system = TrigSystem(1, (deg,))
        v = u // 3  # floor(u / (1 + c_emp)) with c_emp = 2
        m = 100 * u
        for s in range(_ENSEMBLE_SEEDS):
            seed = 10_000 * deg + 100 * u + s
            pts = draw_points(m, 1, seed)
            sampled = build_sampled(system, pts)
            cert = check_usd(sampled, u, 2.0, "two-sided", "exhaustive")
            rng = np.random.default_rng(seed + 1)
            coeff = rng.standard_normal(system.size) \
                + 1j * rng.standard_normal(system.size)
            f0 = reconstruct(system, range(system.size), coeff)
            rep = recover(f0, system, pts, v, c_emp=2.0, certify=False)
            diff = f0 - rep.approximant
            ref_diff = f0 - rep.reference
            cells.append({
                "deg": deg, "u": u, "v": v, "m": m, "seed": s,
                "holds": cert.holds,
                "scale": rep.trace.residual_norms[0],
                "resid_disc": rep.trace.residual_norms[-1],
                "sigma_disc": rep.sigma_discrete,
                "error": dict(zip((2.0, 4.0), lp_norms(diff, (2.0, 4.0)))),
                "sigma_ref": dict(zip((2.0, 4.0), lp_norms(
                    ref_diff, (2.0, 4.0), sample_target(ref_diff, sampled)))),
            })
    return cells


def criterion_lebesgue():
    """Discrete residual after 2v steps against the exhaustive sigma_v."""
    cells = _recovery_ensemble()
    failed_certs = sum(not c["holds"] for c in cells)
    if failed_certs > len(cells) // 20:
        return False, f"{failed_certs} certificates failed; ensemble unusable"
    worst = 0.0
    for c in cells:
        if not c["holds"]:
            continue
        ratio, exact = _ratio(c["resid_disc"], c["sigma_disc"], c["scale"])
        if exact:
            if c["resid_disc"] > 1e-9 * c["scale"]:
                return False, (f"deg={c['deg']} u={c['u']} seed={c['seed']}: "
                               f"sigma=0 but residual {c['resid_disc']:.2e}")
            continue
        worst = max(worst, ratio)
    ok = worst <= LEBESGUE_RATIO
    return ok, (f"worst residual/sigma_v = {worst:.4f} over "
                f"{len(cells) - failed_certs} certified runs "
                f"(<= {LEBESGUE_RATIO}), {failed_certs} certs failed")


def criterion_pipeline():
    """Continuous Lp error against H(u,p) times the conservative sigma."""
    cells = _recovery_ensemble()
    worst = 0.0
    for c in cells:
        if not c["holds"]:
            continue
        for p in (2.0, 4.0):
            h_theory = c["u"] ** (0.5 - 1.0 / p)
            if _ratio(c["error"][p], c["sigma_ref"][p], c["scale"])[1]:
                if c["error"][p] > 1e-9 * c["scale"]:
                    return False, (f"deg={c['deg']} u={c['u']} seed={c['seed']} "
                                   f"p={p:g}: sigma_ref=0, error {c['error'][p]:.2e}")
                continue
            worst = max(worst, c["error"][p] / (h_theory * c["sigma_ref"][p]))
    ok = worst <= PIPELINE_FACTOR
    return ok, (f"worst error/(H*sigma_ref) = {worst:.4f} over p in {{2,4}} "
                f"(<= {PIPELINE_FACTOR})")


# ------------------------------------------------------------------ 6

def _scaling_counts(m: int, deg: int, u: int, n_seeds: int) -> int:
    system = TrigSystem(1, (deg,))
    holds = 0
    for s in range(n_seeds):
        sampled = build_sampled(system, draw_points(m, 1, 77_000 + s))
        holds += check_usd(sampled, u, 2.0, "two-sided", "exhaustive").holds
    return holds


def largest_uncertifiable_m(deg: int, u: int) -> int:
    """Largest m at which no m points certify u-sparse L2 discretization.

    The dictionary is the 1-D box {e^{ikx}: |k| <= deg} and the certificate
    is the two-sided one of check_usd (c_low >= 1/2 and c_high <= 3/2).  For
    every m up to the returned value it fails on every point set, by the
    larger of two bounds:

    * Rank.  The Gram of a u-support is (1/m) A_S^H A_S with A_S of size
      m x u; for m < u it is singular, so c_low = 0.
    * Fejer, for u >= 2.  Let g(k) = (1/m) sum_i e^{ikx_i}.  The support
      {j, j+k} has Gram [[1, g(k)], [conj g(k), 1]] with eigenvalues
      1 -+ |g(k)|.  By Cauchy interlacing these lie in [c_low, c_high] of
      every u-support that contains it, so a certificate forces
      |g(k)| <= 1/2 for 1 <= k <= K = 2 deg.  The Fejer kernel
      F(x) = sum_{|k|<=K} (1 - |k|/(K+1)) e^{ikx}, which is
      fejer_kernel((K+1,)) of criterion 1, is nonnegative with F(0) = K+1.
      Keeping only the diagonal terms of a sum of nonnegative terms gives

          sum_{|k|<=K} (1 - |k|/(K+1)) |g(k)|^2
              = (1/m^2) sum_{i,l} F(x_i - x_l) >= (K+1)/m.

      With g(0) = 1 and |g(k)| <= 1/2 the left side is at most
      1 + (1/4) * 2 * sum_{k=1}^{K} (1 - k/(K+1)) = (K+4)/4, so a
      certificate needs m >= 4(K+1)/(K+4).  The strict inequality
      m (K+4) < 4 (K+1) is solved in integers.
    """
    rank_bound = u - 1
    if u < 2:
        return rank_bound
    k_max = 2 * deg
    fejer_bound = (4 * (k_max + 1) - 1) // (k_max + 4)
    return max(rank_bound, fejer_bound)


def criterion_scaling():
    """Certificate frequency where the budget suffices and where it cannot.

    The full budget follows the C * u * log(2u)^4 schedule with C = 30, a
    sufficient sample count; at least SCALING_PASS_MIN draws must certify
    there.  The small budget is largest_uncertifiable_m(deg, u), where no
    point set can certify, so every draw must fail; at most
    SCALING_FAIL_MAX may certify.  The count at 1/16 of the full budget
    (four halvings, rounding up) lies inside the certify/fail transition
    and is reported, not asserted.
    """
    deg, u, n_seeds = 4, 2, 50
    m_full = int(math.ceil(30 * u * math.log(2 * u) ** 4))
    m_small = largest_uncertifiable_m(deg, u)
    m_sixteenth = m_full
    for _ in range(4):
        m_sixteenth = (m_sixteenth + 1) // 2
    holds_full = _scaling_counts(m_full, deg, u, n_seeds)
    holds_small = _scaling_counts(m_small, deg, u, n_seeds)
    holds_sixteenth = _scaling_counts(m_sixteenth, deg, u, n_seeds)
    ok = holds_full >= SCALING_PASS_MIN and holds_small <= SCALING_FAIL_MAX
    return ok, (f"m={m_full}: holds {holds_full}/{n_seeds} "
                f"(need >= {SCALING_PASS_MIN}); m={m_small} (no certificate "
                f"by the rank and Fejer bounds): holds {holds_small}/{n_seeds} "
                f"(need <= {SCALING_FAIL_MAX}); m={m_sixteenth} (1/16 of the "
                f"budget, reported): holds {holds_sixteenth}/{n_seeds}")


# ------------------------------------------------------------------ 7

def criterion_fooling():
    """Adversary construction: vanishing samples, zero recovery, norm ladder."""
    medians = []
    worst_defect = 0.0
    for box in (8, 16, 32):
        system = TrigSystem(1, (box,))
        m = system.size // 4
        ratios = []
        for s in range(10):
            pts = draw_points(m, 1, 50_000 + 100 * box + s)
            gap = adversary_gap(pts, (box,), p=4.0, q=2.0,
                                recovery=zero_data_recovery(system, pts))
            inst = gap.instance
            worst_defect = max(worst_defect, inst.vanishing_defect)
            if inst.vanishing_defect > 1e-9:
                return False, (f"box={box} seed={s}: samples reach "
                               f"{inst.vanishing_defect:.2e} of the sup")
            if not gap.recovery_fooled:
                return False, f"box={box} seed={s}: recovery beat the bound"
            err = max(gap.recovery_errors)
            if abs(err - inst.norm_p) > 1e-9 * inst.norm_p:
                return False, (f"box={box} seed={s}: zero-recovery error "
                               f"{err:.6g} != ||f||_p {inst.norm_p:.6g}")
            if inst.norm_p < inst.norm_q * (1 - 1e-12):
                return False, f"box={box} seed={s}: ||f||_4 < ||f||_2"
            ratios.append(inst.norm_p / inst.norm_q)
        medians.append(statistics.median(ratios))
    if any(medians[i + 1] < medians[i] - 1e-12 for i in range(len(medians) - 1)):
        return False, f"median ||f||_4/||f||_2 not nondecreasing: {medians}"
    meds = ", ".join(f"{x:.3f}" for x in medians)
    return True, (f"max vanishing defect {worst_defect:.2e} (<=1e-9); "
                  f"median norm ratios [{meds}] nondecreasing")


# ------------------------------------------------------------------ 8

def criterion_rate():
    """Fitted decay slopes versus the predicted exponents, within margin.

    Only the upper direction is asserted (measured decay at least as fast
    as predicted minus the margin); the lower bound is reported.
    """
    sec = deepcopy(DEFAULTS["rate-sweep"])
    _, fits, _ = rate_sweep_compute(sec, base_seed=0)
    parts = []
    ok = True
    for p, fit in sorted(fits.items()):
        limit = fit.target_exponent + SLOPE_MARGIN
        parts.append(f"p={p:g}: slope {fit.slope:.4f} vs target "
                     f"{fit.target_exponent:g} (need <= {limit:g})")
        if fit.slope > limit:
            ok = False
    return ok, "; ".join(parts)


# ------------------------------------------------------------------ 9

def criterion_nikolskii():
    """Quadrature norm ratio of sparse polynomials against u^(1/4)."""
    deg = 8
    system = TrigSystem(1, (deg,))
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(500):
        u = int(rng.integers(1, 5))
        support = rng.choice(system.size, size=u, replace=False)
        coeff = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        f = reconstruct(system, support, coeff)
        norm4, norm2 = lp_norms(f, (4.0, 2.0))
        ratio = norm4 / norm2
        margin = ratio / u ** 0.25
        worst = max(worst, margin)
        if margin > 1 + 1e-9:
            return False, f"u={u}: ratio {ratio:.6f} > u^(1/4) by {margin - 1:.2e}"
    return True, f"500 draws, worst ratio/u^(1/4) = {worst:.6f} (<= 1+1e-9)"


CRITERIA = (
    (1, "fejer-identities", criterion_fejer),
    (2, "exact-grid-discretization", criterion_exact_grid),
    (3, "greedy-exact-recovery", criterion_greedy_recovery),
    (4, "discrete-lebesgue-ratio", criterion_lebesgue),
    (5, "pipeline-lp-bound", criterion_pipeline),
    (6, "random-point-scaling", criterion_scaling),
    (7, "fooling-adversary", criterion_fooling),
    (8, "decay-rate-sweep", criterion_rate),
    (9, "sparse-norm-ratio", criterion_nikolskii),
)


def run_all(numbers=None, progress=None) -> list:
    chosen = set(numbers) if numbers else {num for num, _, _ in CRITERIA}
    unknown = chosen - {num for num, _, _ in CRITERIA}
    if unknown:
        raise ValueError(f"no criteria numbered {sorted(unknown)}")
    results = []
    for num, name, fn in CRITERIA:
        if num not in chosen:
            continue
        start = time.perf_counter()
        passed, detail = fn()
        results.append(CriterionResult(num, name, passed, detail,
                                       time.perf_counter() - start))
        if progress:
            progress(results[-1])
    return results
