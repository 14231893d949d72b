"""End-to-end sampling recovery and the fooling lower-bound construction.

recover() runs the full pipeline: certify the point set (optional), sample
the target, run the weak orthogonal greedy for c*v steps, rebuild a
continuous polynomial, and measure its Lp error against best-v-term
references.  make_fooling() builds the adversarial pair: a polynomial that
vanishes on every sample point yet has sup norm comparable to its degree
budget, so no sample-based method can distinguish it from its negative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import (DEFAULT_SUBSET_CAP, DiscretizationReport, PointSet,
                             SampledSystem, build_sampled, check_usd,
                             uniform_grid_points)
from .greedy import WompTrace, _block_solve, _supports, best_vterm, womp
from .trig import (OVERSAMPLE, TrigPolynomial, TrigSystem, fejer_kernel, lp_norm,
                   lp_norms, write_polynomial)

# A sigma_v reference below this multiple of the target's sample norm is at
# rounding level: no ratio is reported against it, and at sigma_ref it
# flags exact recovery.
EXACT_RECOVERY_REL_TOL = 1e-12


def reconstruct(system: TrigSystem, columns, coefficients) -> TrigPolynomial:
    """Polynomial with the given coefficients on the system's columns."""
    coeffs = {}
    for col, c in zip(columns, coefficients):
        coeffs[system.index_at(int(col))] = complex(c)
    return TrigPolynomial(system.dim, coeffs)


def sample_target(f0: TrigPolynomial, sampled: SampledSystem) -> np.ndarray:
    """Samples of f0 at the sampled points.

    The terms of f0 inside the box are a coefficient vector a on the
    dictionary, sampled as sampled.matrix @ a without a second pass of
    exponentials; terms outside the box are evaluated directly and added.
    """
    system = sampled.system
    if f0.dim != system.dim:
        raise ValueError("target and system dimensions differ")
    a = np.zeros(system.size, dtype=complex)
    rest = {}
    for k, c in f0.coeffs.items():
        if all(abs(ki) <= b for ki, b in zip(k, system.box)):
            a[system.column_of(k)] = c
        else:
            rest[k] = c
    y = sampled.matrix @ a
    if rest:
        y += TrigPolynomial(f0.dim, rest).eval(sampled.pointset.points)
    return y


def best_vterm_l2_muxi(f0: TrigPolynomial, sampled: SampledSystem, v: int):
    """Best v-term approximation in the mixture norm L2(mu_xi), exhaustive.

    The mixture Gram is (I + discrete Gram)/2, so each support admits an
    exact normal-equations solve; the supports are solved in stacked
    blocks (_block_solve).  Returns (error, support, approximant).  Ties
    keep the lexicographically first support.  Refuses v < 1 and more
    than DEFAULT_SUBSET_CAP supports.
    """
    if v < 1:
        raise ValueError("v must be >= 1")
    y = sample_target(f0, sampled)
    a_box = np.array([f0.coeffs.get(k, 0.0) for k in sampled.system.indices()])
    norm2_sq = 0.5 * (f0.l2_norm() ** 2 + float(np.mean(np.abs(y) ** 2)))
    supports = _supports(sampled.size, v)
    gram = 0.5 * (np.eye(sampled.size) + sampled.gram)
    rhs = 0.5 * (a_box + sampled.matrix.conj().T @ y / sampled.m)

    err_sq = np.maximum(_block_solve(gram, rhs, norm2_sq, supports), 0.0)
    i = int(np.argmin(err_sq))  # ties keep the first support
    support = tuple(supports[i].tolist())
    c = np.linalg.solve(gram[np.ix_(support, support)], rhs[list(support)])
    return math.sqrt(err_sq[i]), support, reconstruct(sampled.system, support, c)


@dataclass(frozen=True)
class RecoveryReport:
    """Everything one recovery run produced, plus the config echo."""

    d: int
    size: int
    m: int
    v: int
    u: int
    p: float
    t: float
    c_emp: float
    seed: int | None
    certificate: DiscretizationReport | None
    cert_warning: str | None
    error_lp_mu: float
    sigma_discrete: float | None
    sigma_ref: float | None
    ratio_discrete: float | None
    ratio_pipeline: float | None
    exact_recovery: bool
    trace: WompTrace | None
    approximant: TrigPolynomial | None = field(repr=False, default=None)

    CSV_HEADER = ("seed,d,N,m,v,u,p,t,c_emp,cert_holds,c_low,c_high,"
                  "error_Lp_mu,sigma_ref,ratio,steps_used")

    def csv_row(self) -> str:
        cert = self.certificate
        holds = "" if cert is None else str(cert.holds)
        c_low = "" if cert is None else f"{cert.c_low:.12g}"
        c_high = "" if cert is None else f"{cert.c_high:.12g}"
        sigma = "" if self.sigma_ref is None else f"{self.sigma_ref:.12g}"
        ratio = "" if self.ratio_pipeline is None else f"{self.ratio_pipeline:.12g}"
        seed = "" if self.seed is None else str(self.seed)
        steps = 0 if self.trace is None else self.trace.steps
        return (f"{seed},{self.d},{self.size},{self.m},{self.v},{self.u},"
                f"{self.p:g},{self.t:g},{self.c_emp:g},{holds},{c_low},{c_high},"
                f"{self.error_lp_mu:.12g},{sigma},{ratio},{steps}")


def _ratio(err, sigma, scale):
    """(err/sigma, exact_flag); sigma near zero means exact recovery."""
    if sigma is None:
        return None, False
    if sigma <= EXACT_RECOVERY_REL_TOL * max(1.0, scale):
        return None, True
    return err / sigma, False


def recover(f0: TrigPolynomial, system: TrigSystem, xi: PointSet,
            v: int, p: float = 2.0, t: float = 1.0, c_emp: float = 2.0,
            certify: bool = True, compute_sigma: bool = True,
            selection: str = "argmax", seed: int | None = None) -> RecoveryReport:
    """Sample f0 at xi, greedily recover with c_emp * v steps, measure in Lp.

    The u-sparse two-sided L2 certificate with u = ceil((1 + c_emp) v) is
    computed when certify is set (and skipped with a warning when the
    exhaustive budget would blow past the subset cap).  A failed or
    missing certificate never aborts the run; it is recorded and the
    recovery proceeds, since the guarantee, not the algorithm, needs it.

    sigma references: the discrete-norm sigma_v over the sampled
    dictionary (exact oracle), and the conservative Lp(mu_xi) reference,
    namely the L2(mu_xi)-best v-term fit evaluated in Lp(mu_xi).  For
    p = 2 the latter is the exact sigma_v in L2(mu_xi); for p > 2 it is an
    upper bound.
    """
    if p != math.inf and p < 2:
        raise ValueError("recovery guarantees need p >= 2")
    if v < 1:
        raise ValueError("v must be >= 1")
    u = int(math.ceil((1 + c_emp) * v))
    steps = int(math.ceil(c_emp * v))
    if u > system.size:
        raise ValueError(f"u = {u} exceeds the dictionary size {system.size}")

    sampled = build_sampled(system, xi)
    certificate = warning = None
    if certify:
        try:
            certificate = check_usd(sampled, u, 2.0, "two-sided", "exhaustive")
        except ValueError as exc:
            warning = f"certificate skipped: {exc}"
    else:
        warning = "certificate skipped by caller"
    if certificate is not None and not certificate.holds:
        warning = "certificate failed; recovery proceeded without a guarantee"

    y = sample_target(f0, sampled)
    trace = womp(sampled, y, t=t, steps=min(steps, sampled.m, sampled.size),
                 selection=selection)
    approx = reconstruct(system, trace.selected, trace.coefficients)
    diff = f0 - approx
    error = lp_norm(diff, p, "mu")

    sigma_disc = sigma_ref = None
    if compute_sigma and math.comb(system.size, v) <= DEFAULT_SUBSET_CAP:
        sigma_disc = best_vterm(sampled, y, v).sigma
        _, _, ref_poly = best_vterm_l2_muxi(f0, sampled, v)
        sigma_ref = lp_norm(f0 - ref_poly, p, "mu_xi", pointset=xi)
    scale = trace.residual_norms[0]
    # sigma_discrete is at rounding level whenever the samples cannot tell
    # supports apart (m <= v), so only sigma_ref can flag exact recovery
    ratio_disc, _ = _ratio(trace.residual_norms[-1], sigma_disc, scale)
    ratio_pipe, exact = _ratio(error, sigma_ref, scale)

    return RecoveryReport(
        d=system.dim, size=system.size, m=xi.m, v=v, u=u, p=float(p), t=t,
        c_emp=c_emp, seed=seed if seed is not None else xi.seed,
        certificate=certificate, cert_warning=warning,
        error_lp_mu=error, sigma_discrete=sigma_disc, sigma_ref=sigma_ref,
        ratio_discrete=ratio_disc, ratio_pipeline=ratio_pipe,
        exact_recovery=exact, trace=trace, approximant=approx)


@dataclass(frozen=True)
class FoolingInstance:
    """A sample-annihilating polynomial and its extremal data.

    f vanishes on the point set, lives in the doubled frequency box, and
    attains |f(x_star)| equal to the product of the box orders times the
    grid sup of the null-space factor (which is normalized to 1).
    """

    pointset: PointSet
    box: tuple
    g_xi: TrigPolynomial
    x_star: np.ndarray
    f: TrigPolynomial
    q: float
    p: float
    norm_q: float
    norm_p: float
    value_at_xstar: float
    sup_grid: float
    samples_max: float
    null_dim: int

    @property
    def vanishing_defect(self) -> float:
        """max |f| on the samples relative to the grid sup norm."""
        return self.samples_max / self.sup_grid if self.sup_grid else 0.0


# SVD singular values below this multiple of the largest are null space.
NULL_SPACE_TOL = 1e-10


@functools.lru_cache(maxsize=1)
def _fooling_grid(box: tuple) -> tuple:
    """make_fooling's point-independent work on a box: the oversampled
    grid, the box system evaluated on it, the system's frequency tuples
    and the Fejer kernel of order box.  The arrays are read-only; only the
    last box is kept."""
    _fooling_grid.cache_clear()  # free the last box's matrix before building this one
    system = TrigSystem(len(box), box)
    grid = uniform_grid_points(OVERSAMPLE * (max(box) + 1) + 1, len(box)).points
    matrix = system.evaluate_at(grid)
    matrix.flags.writeable = False
    return grid, matrix, tuple(system.indices()), fejer_kernel(box)


def make_fooling(xi: PointSet, box: tuple, p: float = 4.0,
                 q: float = 2.0) -> FoolingInstance:
    """Build the fooling polynomial for a point set and frequency box.

    The null space of the m x theta evaluation matrix of the box system is
    nonempty whenever m < theta.  Among a basis of it, the element with
    the largest grid sup-to-L2 ratio is kept, normalized to grid sup 1,
    and multiplied by the Fejer kernel centered at its grid argmax.  The
    product vanishes at every sample, has degree at most twice the box,
    and its value at the center is exactly the product of the box orders.

    The grid, the box system's read-only evaluation matrix on it, the
    frequency tuples and the Fejer kernel depend on the box alone; they
    are built once and kept until a call on another box, so consecutive
    calls on one box share them.  The matrix has (8 (max(box) + 1) + 1)^d
    rows and theta columns: on box (15, 15) it holds 16,641 x 961 complex
    entries (256 MB), kept between calls.  x_star is a read-only row of
    the grid.
    """
    box = tuple(int(b) for b in box)
    dim = len(box)
    if xi.dim != dim:
        raise ValueError("point set and box dimensions differ")
    system = TrigSystem(dim, box)
    theta = system.size
    if xi.m >= theta:
        raise ValueError(f"need m < {theta} points for a nonzero null space")

    if xi.m == 0:
        null_basis = np.eye(theta, dtype=complex)
    else:
        matrix = system.evaluate_at(xi.points)
        _, svals, vh = np.linalg.svd(matrix, full_matrices=True)
        rank = int(np.sum(svals > NULL_SPACE_TOL * svals[0])) if svals.size else 0
        null_basis = vh[rank:].conj().T
    null_dim = null_basis.shape[1]
    assert null_dim >= theta - xi.m >= 1

    # evaluate the whole null basis on an oversampled grid in one pass
    grid, grid_matrix, indices, kernel = _fooling_grid(box)
    grid_vals = grid_matrix @ null_basis
    sups = np.abs(grid_vals).max(axis=0)
    l2s = np.sqrt(np.mean(np.abs(grid_vals) ** 2, axis=0))
    best = int(np.argmax(sups / l2s))
    column = null_basis[:, best]
    sup = float(sups[best])
    x_star = grid[int(np.argmax(np.abs(grid_vals[:, best])))]

    g_xi = TrigPolynomial(dim, {indices[i]: column[i] / sup for i in range(theta)})
    f = g_xi * kernel.translate(x_star)

    samples_max = float(np.abs(f.eval(xi.points)).max()) if xi.m else 0.0
    norm_q, norm_p, sup_grid = lp_norms(f, (q, p, math.inf))
    return FoolingInstance(
        pointset=xi, box=box, g_xi=g_xi, x_star=np.asarray(x_star, float),
        f=f, q=float(q), p=float(p), norm_q=norm_q, norm_p=norm_p,
        value_at_xstar=float(abs(f.eval(x_star.reshape(1, -1))[0])),
        sup_grid=sup_grid, samples_max=samples_max, null_dim=null_dim)


@dataclass(frozen=True)
class GapRecord:
    """Certified lower bound on worst-case recovery error for a pair +/- f."""

    instance: FoolingInstance
    guaranteed_error: float
    recovery_errors: tuple
    recovery_fooled: bool


def adversary_gap(xi: PointSet, box: tuple, p: float = 4.0, q: float = 2.0,
                  *, recovery) -> GapRecord:
    """Lower-bound the error of any sample-based recovery map at xi.

    Both f and -f produce the all-zero sample vector, so any map must err
    by at least ||f||_p on one of them.  Requires m <= theta/2, the regime
    the guarantee targets.  The recovery callable (samples -> candidate
    polynomial) is fed the zero samples and its worst error over the pair
    is recorded; it can never beat the bound.
    """
    theta = TrigSystem(len(box), box).size
    if xi.m > theta / 2:
        raise ValueError(f"adversary argument needs m <= theta/2 = {theta / 2}")
    inst = make_fooling(xi, box, p=p, q=q)
    candidate = recovery(np.zeros(xi.m, dtype=complex))
    errors = (lp_norm(inst.f - candidate, p, "mu"),
              lp_norm(-inst.f - candidate, p, "mu"))
    fooled = max(errors) >= inst.norm_p * (1 - 1e-12)
    return GapRecord(inst, inst.norm_p, errors, fooled)


def write_fooling(inst: FoolingInstance, path) -> None:
    """Serialize the fooling polynomial with a metadata header."""
    box = " ".join(str(b) for b in inst.box)
    xs = " ".join(f"{x:.17g}" for x in inst.x_star)
    header = [
        f"m {inst.pointset.m}",
        f"box {box}",
        f"x_star {xs}",
        f"norm_q {inst.q:g} {inst.norm_q:.17g}",
        f"norm_p {inst.p:g} {inst.norm_p:.17g}",
        f"value_at_xstar {inst.value_at_xstar:.17g}",
    ]
    write_polynomial(inst.f, path, header_lines=header)
