"""Weak orthogonal greedy approximation in discrete sample space.

The Hilbert space is C^m with inner product (1/m) sum f_i conj(g_i), the
dictionary is the columns of a sampled system.  Each step selects a column
whose inner product with the residual is within the weakness factor t of
the best one, then re-projects the target onto everything selected: in
Gram space on the exponentials' moment table, or by a fresh least-squares
solve where a rounding bound hands the run over.  The default selection is
the exact argmax (valid for every t <= 1, lowest index on ties); an
adversarial mode picks the lowest-index column that merely clears the t
threshold, which exercises the weak guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import (DEFAULT_SUBSET_CAP, SampledSystem, SubsetCapError,
                             _E, _chunks, _combinations, _entry_bound, _gamma)

# Relative stopping tolerance: iteration halts once the best inner product
# falls below this multiple of the initial norm.
STOP_REL_TOL = 1e-13


@dataclass(frozen=True)
class ProjectionResult:
    coefficients: np.ndarray
    residual: np.ndarray
    rank_deficient: bool


def _samples(h, target):
    """target as a complex array of h.m samples; refuses any other shape."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (h.m,):
        raise ValueError(f"target has shape {target.shape}, expected ({h.m},) samples")
    return target


def project(h: SampledSystem, target, support) -> ProjectionResult:
    """Orthogonal projection of target onto the span of support columns.

    Solved from scratch by least squares; a rank-deficient support is
    flagged and the minimum-norm solution returned.
    """
    support = list(support)
    if len(set(support)) != len(support):
        raise ValueError("support indices must be distinct")
    target = _samples(h, target)
    cols = h.columns(support)
    coeff, _, rank, _ = np.linalg.lstsq(cols, target, rcond=None)
    return ProjectionResult(coeff, target - cols @ coeff, rank < len(support))


@dataclass(frozen=True)
class WompTrace:
    """Per-step record of a greedy run.

    residual_norms has length steps+1 and starts at the norm of the
    target; coefficients are least-squares coefficients of the final
    selection with respect to the columns of the sampled matrix.
    """

    t: float
    selected: tuple
    residual_norms: tuple
    coefficients: np.ndarray
    chosen_ips: tuple
    max_ips: tuple
    rank_deficient: bool = False

    CSV_HEADER = "step,chosen_index,chosen_ip,max_ip,residual_norm"

    @property
    def steps(self) -> int:
        return len(self.selected)

    def csv_rows(self):
        for k in range(self.steps):
            yield (f"{k + 1},{self.selected[k]},{self.chosen_ips[k]:.12g},"
                   f"{self.max_ips[k]:.12g},{self.residual_norms[k + 1]:.12g}")


SELECTIONS = ("argmax", "adversarial-weak")


def womp(h: SampledSystem, target, t: float = 1.0, steps: int | None = None,
         selection: str = "argmax") -> WompTrace:
    """Weak orthogonal matching pursuit on the sampled dictionary.

    Parameters
    ----------
    h : SampledSystem
    target : array of m samples
    t : float
        Weakness threshold in (0, 1].
    steps : int
        Step budget 0 <= K <= min(m, dictionary size).  Stops early once the
        best remaining inner product drops below the stopping tolerance
        relative to the initial norm.
    selection : str
        "argmax" picks the largest inner product (lowest index on ties);
        "adversarial-weak" picks the lowest index clearing t * max.
        Both take the maximum and the pick over the columns not yet
        selected.

    Every column has norm 1 in the discrete norm (its entries have modulus
    1), so selection compares |<residual, column>| / m and the weakness
    comparison is scale-free.  The run is in Gram space (_womp_gram); a run
    under _womp_gram's rounding bound falls back to _womp_lstsq, which
    calls project() after every pick.
    """
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection rule {selection!r}")
    if steps is None:
        steps = min(h.m, h.size)
    if steps < 0:
        raise ValueError(f"step budget {steps} is negative")
    if steps > min(h.m, h.size):
        raise ValueError(f"step budget {steps} exceeds min(m, N) = {min(h.m, h.size)}")

    target = _samples(h, target)
    weak = t if selection == "adversarial-weak" else 1.0
    trace = _womp_gram(h, target, t, steps, weak)
    return _womp_lstsq(h, target, t, steps, weak) if trace is None else trace


def _womp_lstsq(h, target, t, steps, weak):
    """womp's fallback, step for step the paper's: after each pick project()
    solves the least-squares problem on every selected column from scratch,
    and its residual gives the next inner products.  rank_deficient is set
    if any of these projections is; the coefficients are the last one's.
    """
    norm0 = h.norm(target)
    selected, res_norms, chosen_ips, max_ips = [], [norm0], [], []
    proj, rank_flag = project(h, target, selected), False
    for _ in range(steps):
        abs_ips = np.abs(h.adjoint(proj.residual)) / h.m
        if (found := _select(abs_ips, selected, norm0, weak)) is None:
            break
        pick, max_ip = found
        selected.append(pick)
        proj = project(h, target, selected)
        rank_flag |= proj.rank_deficient
        res_norms.append(h.norm(proj.residual))
        chosen_ips.append(float(abs_ips[pick]))
        max_ips.append(max_ip)
    return WompTrace(t, tuple(selected), tuple(res_norms), proj.coefficients,
                     tuple(chosen_ips), tuple(max_ips), rank_flag)


def _select(abs_ips, selected, norm0, weak):
    """womp's rule: (pick, max_ip) among the columns not selected (theirs is
    roundoff, which a small t could let through), or None to stop."""
    abs_ips[selected] = -1.0
    max_ip = float(abs_ips.max())
    if max_ip <= STOP_REL_TOL * norm0:
        return None
    return int(np.argmax(abs_ips >= weak * max_ip)), max_ip


def _womp_gram(h, target, t, steps, weak):
    """womp in Gram space (the batch OMP of Rubinstein, Zibulevsky and Elad,
    Technion CS-2008-08), or None to hand the run to _womp_lstsq.  The rows
    M[p, :] of M = A^H A come from h.moments(), built at the first pick;
    R^H R = M[S, S] grows a column a step, kept as W = R^-1.
    c = W W^H A_S^H y, the inner products y^H A - c^H M[S, :] and the
    residual norm |y - A_S c| (k x m buffer) cost O(k (N + m)) a step.

    Fallback bound, to first order in e = 2^-53, gamma_k = k e / (1 - k e):
    the rows are within m g of M's (g: discretization._entry_bound).  W's new
    column (-W r, 1) / d, r = W^H M[S, p], d = sqrt(m - |r|^2), keeps
    |W R - I| <= gamma_(n+1) |W||R| (n = |S|), so R^H R = M + E with
    |E|_2 <= phi = n m (g + 4 gamma_(n+1) kappa), kappa = sqrt(n m) |W|_F.
    The run goes on while mu = 1 / |W|_F^2, at most each squared pivot,
    exceeds 4 phi.  Then gamma_(n+1) kappa <= 1/16, |R^-1|_F <= (16/15) |W|_F
    and lambda_min(M) >= (15/16)^2 mu - phi > mu / 2 > 2 n m g >= 5 n m^2 e.
    With lambda_max(M) <= tr M = n m, A_S's singular values have
    sigma_min / sigma_max >= sqrt(5 m e), above lstsq's cutoff
    eps max(m, k) = 2 e m relative to sigma_max while m e < 5/4, so neither
    route flags rank_deficient; and c is within 2 (phi |c| + |d(A^H y)|) / mu
    of the exact solution.
    """
    m, beta0 = h.m, h.adjoint(target)  # y^H A
    g, norm0, moment_row = _entry_bound(h), h.norm(target), None
    rows = np.empty((steps, h.size), dtype=complex)  # M[p, :] of the picks
    cols = np.empty((steps, m), dtype=complex)  # A[:, p] of the picks
    w = np.zeros((steps, steps), dtype=complex)  # W = R^-1
    wsq, c, beta = 0.0, beta0[:0], beta0  # |W|_F^2, c, y^H A - c^H M[S, :]
    selected, res_norms, chosen_ips, max_ips = [], [norm0], [], []
    for k in range(steps):
        abs_ips = np.abs(beta) / m
        if (found := _select(abs_ips, selected, norm0, weak)) is None:
            break
        pick, max_ip = found
        moment_row = h.moments() if moment_row is None else moment_row
        rows[k] = moment_row(pick)
        r = w[:k, :k].conj().T @ rows[:k, pick]
        d2 = m - float(np.vdot(r, r).real)
        if not d2 > 0:
            return None
        n, d = k + 1, math.sqrt(d2)
        w[:k, k], w[k, k] = -(w[:k, :k] @ r) / d, 1 / d
        wsq += float(np.vdot(w[:n, k], w[:n, k]).real)
        if 1 / wsq <= 4 * n * m * (g + 4 * _gamma(n + 1) * math.sqrt(n * m * wsq)):
            return None
        selected.append(pick)
        cols[k] = h.columns(pick)
        c = w[:n, :n] @ (w[:n, :n].conj().T @ beta0[selected].conj())
        beta = beta0 - c.conj() @ rows[:n]
        res_norms.append(h.norm(target - c @ cols[:n]))
        chosen_ips.append(float(abs_ips[pick]))
        max_ips.append(max_ip)
    return WompTrace(t, tuple(selected), tuple(res_norms), c, tuple(chosen_ips),
                     tuple(max_ips))


def _block_solve(gram, rhs, norm_sq, supports):
    """err_sq = norm_sq - Re(c^H rhs[S]) with gram[S, S] c = rhs[S] for each
    support S (row of supports), in stacked solves.  np.linalg.solve and
    np.vecdot run LAPACK's solve and BLAS's conjugated dot block by block,
    so each entry is bit for bit np.linalg.solve and np.vdot on one block.
    """
    err_sq = []
    for idx in _chunks(supports):
        b = rhs[idx]
        c = np.linalg.solve(gram[idx[:, :, None], idx[:, None, :]], b[..., None])
        err_sq.append(norm_sq - np.vecdot(c[..., 0], b).real)
    return np.concatenate(err_sq)


def _screen_bound(gram, idx, norm_sq, m):
    """Per support (row of idx), a bound on |s - e_L^2|, where s is the
    squared error _block_solve screens on the discrete Gram and e_L the
    error project() computes; inf where the bound does not apply.

    With B = A[:, S] / sqrt(m), y' = y / sqrt(m), G = B^H B, n = |y'|,
    t = tr G, e = 2^-53 and gamma_k = k e / (1 - k e): the computed G,
    B^H y' and n^2 are within g t, g sqrt(t) n and g n^2, with
    g = sqrt(2) gamma_2m + 2e (step 2 of _eig_rounding_bound and
    Cauchy-Schwarz).  The Gershgorin bound of the computed block less
    (g + gamma_(v+1)) t is a lambda <= lambda_min(G); rho = t / lambda.
    LU with partial pivoting (gesv) is exact for the block plus F,
    |F|_2 <= phi t, phi = v (1 + v^2 2^v) gamma_4v (Higham, Thm 9.4, growth
    factor 2^(v-1)).  With delta = g + phi (1 + g) and delta rho <= 1/2,
    perturbation of the normal equations, |G^-1 B^H y'| <= n / sqrt(lambda)
    and the rounding of the last dot put s within 9.2 delta rho^(3/2) n^2
    of the exact squared error.  lstsq (gelsd) is exact for B and y'
    perturbed by psi sqrt(t) and psi n, psi = gamma_16mv (of the order of
    the worst case); with 10 psi sqrt(rho) <= 1/2 no singular value reaches
    lstsq's cutoff, and the solution, the residual and its norm put e_L^2
    within 25 psi sqrt(rho) n^2 of it.  The result,
    2 (10 delta rho^(3/2) + 25 psi sqrt(rho)) n^2, covers both, the factor
    2 absorbing the rounding of the formula.  It is about 2e-10 n^2 at
    m = 600, v = 2 on random points, and inf where lambda <= 0 (m < v,
    coincident points) or a condition fails.
    """
    e, gamma = _E, _gamma
    v = idx.shape[1]
    blocks = gram[idx[:, :, None], idx[:, None, :]]
    diag = np.diagonal(blocks, axis1=1, axis2=2)
    t = diag.real.sum(axis=1)
    g = math.sqrt(2) * gamma(2 * m) + 2 * e
    off = np.abs(blocks).sum(axis=2) - np.abs(diag)
    lam = (diag.real - off).min(axis=1) - (g + gamma(v + 1)) * t
    delta = g + v * (1 + v ** 2 * 2 ** v) * gamma(4 * v) * (1 + g)
    psi = gamma(16 * m * v)
    rho = t / np.where(lam > 0, lam, np.nan)  # nan fails both conditions
    ok = (delta * rho <= 0.5) & (10 * psi * np.sqrt(rho) <= 0.5)
    bound = 2 * (10 * delta * rho ** 1.5 + 25 * psi * np.sqrt(rho)) * norm_sq
    return np.where(ok, bound, np.inf)


@dataclass(frozen=True)
class BestTermResult:
    """Best v-term approximation from exhaustive support enumeration."""

    sigma: float
    support: tuple
    coefficients: np.ndarray


def _supports(n, v):
    """The v-subsets of range(n), v >= 1, as lexicographic rows; refuses
    v > n, and more than DEFAULT_SUBSET_CAP of them with SubsetCapError."""
    if v > n:
        raise ValueError(f"v exceeds dictionary size {n}")
    count = math.comb(n, v)
    if count > DEFAULT_SUBSET_CAP:
        raise SubsetCapError(f"C({n},{v}) = {count} supports exceed cap "
                             f"{DEFAULT_SUBSET_CAP}")
    return _combinations(n, v)


def best_vterm(h: SampledSystem, target, v: int) -> BestTermResult:
    """sigma_v of the target over the sampled dictionary, by enumeration.

    Bit for bit what project() (exact least squares) on every support of
    size v gives, ties keeping the lexicographically first support.  The
    normal equations on h.gram screen every support in stacked solves, and
    project() solves, in lexicographic order, only the supports whose
    screened error may reach the smallest (see _screen_bound) or that the
    screen's bound does not cover.  Refuses v < 1 and more than
    DEFAULT_SUBSET_CAP supports.
    """
    if v < 1:
        raise ValueError("v must be >= 1")
    target = _samples(h, target)
    supports = _supports(h.size, v)
    rhs = h.adjoint(target).conj() / h.m
    norm_sq = float(np.vdot(target, target).real) / h.m
    bound = np.concatenate([_screen_bound(h.gram, idx, norm_sq, h.m)
                            for idx in _chunks(supports)])
    ok = np.isfinite(bound)
    screened = _block_solve(h.gram, rhs, norm_sq, supports[ok])
    lower = np.full(len(supports), -np.inf)
    lower[ok] = screened - bound[ok]
    upper = np.min(screened + bound[ok], initial=np.inf)

    best = None
    for support in supports[~(lower > upper)].tolist():
        proj = project(h, target, support)
        err = h.norm(proj.residual)
        if best is None or err < best[0]:
            best = (err, support, proj.coefficients)
    return BestTermResult(float(best[0]), tuple(best[1]), best[2])
