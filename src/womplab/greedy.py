"""Weak orthogonal greedy approximation in discrete sample space.

The Hilbert space is C^m with inner product (1/m) sum f_i conj(g_i), the
dictionary is the columns of a sampled system.  Each step selects a column
whose inner product with the residual is within the weakness factor t of
the best one, then re-projects the target onto everything selected so far.
The default selection is the exact argmax (valid for every t <= 1, lowest
index on ties); an adversarial mode picks the lowest-index column that
merely clears the t threshold, which exercises the weak guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import (DEFAULT_SUBSET_CAP, DiscreteHilbert, _chunks,
                             _combinations)

# Relative stopping tolerance: iteration halts once the best inner product
# falls below this multiple of the initial norm.
STOP_REL_TOL = 1e-13


@dataclass(frozen=True)
class ProjectionResult:
    coefficients: np.ndarray
    residual: np.ndarray
    rank_deficient: bool


def project(h: DiscreteHilbert, target, support) -> ProjectionResult:
    """Orthogonal projection of target onto the span of support columns.

    Solved from scratch by least squares; a rank-deficient support is
    flagged and the minimum-norm solution returned.
    """
    support = list(support)
    if len(set(support)) != len(support):
        raise ValueError("support indices must be distinct")
    target = np.asarray(target, dtype=complex)
    if not support:
        return ProjectionResult(np.zeros(0, dtype=complex), target.copy(), False)
    cols = h.matrix[:, support]
    coeff, _, rank, _ = np.linalg.lstsq(cols, target, rcond=None)
    return ProjectionResult(coeff, target - cols @ coeff, rank < len(support))


@dataclass(frozen=True)
class WompTrace:
    """Per-step record of a greedy run.

    residual_norms has length steps+1 and starts at the norm of the
    target; coefficients are least-squares coefficients of the final
    selection with respect to the original (unnormalized) columns.
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


def womp(h: DiscreteHilbert, target, t: float = 1.0, steps: int | None = None,
         selection: str = "argmax") -> WompTrace:
    """Weak orthogonal matching pursuit on the sampled dictionary.

    Parameters
    ----------
    h : DiscreteHilbert
    target : array of m samples
    t : float
        Weakness threshold in (0, 1].
    steps : int
        Step budget K <= min(m, dictionary size).  Stops early once the
        best remaining inner product drops below the stopping tolerance
        relative to the initial norm.
    selection : str
        "argmax" picks the largest inner product (lowest index on ties);
        "adversarial-weak" picks the lowest index clearing t * max.
        Both take the maximum and the pick over the columns not yet
        selected.

    Selection always happens against columns normalized in the discrete
    norm, so the weakness comparison is scale-free.  The selected columns
    are kept as an incremental QR factorisation (Gram-Schmidt with one
    reorthogonalisation): each step costs one product of the residual with
    the dictionary, the residual is updated with the new orthonormal
    vector, and the final coefficients solve R c = Q^H y.  A column whose
    orthogonal part is at or below lstsq's rank cutoff, eps * max(m, k)
    times its norm, sets rank_deficient; such a run returns project()'s
    minimum-norm coefficients.
    """
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection rule {selection!r}")
    if steps is None:
        steps = min(h.m, h.size)
    if steps > min(h.m, h.size):
        raise ValueError(f"step budget {steps} exceeds min(m, N) = {min(h.m, h.size)}")

    target = np.asarray(target, dtype=complex)
    matrix = h.matrix
    m = h.m
    col_norms = np.linalg.norm(matrix, axis=0) / math.sqrt(m)
    if np.any(col_norms < 1e-15):
        raise ValueError("dictionary contains a zero column")
    ip_scale = m * col_norms
    eps = np.finfo(float).eps

    norm0 = h.norm(target)
    residual = target.copy()
    # qh[:rank] holds the conjugated orthonormal basis of the selected
    # columns as rows, so qh[:rank] @ v is Q^H v; r is the triangular factor
    qh = np.empty((steps, m), dtype=complex)
    r = np.zeros((steps, steps), dtype=complex)
    rank = 0
    selected = []
    res_norms = [norm0]
    chosen_ips = []
    max_ips = []
    rank_flag = False
    weak = t if selection == "adversarial-weak" else 1.0

    for _ in range(steps):
        abs_ips = np.abs(residual.conj() @ matrix) / ip_scale
        # a selected column's inner product is roundoff, which a small t
        # could still let through, so it takes no part in the selection
        abs_ips[selected] = -1.0
        max_ip = float(abs_ips.max())
        if max_ip <= STOP_REL_TOL * norm0:
            break
        pick = int(np.argmax(abs_ips >= weak * max_ip))
        selected.append(pick)
        # Gram-Schmidt with one reorthogonalisation; a column whose
        # orthogonal part falls to lstsq's rank cutoff leaves the span,
        # and with it the residual, unchanged
        col = matrix[:, pick]
        basis = qh[:rank]
        s1 = basis @ col
        w = col - (s1.conj() @ basis).conj()
        s2 = basis @ w
        w -= (s2.conj() @ basis).conj()
        w_norm = float(np.linalg.norm(w))
        cutoff = eps * max(m, len(selected)) * float(np.linalg.norm(col))
        if w_norm <= cutoff:
            rank_flag = True
        else:
            q = w / w_norm
            qh[rank] = q.conj()
            r[:rank, rank] = s1 + s2
            r[rank, rank] = w_norm
            residual -= (qh[rank] @ residual) * q
            rank += 1
        res_norms.append(h.norm(residual))
        chosen_ips.append(float(abs_ips[pick]))
        max_ips.append(max_ip)

    if rank_flag:
        coefficients = project(h, target, selected).coefficients
    else:
        # R c = Q^H y by back substitution, row by row from the last: with
        # r's real diagonal it rounds as LAPACK's triangular solve does
        coefficients = qh[:rank] @ target
        for i in range(rank - 1, -1, -1):
            coefficients[i] -= r[i, i + 1:rank] @ coefficients[i + 1:]
            coefficients[i] /= r[i, i]
    return WompTrace(t=t, selected=tuple(selected),
                     residual_norms=tuple(res_norms),
                     coefficients=coefficients,
                     chosen_ips=tuple(chosen_ips), max_ips=tuple(max_ips),
                     rank_deficient=rank_flag)


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
    e = np.finfo(float).eps / 2

    def gamma(k):
        return k * e / (1 - k * e)

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
    v > n and more than DEFAULT_SUBSET_CAP of them."""
    if v > n:
        raise ValueError(f"v exceeds dictionary size {n}")
    count = math.comb(n, v)
    if count > DEFAULT_SUBSET_CAP:
        raise ValueError(f"C({n},{v}) = {count} supports exceed cap "
                         f"{DEFAULT_SUBSET_CAP}")
    return _combinations(n, v)


def best_vterm(h: DiscreteHilbert, target, v: int) -> BestTermResult:
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
    target = np.asarray(target, dtype=complex)
    supports = _supports(h.size, v)
    rhs = (target.conj() @ h.matrix).conj() / h.m
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
