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

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .discretization import DEFAULT_SUBSET_CAP, SampledSystem

# Relative stopping tolerance: iteration halts once the best inner product
# falls below this multiple of the initial norm.
STOP_REL_TOL = 1e-13


@dataclass(frozen=True)
class DiscreteHilbert:
    """C^m with the (1/m)-weighted inner product and a column dictionary."""

    matrix: np.ndarray

    @classmethod
    def from_sampled(cls, sampled: SampledSystem) -> "DiscreteHilbert":
        return cls(sampled.matrix)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    def norm(self, f) -> float:
        return float(np.linalg.norm(f) / math.sqrt(self.m))


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


def write_trace_csv(trace: WompTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(WompTrace.CSV_HEADER + "\n")
        for row in trace.csv_rows():
            fh.write(row + "\n")


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
    if selection not in ("argmax", "adversarial-weak"):
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
    elif selected:
        coefficients = scipy.linalg.solve_triangular(r[:rank, :rank],
                                                     qh[:rank] @ target)
    else:
        coefficients = np.zeros(0, dtype=complex)
    return WompTrace(t=t, selected=tuple(selected),
                     residual_norms=tuple(res_norms),
                     coefficients=coefficients,
                     chosen_ips=tuple(chosen_ips), max_ips=tuple(max_ips),
                     rank_deficient=rank_flag)


@dataclass(frozen=True)
class BestTermResult:
    """Best v-term approximation from exhaustive support enumeration."""

    sigma: float
    support: tuple
    coefficients: np.ndarray
    tag: str  # "exact": least squares on every support


def best_vterm(h: DiscreteHilbert, target, v: int,
               subset_cap: int = DEFAULT_SUBSET_CAP) -> BestTermResult:
    """sigma_v of the target over the sampled dictionary, by enumeration.

    Every support of size v is solved by exact least squares.  Ties keep
    the lexicographically first support.  v = 0 returns the norm of the
    target itself.
    """
    target = np.asarray(target, dtype=complex)
    n = h.size
    if v < 0:
        raise ValueError("v must be >= 0")
    if v == 0:
        return BestTermResult(h.norm(target), (), np.zeros(0, complex), "exact")
    if v > n:
        raise ValueError(f"v exceeds dictionary size {n}")
    count = math.comb(n, v)
    if count > subset_cap:
        raise ValueError(f"C({n},{v}) = {count} supports exceed cap {subset_cap}")

    best = None
    for support in itertools.combinations(range(n), v):
        proj = project(h, target, support)
        err = h.norm(proj.residual)
        if best is None or err < best[0]:
            best = (err, support, proj.coefficients)
    return BestTermResult(float(best[0]), tuple(best[1]), best[2], "exact")
