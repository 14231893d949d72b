"""Sampling discretization certificates for sparse trigonometric spans.

The central question: for which point sets does the empirical mean of
|f|^p reproduce the continuous Lp norm, uniformly over all u-sparse
combinations from a fixed dictionary?  For p = 2 this is decided exactly
by extreme eigenvalues of per-support Gram matrices, enumerated
exhaustively; for other p only randomized searches for violating
witnesses are offered, and their output is a pair of empirical bounds,
never a certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .trig import (TrigSystem, _as_points, _keep_last, _tensor_grid, _window, lp_norm,
                   reconstruct)

# Two-sided comparison constants: the discrete p-th power must stay within
# [LOWER_CONST, UPPER_CONST] times the continuous one.
LOWER_CONST = 0.5
UPPER_CONST = 1.5

DEFAULT_SUBSET_CAP = 2_000_000

MODES = ("two-sided", "one-sided-lower")
METHODS = ("exhaustive", "randomized")


class SubsetCapError(ValueError):
    """An exhaustive check_usd refused: more supports than DEFAULT_SUBSET_CAP."""


# Supports per stacked solve in the exhaustive scans; bounds their memory.
SUPPORT_CHUNK = 1024

_E = np.finfo(float).eps / 2  # unit roundoff, 2^-53

# The exhaustive scan's Cholesky screen solves every _SCREEN_STRIDE-th class
# representative to place its levels.
_SCREEN_STRIDE = 100


@dataclass(frozen=True)
class PointSet:
    """Sample points on the torus, with the seed draw_points drew them from
    (None for a grid or explicit points).

    Empty point sets (m = 0) are legal; they only arise in adversarial
    constructions, and build_sampled refuses them.
    """

    dim: int
    points: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        pts = _as_points(self.points, self.dim).view()  # freeze a view, not the input
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]


def draw_points(m: int, d: int, seed: int) -> PointSet:
    """Draw m independent uniform points on [0, 2 pi)^d."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return PointSet(d, rng.uniform(0.0, 2.0 * np.pi, size=(m, d)), seed)


def uniform_grid_points(n: int, d: int) -> PointSet:
    """Tensor grid {2 pi t / n}^d with n points per dimension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n ** d > DEFAULT_SUBSET_CAP:
        raise ValueError(f"grid of {n ** d} points exceeds cap {DEFAULT_SUBSET_CAP}")
    return PointSet(d, _tensor_grid(n, d))


def write_pointset(ps: PointSet, path) -> None:
    """Write 'dim d m' then one whitespace-separated point per line."""
    with open(path, "w") as fh:
        fh.write(f"dim {ps.dim} {ps.m}\n")
        for row in ps.points:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_pointset(path) -> PointSet:
    """Read the format write_pointset writes.

    A malformed header, a file that ends before m points, or a line
    without exactly d finite numbers raises ValueError naming the path and
    the 1-based line.  Lines after the m-th point are ignored.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    def bad(lineno, what):
        return ValueError(f"{path}:{lineno}: {what}")

    try:
        key, d, m = lines[0].split()
        d, m = int(d), int(m)
    except (IndexError, ValueError):
        key = None
    if key != "dim" or d < 1 or m < 0:
        raise bad(1, "expected the header 'dim <d> <m>' with d >= 1, m >= 0")
    if len(lines) < m + 1:
        raise bad(len(lines) + 1,
                  f"file ends after {len(lines) - 1} of {m} points")
    rows = []
    for lineno, line in enumerate(lines[1:m + 1], start=2):
        try:
            row = [float(x) for x in line.split()]
        except ValueError:
            row = []
        if len(row) != d or not all(map(math.isfinite, row)):
            raise bad(lineno, f"expected {d} finite numbers, got {line!r}")
        rows.append(row)
    return PointSet(d, np.array(rows, dtype=float).reshape(m, d))


@dataclass(frozen=True)
class SampledSystem:
    """A dictionary of exponentials evaluated at sample points, in C^m with
    the (1/m)-weighted inner product.

    Its m x N matrix A, A[i, j] = (j-th exponential)(i-th point), of entries
    of modulus 1, is private; only build_sampled fills it, with
    system.evaluate_at(points).  Callers read it through adjoint(y) = y^H A,
    sampled @ a = A a, columns(support) = A[:, support], moments() and gram,
    the discrete Gram (1/m) A^H A, computed on first use and kept read-only:
    the certificate's eigensolves and both best v-term references share it.
    """

    _matrix: np.ndarray
    system: TrigSystem
    pointset: PointSet

    @property
    def m(self) -> int:
        return self._matrix.shape[0]

    @property
    def size(self) -> int:
        return self._matrix.shape[1]

    def norm(self, f) -> float:
        return float(np.linalg.norm(f) / math.sqrt(self.m))

    def adjoint(self, y) -> np.ndarray:
        """y^H A, not divided by m: a row for m samples y, k rows for m x k."""
        return y.conj().T @ self._matrix

    def __matmul__(self, a) -> np.ndarray:
        return self._matrix @ a

    def columns(self, support) -> np.ndarray:
        return self._matrix[:, support]

    def moments(self):
        """row(p) = M[p, :] of M = A^H A, read from one table of the moments
        m g(l) = sum_i exp(i<l, x_i>), |l| <= 2 box (M[p, q] = m g(k_q - k_p)):
        the rows conj(A[:, c]) @ A of the corner columns c with first
        coordinate -box[0] give l_1 >= 0, m g(-l) = conj(m g(l)) the rest,
        and m g(0) = m."""
        box, widths = self.system.box, tuple(2 * b + 1 for b in self.system.box)

        def window(p):  # where row p lies in the table: at 2 box - (k_p + box)
            return _window(2 * np.array(box) - np.unravel_index(p, widths), widths)

        corners = sorted({int(np.ravel_multi_index((0,) + q, widths))
                          for q in itertools.product(*[(0, 2 * b) for b in box[1:]])})
        rows = self.adjoint(self.columns(corners)).reshape(-1, *widths)
        table = np.empty(tuple(4 * b + 1 for b in box), dtype=complex)
        for c, row in zip(corners, rows):
            table[window(c)] = row
        table[:2 * box[0]] = table[(slice(None, None, -1),) * len(box)][:2 * box[0]].conj()
        table[tuple(2 * b for b in box)] = self.m
        return lambda p: table[window(p)].reshape(-1)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        gram = self.adjoint(self._matrix) / self.m
        gram.setflags(write=False)
        return gram


def build_sampled(system: TrigSystem, pointset: PointSet) -> SampledSystem:
    """The system evaluated at the m >= 1 points, as a read-only matrix,
    so the cached gram always matches it."""
    if system.dim != pointset.dim:
        raise ValueError("system and point set dimensions differ")
    if pointset.m == 0:
        raise ValueError("a sampled system needs m >= 1 points")
    matrix = system.evaluate_at(pointset.points)
    matrix.flags.writeable = False
    return SampledSystem(matrix, system, pointset)


@dataclass(frozen=True)
class DiscretizationReport:
    """Outcome of a u-sparse discretization check.

    c_low and c_high are the extreme ratios of the discrete p-th power to
    the continuous one.  With an exhaustive p = 2 method they are exact
    over all supports of size u (smaller supports interlace, so they are
    covered); with a randomized method they are bounds from the witnesses
    found, and `holds` only means no violation was discovered.

    eigensolves counts the work done: the u x u Gram blocks passed to
    eigvalsh on the p = 2 paths (the trials, for a randomized one), and the
    supports drawn on the randomized p != 2 path.  On the exhaustive path
    that is the class representatives the Cholesky screen could not rule
    out, plus the other members of the classes near an extreme (every
    support when all classes tie, as with m < u).  It is not part of the
    CSV row.
    """

    m: int
    size: int
    u: int
    p: float
    mode: str
    holds: bool
    c_low: float
    c_high: float
    worst_support: tuple
    method: str
    seed: int | None = None
    eigensolves: int = 0

    CSV_HEADER = "m,N,u,p,mode,holds,c_low,c_high,method,seed"

    def csv_row(self) -> str:
        seed = "" if self.seed is None else str(self.seed)
        return (f"{self.m},{self.size},{self.u},{self.p:g},{self.mode},"
                f"{self.holds},{self.c_low:.12g},{self.c_high:.12g},"
                f"{self.method},{seed}")


def _chunks(rows, size=SUPPORT_CHUNK):
    """rows split into consecutive blocks of at most size rows."""
    return np.split(rows, range(size, len(rows), size))


def _combinations(n, r, first_below=None):
    """The r-subsets of range(n) with smallest element below first_below
    (default n), in lexicographic order, as rows.  Built from the last
    element up: the tails of size s + 1 are each first element f >= r - s - 1
    followed by the contiguous run of tails of size s that start above f.
    """
    subsets = np.arange(r - 1, n)[:, None]
    if r == 1:
        return subsets[:first_below]
    for size in range(2, r + 1):
        firsts = np.arange(r - size, n - size + 1)
        if size == r:
            firsts = firsts[:first_below]
        starts = np.searchsorted(subsets[:, 0], firsts, side="right")
        lengths = len(subsets) - starts
        offsets = np.repeat(np.cumsum(lengths) - lengths - starts, lengths)
        subsets = np.column_stack((np.repeat(firsts, lengths),
                                   subsets[np.arange(lengths.sum()) - offsets]))
    return subsets


def _box_strides(box):
    """Widths 2 b + 1 of the box axes and the column strides of each axis:
    column c has coordinate c // strides[i] % widths[i] on axis i."""
    widths = np.array([2 * b + 1 for b in box])
    return widths, np.append(np.cumprod(widths[:0:-1])[::-1], 1)


def _class_representatives(idx, box):
    """First support in lexicographic order of each row's symmetry class.

    A support's class holds its translates inside the box and those of its
    reflection k -> -k.  Translation keeps the column order, so the
    lexicographically first translate is the one pushed against the
    corner, whose columns are the support's minus the column offset of its
    coordinatewise minimum.  Reflection maps column c to n - 1 - c.
    """
    widths, strides = _box_strides(box)
    n = int(np.prod(widths))

    def pushed(cols):
        coords = cols[..., None] // strides % widths
        return cols - (coords.min(axis=1) @ strides)[:, None]

    a = pushed(idx)
    b = pushed(n - 1 - idx[:, ::-1])
    rows = np.arange(len(idx))
    first = (a != b).argmax(axis=1)
    take_b = b[rows, first] < a[rows, first]
    return np.where(take_b[:, None], b, a)


def _class_members(reps, box):
    """The other members of the given representatives' classes, each once.

    A representative R is pushed against the corner, and so is its mirror
    R' (top coordinate - coordinates, columns reversed).  Its class is the
    translates of R and of R' that keep the top coordinate on each axis
    inside the box; two supports pushed against the corner are translates
    of each other only if equal, so the two sets coincide if R' = R and
    are disjoint otherwise.
    """
    widths, strides = _box_strides(box)
    coords = reps[..., None] // strides % widths
    top = coords.max(axis=1)
    shifts = np.indices(widths - top.min(axis=0)).reshape(len(widths), -1).T
    fits = (top[:, None, :] + shifts < widths).all(axis=2)
    mirror = top[:, None] - coords
    distinct = ((mirror @ strides)[:, ::-1] != reps).any(axis=1)

    def translates(shape, keep):
        return ((shape[:, None] + shifts[:, None, :]) @ strides)[keep]

    return np.concatenate([translates(coords, fits & shifts.any(axis=1)),
                           translates(mirror, fits & distinct[:, None])[:, ::-1]])


@_keep_last
def _box_representatives(box: tuple, u: int) -> np.ndarray:
    """Read-only rows, in lexicographic order, of the first support of each
    symmetry class of the u-supports of the box's dictionary.

    Representatives are pushed against the corner, so their first column
    lies in the first slab along axis 0: only those supports are
    enumerated.  The rows depend on (box, u) alone, not on the points, so
    certificates on one box share them, kept by _keep_last.
    """
    n = math.prod(2 * b + 1 for b in box)
    reps = np.concatenate([
        c[(_class_representatives(c, box) == c).all(axis=1)] for c in
        _chunks(_combinations(n, u, first_below=n // (2 * box[0] + 1)))])
    reps.flags.writeable = False
    return reps


def _eig_rounding_bound(sampled, u):
    """Admission margin of the exhaustive scan: twice a bound delta on
    |lambda(S) - lambda(S')| for the computed eigenvalues of the Gram
    blocks of two supports S, S' of one symmetry class.

    In exact arithmetic the blocks of a class share their spectrum: the
    discrete Gram G[j, k] = (1/m) sum_i exp(i<k_k - k_j, x_i>) depends only
    on k_k - k_j, so translating S leaves its block unchanged and
    reflecting it conjugates the block up to a permutation.  The computed
    blocks differ by rounding, bounded here with the unit roundoff
    e = 2^-53 and gamma_n = n e / (1 - n e), for the matrix that
    build_sampled makes (system.evaluate_at(points)):

    1. Phases <k, x> are d-term dot products of exact integers with
       floats: error <= gamma_d * X * B, with X = max |x| over all point
       coordinates and B = sum(box) >= |k|_1.  The complex exponential
       adds at most 4 ulp per component, so each matrix entry is within
       eta = gamma_d X B + 8 e of exp(i<k, x>), since
       |exp(ia) - exp(ib)| <= |a - b|.
    2. The Gram entry is the mean of conj(a_i) b_i over the m points.
       The perturbed entries move that mean by at most 2 eta + eta^2.
       The real and imaginary parts of the sum are each a sum of 2m real
       products, which any summation order (blocking, FMA) computes within
       gamma_2m * sum |a_i||b_i|, so the sum is off by at most
       sqrt(2) gamma_2m (1 + eta)^2 after the division by m; the division
       adds e (1 + eta)^2 more, bounded with 2 e.  Entry error:
       g = 2 eta + eta^2 + (sqrt(2) gamma_2m + 2 e) (1 + eta)^2.
    3. The u x u block error has spectral norm <= its Frobenius norm
       <= u g, and Weyl's inequality moves each eigenvalue by no more.
    4. eigvalsh (LAPACK heevd) returns the exact eigenvalues of a block
       perturbed by at most p(u) e ||block||_2, with ||block||_2 <=
       u (1 + g).  p(u) = 8 u^2 is of the order of the worst-case bound
       for the Householder tridiagonal reduction and the tridiagonal
       solver, and u (1 + g) overstates the norm of a block near the
       identity by a factor of about u.

    Each computed eigenvalue is thus within
    beta = u g + 8 u^3 e (1 + g) of the exact one the class shares, and
    delta = 2 beta bounds the spread within a class.  The factor 2 in the
    returned 2 delta absorbs the rounding of this formula.  An
    overestimate only costs eigensolves: of the classes near an extreme,
    and of the representatives between the screen's levels and the
    sampled extremes (_screened_extremes).  At m = 600, u = 6, box 10 the
    returned bound is 5.7e-12; the largest spread within a class there is
    below 3e-15, and on six point sets the scan solved 4 to 12 blocks
    besides the class representatives.
    """
    g = _entry_bound(sampled)
    return 4 * (u * g + 8 * u ** 3 * _E * (1 + g))


def _gamma(k):
    """gamma_k = k e / (1 - k e), e the unit roundoff _E (Higham, sec. 3.1)."""
    return k * _E / (1 - k * _E)


def _entry_bound(sampled):
    """g of steps 1 and 2 of _eig_rounding_bound: every computed entry of
    (1/m) A^H A, in any summation order, is within g of the exact one."""
    x_max = float(np.abs(sampled.pointset.points).max())
    eta = _gamma(sampled.system.dim) * x_max * sum(sampled.system.box) + 8 * _E
    return (2 * eta + eta ** 2
            + (math.sqrt(2) * _gamma(2 * sampled.m) + 2 * _E) * (1 + eta) ** 2)


def _screen_margin(u, g, tau):
    """Margin of the Cholesky screen for u x u Gram blocks whose entries are
    within g of exact (_entry_bound) and levels of modulus at most tau.

    The screen factors C = fl(t I - B) with t = fl(tau_hi - margin), and
    C = fl(B - t I) with t = fl(tau_lo + margin), for a computed block B
    (the Hermitian matrix of its lower triangle, which is all that
    _cholesky_fails and eigvalsh read).  A success bounds the computed
    extreme eigenvalues of B by tau_hi from above, or by tau_lo from below:

    1. Higham, "Accuracy and Stability of Numerical Algorithms", Thm 10.3:
       if Cholesky runs to completion on C, then R^H R = C + dC with
       |dC| <= gamma |R^H| |R|, in any order of the inner products, for the
       standard recurrences that _cholesky_fails runs (one rounding per
       division by the real pivot).  For complex data the inner products'
       gamma_(u+1) becomes gamma_(u+3) (Higham sec. 3.6).
       R has a positive diagonal, so C + dC is positive definite.  And
       ||dC||_2 <= gamma || |R| ||_2^2 <= gamma ||R||_F^2
       = gamma trace(C + dC) <= gamma / (1 - gamma) trace(C), since each
       |dC_ii| <= gamma (R^H R)_ii.  B's diagonal is within g of 1, so
       trace(C) <= u c with c = tau + 1 + g, up to the margin itself.
    2. Forming t I - B (or B - t I) rounds only the diagonal, by at most
       e c per entry (e = 2^-53): a perturbation E with ||E||_2 <= e c.
       So t I - B is positive definite up to ||dC||_2 + ||E||_2, and
       lambda_max(B) < t + ||dC||_2 + ||E||_2 (likewise for lambda_min).
    3. eigvalsh returns each eigenvalue of B within 8 u^3 e (1 + g)
       (step 4 of _eig_rounding_bound).

    The sum of the three terms, doubled, is returned: the factor 2 absorbs
    the rounding of t = tau -+ margin (at most e c) and of this formula, so
    a block that passes both factorisations has computed extremes strictly
    inside (tau_lo, tau_hi).  At m = 600, u = 6 and levels near 1 the
    margin is about 4e-13, against the 5.7e-12 of _eig_rounding_bound.
    """
    gam = _gamma(u + 3)
    c = tau + 1 + g
    return 2 * (gam / (1 - gam) * u * c + _E * c + 8 * u ** 3 * _E * (1 + g))


def _cholesky_fails(lower, u):
    """True where Cholesky breaks down on a stack of u x u Hermitian
    matrices: a pivot is not > 0 (NaN included).  lower[i, j], i >= j, is
    one contiguous complex vector holding that entry of every matrix (the
    diagonal's imaginary part is not read); it is overwritten.  Whole-stack
    vector operations walk the standard recurrences: c_ij - r_ik conj(r_jk)
    for k = 0, 1, .., then r_jj = sqrt(Re) and each part of r_ij divided by
    r_jj (numpy's complex / real division multiplies by a reciprocal)."""
    pivots, conj = np.empty((u, len(lower[0, 0]), 2)), {}
    with np.errstate(all="ignore"):  # a failed pivot spreads NaN and inf
        for j in range(u):
            for i in range(j, u):
                acc = lower[i, j]
                for k in range(j):
                    acc -= lower[i, k] * conj[j, k]
                if i == j:
                    np.sqrt(acc.real, out=pivots[j, :, 0])
                    pivots[j, :, 1] = pivots[j, :, 0]
                else:
                    parts = acc.view(float).reshape(-1, 2)
                    np.divide(parts, pivots[j], out=parts)
                    conj[i, j] = acc.conj()
    return ~(pivots[:, :, 0] > 0).all(axis=0)


def _screen(gram, rows, tau_lo, tau_hi, margin):
    """True for each row (a support) whose Gram block B _cholesky_fails
    on (tau_hi - margin) I - B or on B - (tau_lo + margin) I.  Each lower
    entry of a chunk's blocks is gathered once and stacked after its
    negation, so one factorisation covers both shifted stacks."""
    u, fail, flat = rows.shape[1], [], gram.reshape(-1)
    for c in _chunks(rows):
        n, lower, base = len(c), {}, c * len(gram)
        for i in range(u):
            for j in range(i + 1):
                vec = lower[i, j] = np.empty(2 * n, dtype=complex)
                # in range: "clip" clips nothing, where "raise" would buffer
                np.take(flat, base[:, i] + c[:, j], out=vec[n:], mode="clip")
                np.negative(vec[n:], out=vec[:n])
            lower[i, i] += np.repeat([tau_hi - margin, -(tau_lo + margin)], n)
        both = _cholesky_fails(lower, u)
        fail.append(both[:n] | both[n:])
    return np.concatenate(fail)


def _extremes(gram, rows):
    """(lowest, highest) eigenvalue of each row's Gram block, as two rows."""
    return np.concatenate([
        np.linalg.eigvalsh(gram[b[:, :, None], b[:, None, :]])[:, [0, -1]]
        for b in _chunks(rows)]).T


def _screened_extremes(gram, reps, u, g, delta):
    """The rows of reps that the scan eigensolves, and the (lowest,
    highest) eigenvalue of each one's Gram block, bit for bit what
    _extremes gives (LAPACK solves each block of a stack on its own).

    Every _SCREEN_STRIDE-th row is solved first; tau_lo = (their lowest)
    + delta and tau_hi = (their highest) - delta.  Any other row is solved
    unless _screen's two Cholesky factorisations put its computed extremes
    strictly inside (tau_lo, tau_hi).  No row left out can matter: the
    sampled extremes lie inside the global ones and rounding is monotone,
    so its extremes lie more than delta above the lowest and below the
    highest, and it fails _check_usd_l2's near-class test.  Where classes
    tie within delta every row is solved: with m < u every lowest
    eigenvalue is ~0, below tau_lo, and on an exact grid every block is
    ~I, so tau_lo > tau_hi, where no block can pass and _screen is skipped.
    """
    solved = np.zeros(len(reps), dtype=bool)
    solved[::_SCREEN_STRIDE] = True
    ext = np.empty((2, len(reps)))
    ext[:, solved] = _extremes(gram, reps[solved])
    tau_lo, tau_hi = ext[0, solved].min() + delta, ext[1, solved].max() - delta
    margin = _screen_margin(u, g, max(abs(tau_lo), abs(tau_hi)))
    rest = ~solved
    rest[rest] = tau_lo >= tau_hi or _screen(gram, reps[rest], tau_lo, tau_hi, margin)
    ext[:, rest] = _extremes(gram, reps[rest])
    return reps[solved | rest], ext[:, solved | rest]


def _holds(mode: str, c_low: float, c_high: float, p: float) -> bool:
    if mode == "two-sided":
        return LOWER_CONST <= c_low and c_high <= UPPER_CONST
    # one-sided-lower: ||f||_p <= D * (discrete mean)^(1/p) with D = 2^(1/p),
    # i.e. the ratio of p-th powers must stay above D^(-p); computed as
    # written, which is not LOWER_CONST to the last bit
    return c_low >= (2.0 ** (1.0 / p)) ** (-p)


def check_usd(sampled: SampledSystem, u: int, p: float = 2.0,
              mode: str = "two-sided", method: str = "exhaustive",
              trials: int = 500, seed: int = 0) -> DiscretizationReport:
    """Check u-sparse universal discretization of the sampled dictionary.

    Parameters
    ----------
    sampled : SampledSystem
    u : int
        Sparsity level, 1 <= u <= dictionary size.
    p : float
        Norm exponent; p = 2 supports exhaustive certification, any other
        p requires a randomized method and yields empirical bounds only.
    mode : str
        "two-sided" compares against [1/2, 3/2]; "one-sided-lower" only
        requires the lower direction, with the constant D = 2^(1/p) that
        matches the two-sided lower constant.
    method : str
        "exhaustive" or "randomized"; exhaustive certifies over all C(N, u)
        supports and raises SubsetCapError past DEFAULT_SUBSET_CAP (read
        at call time), which counts supports, not the classes below.
    trials, seed
        Randomized budget: number of supports drawn (>= 1) and the draw seed.

    Returns
    -------
    DiscretizationReport
        c_low and c_high are the extremes of the eigenvalues eigvalsh
        computes for the supports' Gram blocks.  worst_support is the
        first support, in lexicographic order (for randomized, draw order),
        whose computed eigenvalue equals whichever extreme sits closer to
        violating its constraint.  Supports related by a translation in
        the box or by k -> -k have the same spectrum in exact arithmetic,
        but their computed eigenvalues differ in the last bits, so
        worst_support is not always the translate pushed against the box
        corner.

    Notes
    -----
    The exhaustive p = 2 scan returns exactly what one eigensolve per
    support returns, bit for bit.  It enumerates only the supports whose
    first column lies in the box's first slab along axis 0 (15,504 of
    54,264 for box 10, u = 6) and keeps the class representatives among
    them (7,872).  It solves those that a Cholesky screen cannot place
    inside levels set from every 100th one (_screened_extremes), then the
    other members of each class whose representative came within the
    rounding bound of the extremes (_eig_rounding_bound).  On six box-10
    point sets with m = 600, u = 6 (seeds 0 to 5) the scan solves 150 to
    531 blocks (7,874 to 7,884 without the screen).  This needs the
    sampled matrix to be system.evaluate_at(points), which build_sampled,
    the only maker of one, ensures.  With m < u all classes tie at
    c_low ~ 0 and every support is solved once.

    The representatives (_box_representatives) of the last two (box, u)
    are kept: 378 KB for box 10, u = 6, under 16 u MB at the cap.
    """
    n = sampled.size
    if not 1 <= u <= n:
        raise ValueError(f"u must lie in [1, {n}]")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "randomized" and trials < 1:
        raise ValueError(f"a randomized check needs trials >= 1, got {trials}")
    if p != 2.0 and method == "exhaustive":
        raise ValueError("p != 2 checks are randomized searches only")
    c_low, arg_low, c_high, arg_high, work = (
        _check_usd_l2(sampled, u, method, trials, seed) if p == 2.0
        else _check_usd_lp(sampled, u, p, trials, seed))
    used_seed = sampled.pointset.seed
    if method != "exhaustive" and used_seed is None:
        used_seed = seed
    return DiscretizationReport(
        m=sampled.m, size=n, u=u, p=float(p), mode=mode,
        holds=_holds(mode, c_low, c_high, p), c_low=c_low, c_high=c_high,
        worst_support=_pick_worst(mode, c_low, arg_low, c_high, arg_high),
        method="exhaustive" if method == "exhaustive" else f"randomized({trials})",
        seed=used_seed, eigensolves=work)


def _check_usd_l2(sampled, u, method, trials, seed):
    n = sampled.size
    count = math.comb(n, u)
    if method == "exhaustive" and count > DEFAULT_SUBSET_CAP:
        raise SubsetCapError(f"C({n},{u}) = {count} supports exceed the "
                             f"subset cap {DEFAULT_SUBSET_CAP}")
    gram = sampled.gram
    if method == "exhaustive":
        # One eigensolve per symmetry class that the Cholesky screen cannot
        # rule out, plus the other members of each class near an extreme:
        # every support attaining an extreme is solved.
        box = sampled.system.box
        delta = _eig_rounding_bound(sampled, u)
        reps, ext = _screened_extremes(gram, _box_representatives(box, u), u,
                                       _entry_bound(sampled), delta)
        lo, hi = ext
        near = reps[(lo <= lo.min() + delta) | (hi >= hi.max() - delta)]
        members = np.concatenate([_class_members(c, box)
                                  for c in _chunks(near, SUPPORT_CHUNK // n + 1)])
        idx = np.concatenate([reps, members])
        order = np.lexsort(idx.T[::-1])
        idx = idx[order]
        lo, hi = np.concatenate([ext, _extremes(gram, members)], axis=1)[:, order]
    else:
        rng = np.random.default_rng(seed)
        idx = np.array([sorted(rng.choice(n, size=u, replace=False))
                        for _ in range(trials)], dtype=np.intp).reshape(-1, u)
        lo, hi = _extremes(gram, idx)
    # the first row, in lexicographic or draw order, attaining each extreme
    i_low, i_high = int(np.argmin(lo)), int(np.argmax(hi))
    return (float(lo[i_low]), tuple(idx[i_low].tolist()),
            float(hi[i_high]), tuple(idx[i_high].tolist()), len(idx))


def _pick_worst(mode, c_low, arg_low, c_high, arg_high):
    if mode == "one-sided-lower":
        return arg_low
    # pick the side with the larger violation (or the nearer miss)
    if (LOWER_CONST - c_low) >= (c_high - UPPER_CONST):
        return arg_low
    return arg_high


def _check_usd_lp(sampled, u, p, trials, seed):
    """Randomized witness search for p != 2: random sparse combinations with
    coordinatewise polishing of the extreme ratio candidates."""
    n = sampled.size
    rng = np.random.default_rng(seed)

    def ratio(support, coeff):
        vals = sampled.columns(support) @ coeff
        disc = float(np.mean(np.abs(vals) ** p))
        cont = lp_norm(reconstruct(sampled.system, support, coeff), p) ** p
        return disc / cont

    candidates = []
    for _ in range(trials):
        support = tuple(sorted(rng.choice(n, size=u, replace=False).tolist()))
        coeff = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        candidates.append((ratio(support, coeff), support, coeff))
    lows = sorted(candidates, key=lambda t: t[0])
    best_low, best_high = lows[0], lows[-1]

    def polish(cand, sign):
        r0, support, coeff = cand
        coeff = coeff.copy()
        step = 0.5
        for _ in range(6):
            improved = False
            for i in range(u):
                for delta in (step, -step, 1j * step, -1j * step):
                    trial = coeff.copy()
                    trial[i] = trial[i] + delta * max(1.0, abs(trial[i]))
                    r = ratio(support, trial)
                    if sign * r < sign * r0:
                        r0, coeff, improved = r, trial, True
            if not improved:
                step /= 2
        return r0, support

    c_low, arg_low = polish(best_low, +1)
    c_high, arg_high = polish(best_high, -1)
    return float(c_low), arg_low, float(c_high), arg_high, trials
