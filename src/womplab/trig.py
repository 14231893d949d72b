"""Trigonometric polynomials on the d-torus.

A polynomial is a finite sum  f(x) = sum_k c_k exp(i<k, x>)  with integer
frequency vectors k.  Everything here is desk scale: a polynomial is one
dense coefficient box, evaluated directly, without fast transforms.
The torus carries the normalized Lebesgue measure, so the exponentials form
an orthonormal system and l2 norms come straight from Parseval.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import threading
import types
from dataclasses import dataclass

import numpy as np

# Cap on entries of TrigPolynomial.eval's row blocks and make_fooling's chunks.
_EVAL_CHUNK_ENTRIES = 1 << 22
_EXP_BLOCK_ENTRIES = 1 << 13  # entries of evaluate_at's and _roots' row blocks
_GRID_BLOCK_ENTRIES = 1 << 16  # values of _half_sums' blocks

# Grid refinement of lp_norms' quadrature and of make_fooling's sup search.
OVERSAMPLE = 8


def _as_points(points, dim):
    """Coerce input to an (m, dim) float array of sample points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


@dataclass(frozen=True, eq=False, init=False)
class TrigPolynomial:
    """Immutable trigonometric polynomial on the dim-torus, built from a map
    of integer multi-indices (length-dim iterables of ints) to complex
    coefficients; indices that coincide as ints add up.

    It is stored as one read-only complex array _box over the bounding box
    of the nonzero coefficients, from its lowest corner _lo.  Construction
    and every operation trim exact zeros and only exact zeros, so no result
    depends on the scale of the coefficients.
    """

    dim: int
    _lo: np.ndarray
    _box: np.ndarray

    def __init__(self, dim: int, coeffs=None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        items = list(coeffs.items()) if coeffs else []
        if not items:
            return self._set(dim, None, np.zeros((0,) * dim))
        keys = np.array([k for k, _ in items], dtype=np.int64)
        if keys.ndim != 2 or keys.shape[1] != dim:
            raise ValueError(f"index shape {keys.shape[1:]} does not match dimension {dim}")
        lo = keys.min(axis=0)
        box = np.zeros(tuple(keys.max(axis=0) - lo + 1), dtype=complex)
        np.add.at(box, tuple((keys - lo).T), np.array([c for _, c in items], complex))
        self._set(dim, lo, box)

    @classmethod
    def _from_box(cls, dim, lo, box) -> "TrigPolynomial":
        """The polynomial with coefficients box over the box from corner lo."""
        (poly := object.__new__(cls))._set(dim, lo, box)
        return poly

    def _set(self, dim, lo, box):
        # trim to the nonzero entries' bounding box; + 0.0 stores every zero
        # real or imaginary part as +0.0, whatever sign arithmetic left on it
        nz = np.nonzero(box)
        if nz[0].size:
            first = np.array([i.min() for i in nz])
            box = box[_window(first, [i.max() + 1 for i in nz] - first)]
            lo = np.asarray(lo, dtype=np.int64) + first
        else:
            box, lo = np.zeros((0,) * dim), np.zeros(dim, dtype=np.int64)
        box = np.add(box, 0.0, dtype=complex)
        box.flags.writeable = lo.flags.writeable = False
        for name, value in (("dim", int(dim)), ("_lo", lo), ("_box", box)):
            object.__setattr__(self, name, value)

    def _terms(self):
        """Frequencies (int64 rows) and values of the nonzero terms, lexicographic."""
        nz = np.nonzero(self._box)
        return np.stack(nz, axis=-1) + self._lo, self._box[nz]

    @functools.cached_property
    def coeffs(self):
        """Read-only map from frequency tuples to the nonzero coefficients,
        in lexicographic order."""
        keys, vals = self._terms()
        return types.MappingProxyType(dict(zip(map(tuple, keys.tolist()), vals.tolist())))

    @property
    def degree(self) -> int:
        """Max sup-norm of the stored frequencies (0 for the zero polynomial)."""
        return max(int((self._lo + self._box.shape).max()) - 1, -int(self._lo.min()))

    def eval(self, points) -> np.ndarray:
        """Evaluate at an (m, d) array of points, returning complex values."""
        pts = _as_points(points, self.dim)
        out = np.zeros(pts.shape[0], dtype=complex)
        keys, c = self._terms()
        K = keys.astype(float)
        chunk = max(1, _EVAL_CHUNK_ENTRIES // max(1, c.size))
        for lo in range(0, pts.shape[0], chunk):
            block = pts[lo:lo + chunk]
            out[lo:lo + chunk] = np.exp(1j * (block @ K.T)) @ c
        return out

    def l2_norm(self) -> float:
        """Exact L2 norm under the normalized measure (Parseval)."""
        return float(np.sqrt(sum(abs(c) ** 2 for c in self._terms()[1].tolist())))

    def translate(self, shift) -> "TrigPolynomial":
        """Return x -> f(x - shift); coefficients pick up phases exp(-i<k, shift>)."""
        s = np.asarray(shift, dtype=float).reshape(-1)
        if s.size != self.dim:
            raise ValueError("shift dimension mismatch")
        nz = np.nonzero(self._box)
        c = self._box[nz]
        phase = np.exp(-1j * ((np.stack(nz, axis=-1) + self._lo) @ s))
        # written out, the product rounds as a scalar complex product does;
        # numpy's vectorised complex product may fuse its multiply-adds
        out = np.zeros_like(self._box)
        out.real[nz] = c.real * phase.real - c.imag * phase.imag
        out.imag[nz] = c.real * phase.imag + c.imag * phase.real
        return self._from_box(self.dim, self._lo, out)

    def __add__(self, other):
        self._check_same_dim(other)
        lo = np.minimum(self._lo, other._lo)
        hi = np.maximum(self._lo + self._box.shape, other._lo + other._box.shape)
        out = np.zeros(tuple(hi - lo), dtype=complex)
        for part in (self, other):
            out[_window(part._lo - lo, part._box.shape)] += part._box
        return self._from_box(self.dim, lo, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._from_box(self.dim, self._lo, -self._box)

    def __mul__(self, other):
        return multiply(self, other)

    def _check_same_dim(self, other):
        if not isinstance(other, TrigPolynomial) or other.dim != self.dim:
            raise ValueError("operands must be TrigPolynomial of equal dimension")


def _window(start, shape) -> tuple:
    """The slices of a box of the given shape placed at start."""
    return tuple(slice(a, a + w) for a, w in zip(start, shape))


def multiply(f: TrigPolynomial, g: TrigPolynomial) -> TrigPolynomial:
    """Pointwise product: a direct dense convolution of the coefficients,
    one shifted copy of f's box per nonzero coefficient c of g.  The loop
    stays: one broadcast product of all of them rounds otherwise than
    c * a does when both boxes hold one element."""
    f._check_same_dim(g)
    if not f._box.size or not g._box.size:
        return TrigPolynomial(f.dim)
    a, b = f._box, g._box
    out = np.zeros(tuple(np.add(a.shape, b.shape) - 1), dtype=complex)
    nz = np.nonzero(b)
    windows = zip(*([slice(s, s + w) for s in i.tolist()] for i, w in zip(nz, a.shape)))
    for window, c in zip(windows, b[nz].tolist()):
        out[window] += c * a
    return TrigPolynomial._from_box(f.dim, f._lo + g._lo, out)


def fejer_kernel(j) -> TrigPolynomial:
    """Tensor-product Fejer kernel with positive per-coordinate orders j.

    The univariate factor of order j has coefficients (1 - |k|/j) for
    |k| <= j - 1.  It is nonnegative on the torus, its mean is 1, and its
    sup norm j is attained at 0; the tensor product, the outer product of
    the factors' coefficients, inherits all three properties coordinatewise.
    """
    orders = tuple(map(int, j))
    if any(v < 1 for v in orders):
        raise ValueError("Fejer orders must be positive integers")
    box = np.ones(())
    for v in orders:
        box = np.multiply.outer(box, 1.0 - np.abs(np.arange(1 - v, v)) / v)
    return TrigPolynomial._from_box(len(orders), [1 - v for v in orders], box)


def dyadic_block(j: int, d: int) -> frozenset:
    """Frequencies k with floor(2^(j-1)) <= |k|_inf < 2^j.

    Block 0 is the singleton {0}; blocks partition the integer lattice.
    """
    if j < 0:
        raise ValueError("block index must be >= 0")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if j == 0:
        return frozenset({(0,) * d})
    lo, hi = 2 ** (j - 1), 2 ** j
    rng = range(-(hi - 1), hi)
    return frozenset(
        k for k in itertools.product(rng, repeat=d) if max(abs(v) for v in k) >= lo
    )


@dataclass(frozen=True)
class TrigSystem:
    """The exponentials exp(i<k, x>) with |k_i| <= box[i], in lexicographic order.

    The ordering fixes the dictionary column order everywhere downstream,
    so the same (system, column) pair always names the same frequency.
    """

    dim: int
    box: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        box = tuple(map(int, self.box))
        if len(box) != self.dim:
            raise ValueError("box length must equal dim")
        if any(v < 0 for v in box):
            raise ValueError("box entries must be >= 0")
        object.__setattr__(self, "box", box)

    @property
    def size(self) -> int:
        """Number of exponentials, prod_i (2*box[i] + 1)."""
        return math.prod(2 * v + 1 for v in self.box)

    def indices(self) -> list:
        """All frequency tuples in lexicographic order."""
        return list(itertools.product(*(range(-v, v + 1) for v in self.box)))

    def evaluate_at(self, points) -> np.ndarray:
        """Evaluation matrix with entry [i, j] = exp(i <k_j, x_i>).

        Column size - 1 - j carries -k_j, and exp(1j * -t) is bit for bit
        conj(exp(1j * t)) up to the sign of a zero imaginary part, so only
        the columns from k = 0 on are exponentiated and the others are
        filled by conjugation; the result is bit for bit
        exp(1j * (points @ K.T)) for the frequency rows K, at every m.  No
        full-size temporary is made: that one product puts the phases, m
        rows of n, in the upper half of the result's own 2nm floats, row r
        at float n(m + r).  Rows are exponentiated forward, R at a time, and
        complex rows below r + R end at float 2n(r + R) <= n(m + r + R),
        where phase row r + R starts: no phase is overwritten unread.
        """
        pts = _as_points(points, self.dim)
        K = np.array(self.indices(), dtype=float)
        n = self.size
        zero = n // 2  # column of k = 0
        out = np.empty((pts.shape[0], n), dtype=complex)
        phase = out.reshape(-1).view(np.float64)[out.size:].reshape(out.shape)
        np.matmul(pts, K.T, out=phase)
        rows = max(1, _EXP_BLOCK_ENTRIES // n)
        for r in range(0, len(out), rows):
            part = out[r:r + rows]
            part[:, zero:] = np.exp(1j * phase[r:r + rows, zero:])
            # 0 - im, not -im: exp(1j * -0.0) has imaginary part +0.0
            mirror, left = part[:, :zero:-1], part[:, :zero]
            left.real = mirror.real
            np.subtract(0.0, mirror.imag, out=left.imag)
        return out


def reconstruct(system: TrigSystem, columns, coefficients) -> TrigPolynomial:
    """Polynomial with the given coefficients on the system's columns."""
    box = np.zeros(system.size, dtype=complex)
    box[list(columns)] = coefficients
    return TrigPolynomial._from_box(system.dim, [-v for v in system.box],
                                    box.reshape([2 * v + 1 for v in system.box]))


def _box_coefficients(poly: TrigPolynomial, system: TrigSystem) -> tuple:
    """(a, rest): poly's coefficients a on the system's columns, one slice of
    its box, and rest, its other terms: that box with the slice zeroed."""
    box = np.array(system.box)
    lo = np.maximum(poly._lo, -box)
    hi = np.maximum(lo, np.minimum(poly._lo + poly._box.shape, box + 1))
    inside = np.zeros(2 * box + 1, dtype=complex)
    outside, part = poly._box.copy(), _window(lo - poly._lo, hi - lo)
    inside[_window(lo + box, hi - lo)] = outside[part]
    outside[part] = 0
    return inside.reshape(-1), TrigPolynomial._from_box(poly.dim, poly._lo, outside)


def quadrature_grid_size(degree: int, p, oversample: int) -> int:
    """Per-dimension grid size used by lp_norms for the continuous measure.

    Always larger than oversample*(degree+1); for even integer p it also
    exceeds p*degree, which makes the quadrature of |f|^p exact.
    """
    n = oversample * (degree + 1) + 1
    if p != math.inf and float(p) == int(p) and int(p) % 2 == 0:
        n = max(n, int(p) * degree + 1)
    return n


def _tensor_grid(n: int, d: int) -> np.ndarray:
    """The grid {2 pi t / n : t = 0..n-1}^d as n^d rows, last axis fastest."""
    axis = 2 * np.pi * np.arange(n) / n
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _roots(roots: np.ndarray, t: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, rows t and columns k, filled with roots[(t * k) % n], n =
    roots.size, in row blocks without an index matrix of its size."""
    n, rows = roots.size, max(1, _EXP_BLOCK_ENTRIES // max(1, k.size))
    for r in range(0, t.size, rows):
        phase = np.multiply.outer(t[r:r + rows], k)
        phase -= phase // n * n  # t k mod n; // by a scalar is faster than %
        # phase < n, so "clip" clips nothing; "raise" would buffer out
        np.take(roots, phase, out=out[r:r + rows], mode="clip")
    return out


_KEPT = 2  # make_fooling's batch and norms alternate, as do certificates on two boxes


def _keep_last(build):
    """Keep build's read-only values for its last _KEPT argument tuples in
    build.kept, least recently used first.  A miss drops the oldest, then
    builds under the same lock, so at most _KEPT - 1 others live meanwhile."""
    lock, kept = threading.Lock(), collections.OrderedDict()

    @functools.wraps(build)
    def keep(*key):
        with lock:
            if key not in kept:
                while len(kept) >= _KEPT:
                    kept.popitem(last=False)
                kept[key] = build(*key)
            kept.move_to_end(key)
            return kept[key]

    keep.kept = kept
    return keep


@_keep_last
def _tables(n: int, lo: tuple, shape: tuple, k1s: tuple) -> tuple:
    """_grid_values' _roots tables for a box of the given shape from corner
    lo, per axis with K1 from k1s: (low, high) on all n rows for a split
    axis, low holding k = lo .. lo + K1 - 1 and high k = K1 k2, k2 = 0 ..
    ceil(w / K1) - 1; (half, None) for K1 = w, half the real [S | C] on
    rows t <= n / 2, the sines S for k = h .. 1 and cosines C for 0 .. h,
    h = max(-lo, lo + w - 1).  The roots are taken at phases in (-pi, pi]:
    a split term multiplies two entries, and a phase's rounding error grows
    with its size.  Equal pairs are shared, read-only, kept by _keep_last."""
    t = np.arange(n)
    roots = np.exp(2j * np.pi * (t - n * (2 * t > n)) / n)  # phases in (-pi, pi]
    built, pairs = {}, []
    for a, w, k1 in zip(lo, shape, k1s):
        if (a, w, k1) not in built:
            if k1 < w:
                low, high = (_roots(roots, t, k, np.empty((n, k.size), dtype=complex))
                             for k in (np.arange(a, a + k1), k1 * np.arange(-(-w // k1))))
                high.flags.writeable = False
            else:  # [S | C]
                h, half, high = max(-a, a + w - 1), t[:n // 2 + 1], None
                low = np.empty((half.size, 2 * h + 1))
                _roots(roots.imag.copy(), half, np.arange(h, 0, -1), low[:, :h])
                _roots(roots.real.copy(), half, np.arange(h + 1), low[:, h:])
            low.flags.writeable = False
            built[a, w, k1] = (low, high)
        pairs.append(built[a, w, k1])
    return tuple(pairs)


def _half_sums(x: np.ndarray, a: int, n: int, table: np.ndarray) -> np.ndarray:
    """The middle axis of x, shape (P, w, S), frequencies k = a .. a + w - 1,
    summed on the n-point grid from its half table, giving (P, n, S).  With
    c zero-padded to -h .. h, p_j = c_j + c_-j (p_0 = c_0) and q_j = c_j -
    c_-j, row t is [S | C]_t [iq; p] = X + iY and row n - t is [S | C]_t
    [-iq; p] = X - iY, X = C p and Y = S q: real products of float pairs,
    half the multiply-adds of the complex n x w table.  Columns go in
    blocks of _GRID_BLOCK_ENTRIES values, of w at least."""
    (P, w, S), h, half, m = x.shape, (table.shape[1] - 1) // 2, n // 2 + 1, (n - 1) // 2
    out, cols = np.empty((P, n, S), dtype=complex), max(w, _GRID_BLOCK_ENTRIES // (P * n))
    for s in range(0, S, cols):
        c = np.zeros((P, 2 * h + 1, min(cols, S - s)), dtype=complex)  # k = -h .. h
        c[:, a + h:a + h + w] = x[:, :, s:s + cols]
        (up, down), c_f = (c[:, h + 1:], c[:, :h][:, ::-1]), c.view(np.float64)
        c_down = down.copy()  # rows k and -k become p_k and i q_k
        np.subtract(up, c_down, out=down)
        up += c_down
        down *= 1j
        y = out[:, :, s:s + cols]
        np.matmul(table, c_f, out=y[:, :half].view(np.float64))
        np.negative(c[:, :h], out=c[:, :h])
        np.matmul(table[m:0:-1], c_f, out=y[:, half:].view(np.float64))
    return out


def _grid_values(vals: np.ndarray, lo, n: int) -> np.ndarray:
    """Dense coefficient boxes vals[..., w_1, .., w_d] from corner lo on
    _tensor_grid(n, d), d = len(lo), in the same row order: summed one axis
    at a time (sum factorisation, not an FFT), from the last, in place,
    with the batch (the leading axes of vals) moved last: the result has
    shape (n^d, *batch).  An axis is summed by _half_sums, or split as k =
    lo + k1 + K1 k2, K1 = ceil(sqrt(w)), K2 = ceil(w / K1): k1 against an
    n x K1 table, then k2 against an n x K2 one, batched over the rows t.
    That holds n x rest x K2 partial sums, rest = batch size x prod(w_1 ..
    w_(axis-1)) x n^(d - axis) the step's other values, so an axis is split
    only where the two tables and those sums hold fewer entries than n w,
    by more than one _EXP_BLOCK_ENTRIES row block: for one polynomial every
    d = 1 box from a width of 45 (one-sided) to 58 (centred) up and, in d
    >= 2, at most a much wider last axis; no batch of make_fooling on the
    default and benchmark boxes.  n w counts the complex n x w table, which
    no axis holds (an unsplit axis sums on a real half table); that count
    stays the yardstick so that the same axes split and wide d = 1 norms
    keep their bits.  The tables are keyed by the split, not the batch
    size: chunks of a batch share them.

    Rounding.  With u = 2^-53, gamma_k = k u / (1 - k u) and beta(m) =
    sqrt(2) gamma_(m+1), the bound of a length-m complex dot product
    (Higham Lemma 3.5): a table entry's phase 2 pi r / n, |r| <= n / 2, is
    off by pi gamma_3 (a product by 2 fl(pi) and a quotient) and numpy's
    exponential adds at most 4 ulp <= 8 u per component
    (tests/test_exp_oracle.py), so each entry is within e_T = pi gamma_3 +
    8 sqrt(2) u of its root of unity.  Relative to the sum of |input| along
    it, a split axis adds e_a = 2 e_T + beta(K1) + beta(K2).  On a half
    table, with s_j = |c_j| + |c_-j|: the pair sums add u s_j to each of
    p_j and q_j; C_tj +- i S_tj are an entry and its conjugate, within
    e_T s_j on both; each real or imaginary part is a real dot product of
    length 2h + 1, [S | C]_t [+-iq; p], of terms |C_tj| |p_j| + |S_tj|
    |q_j| <= sqrt(2) s_j.  So e_a = e_T + sqrt(2) (u + gamma_(2h+1)).
    Entries have modulus at most 1 + e_T, so errors carry through later
    axes at most by the l1 sum: each batch entry's values are within (e_1
    + .. + e_d) |c|_1 of the exact sum_k c_k exp(2 pi i <k, t> / n), to
    first order in u.
    """
    lo, d = tuple(int(a) for a in lo), len(lo)
    batch, shape = vals.shape[:-d], vals.shape[-d:]
    if not vals.size:
        return np.zeros((n ** d, *batch), dtype=complex)
    k1s = []
    for axis, w in enumerate(shape):
        rest = math.prod(batch) * math.prod(shape[:axis]) * n ** (d - 1 - axis)
        k1 = math.isqrt(w - 1) + 1
        k2 = -(-w // k1)
        k1s.append(w if n * (w - k1 - k2 - rest * k2) <= _EXP_BLOCK_ENTRIES else k1)
    tables = _tables(n, lo, shape, tuple(k1s))
    x = vals.reshape(-1, math.prod(shape)).T
    for axis in reversed(range(d)):
        x = x.reshape(math.prod(shape[:axis]), shape[axis], -1)  # (P, w, S)
        (low, high), w, k1 = tables[axis], shape[axis], k1s[axis]
        if high is None:
            x = _half_sums(x, lo[axis], n, low)
            continue
        padded = np.zeros((*x.shape[::2], high.shape[1], k1), dtype=complex)
        padded.reshape(*x.shape[::2], -1)[..., :w] = x.transpose(0, 2, 1)
        part = np.tensordot(low, padded, axes=([1], [-1]))  # (n, P, S, k2)
        x = np.matmul(part.reshape(n, -1, high.shape[1]), high[:, :, None])
        x = x.reshape(part.shape[:3]).transpose(1, 0, 2)
    return x.reshape(n ** d, *batch)


def lp_norms(poly: TrigPolynomial, ps, samples=None) -> tuple:
    """Lp norms of a trigonometric polynomial, one per exponent p >= 1 in ps.

    Without samples the measure is mu, the normalized Lebesgue measure:
    quadrature on the tensor grid {2 pi t / n}^d with n =
    quadrature_grid_size(degree, p, OVERSAMPLE), summed one axis at a time
    (_grid_values), exact to roundoff for even integer p.  samples, the
    values of poly at m >= 1 points xi, select mu_xi, the half/half mixture
    of mu and the empirical measure of xi.  p = inf returns the grid (and
    sample) maximum, a lower estimate of the true sup norm.  Exponents that
    share a grid size share one grid evaluation.
    """
    if samples is not None:
        sample_abs = np.abs(samples)
        if sample_abs.size == 0:
            raise ValueError("mixture measure of an empty point set")
    grid_abs, norms, degree = {}, [], poly.degree
    for p in ps:
        if p != math.inf and not float(p) >= 1:
            raise ValueError("p must be >= 1 or inf")
        n = quadrature_grid_size(degree, p, OVERSAMPLE)
        if n not in grid_abs:
            grid_abs[n] = np.abs(_grid_values(poly._box, poly._lo, n))
        if p == math.inf:
            val = grid_abs[n].max()
            if samples is not None:
                val = max(val, sample_abs.max())
        else:
            val = np.mean(grid_abs[n] ** p)
            if samples is not None:  # mu_xi: mean of the two sides' p-th powers
                val = 0.5 * (val + np.mean(sample_abs ** p))
            val = val ** (1.0 / p)
        norms.append(float(val))
    return tuple(norms)


def lp_norm(poly: TrigPolynomial, p) -> float:
    """The Lp(mu) norm of one exponent: lp_norms(poly, (p,))[0]."""
    return lp_norms(poly, (p,))[0]


def write_polynomial(poly: TrigPolynomial, path, header_lines=()) -> None:
    """Write the text form: 'dim d' then one 'k_1 .. k_d re im' row per term."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"dim {poly.dim}\n")
        for k, c in poly.coeffs.items():
            ks = " ".join(str(v) for v in k)
            fh.write(f"{ks} {c.real:.17g} {c.imag:.17g}\n")
