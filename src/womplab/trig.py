"""Sparse trigonometric polynomials on the d-torus.

A polynomial is a finite sum  f(x) = sum_k c_k exp(i<k, x>)  with integer
frequency vectors k.  Everything here is desk scale: polynomials are stored
as sparse coefficient maps and evaluated directly, without fast transforms.
The torus carries the normalized Lebesgue measure, so the exponentials form
an orthonormal system and l2 norms come straight from Parseval.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Coefficients whose magnitude falls below this after arithmetic are dropped,
# keeping the sparse representation canonical.
COEFF_DROP_TOL = 1e-14

# Cap on entries of any single evaluation block (points x coefficients).
_EVAL_CHUNK_ENTRIES = 1 << 22

# Grid refinement of lp_norm's quadrature and of make_fooling's sup search.
OVERSAMPLE = 8


def _as_points(points, dim):
    """Coerce input to an (m, dim) float array of sample points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class TrigPolynomial:
    """Immutable sparse trigonometric polynomial.

    Parameters
    ----------
    dim : int
        Dimension d of the torus.
    coeffs : dict
        Map from integer multi-indices (length-d tuples) to complex
        coefficients.  Exact zeros are removed on construction.
    """

    dim: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        clean = {}
        for k, c in self.coeffs.items():
            key = tuple(map(int, k))
            if len(key) != self.dim:
                raise ValueError(f"index {key} does not match dimension {self.dim}")
            c = complex(c)
            if c != 0:
                clean[key] = clean.get(key, 0) + c
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        """Max sup-norm of the stored frequencies (0 for the zero polynomial)."""
        if not self.coeffs:
            return 0
        keys = np.array(list(self.coeffs))  # int64, or object past its range
        return max(int(keys.max()), -int(keys.min()))

    def eval(self, points) -> np.ndarray:
        """Evaluate at an (m, d) array of points, returning complex values."""
        pts = _as_points(points, self.dim)
        out = np.zeros(pts.shape[0], dtype=complex)
        if not self.coeffs:
            return out
        keys = sorted(self.coeffs)
        K = np.array(keys, dtype=float)
        c = np.array([self.coeffs[k] for k in keys])
        chunk = max(1, _EVAL_CHUNK_ENTRIES // max(1, len(c)))
        for lo in range(0, pts.shape[0], chunk):
            block = pts[lo:lo + chunk]
            out[lo:lo + chunk] = np.exp(1j * (block @ K.T)) @ c
        return out

    def l2_norm(self) -> float:
        """Exact L2 norm under the normalized measure (Parseval)."""
        if not self.coeffs:
            return 0.0
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values())))

    def translate(self, shift) -> "TrigPolynomial":
        """Return x -> f(x - shift); coefficients pick up phases exp(-i<k, shift>)."""
        s = np.asarray(shift, dtype=float).reshape(-1)
        if s.size != self.dim:
            raise ValueError("shift dimension mismatch")
        return TrigPolynomial(
            self.dim,
            {k: c * np.exp(-1j * float(np.dot(k, s))) for k, c in self.coeffs.items()},
        )

    def __add__(self, other):
        self._check_same_dim(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return TrigPolynomial(self.dim, {k: c for k, c in out.items()
                                         if abs(c) >= COEFF_DROP_TOL})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TrigPolynomial(self.dim, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        return multiply(self, other)

    def _check_same_dim(self, other):
        if not isinstance(other, TrigPolynomial) or other.dim != self.dim:
            raise ValueError("operands must be TrigPolynomial of equal dimension")


def _dense(poly: TrigPolynomial):
    """Coefficients in a dense array over their bounding box, and its lowest corner."""
    keys = np.array(list(poly.coeffs), dtype=np.int64).reshape(-1, poly.dim)
    lo = keys.min(axis=0)
    dense = np.zeros(tuple(keys.max(axis=0) - lo + 1), dtype=complex)
    dense[tuple((keys - lo).T)] = list(poly.coeffs.values())
    return dense, lo


def multiply(f: TrigPolynomial, g: TrigPolynomial) -> TrigPolynomial:
    """Pointwise product: a direct dense convolution of the coefficients,
    one shifted copy of f's dense array per nonzero coefficient of g."""
    f._check_same_dim(g)
    if not f.coeffs or not g.coeffs:
        return TrigPolynomial(f.dim)
    a, alo = _dense(f)
    b, blo = _dense(g)
    out = np.zeros(tuple(np.add(a.shape, b.shape) - 1), dtype=complex)
    for k in np.argwhere(b):
        out[tuple(slice(s, s + w) for s, w in zip(k, a.shape))] += b[tuple(k)] * a
    keep = np.argwhere(np.abs(out) >= COEFF_DROP_TOL)
    return TrigPolynomial(f.dim, dict(zip(map(tuple, (keep + alo + blo).tolist()),
                                          out[tuple(keep.T)].tolist())))


def fejer_kernel(j) -> TrigPolynomial:
    """Tensor-product Fejer kernel with per-coordinate orders j.

    The univariate factor of order j has coefficients (1 - |k|/j) for
    |k| <= j - 1.  It is nonnegative on the torus, its mean is 1, and its
    sup norm j is attained at 0; the tensor product inherits all three
    properties coordinatewise.

    Parameters
    ----------
    j : sequence of int
        Positive order, one per coordinate.
    """
    orders = tuple(map(int, j))
    if any(v < 1 for v in orders):
        raise ValueError("Fejer orders must be positive integers")
    axes = [[(k, 1.0 - abs(k) / v) for k in range(-(v - 1), v)] for v in orders]
    coeffs = {}
    for combo in itertools.product(*axes):
        k = tuple(kw[0] for kw in combo)
        w = 1.0
        for kw in combo:
            w *= kw[1]
        coeffs[k] = w
    return TrigPolynomial(len(orders), coeffs)


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
        n = 1
        for v in self.box:
            n *= 2 * v + 1
        return n

    def indices(self) -> list:
        """All frequency tuples in lexicographic order."""
        ranges = [range(-v, v + 1) for v in self.box]
        return list(itertools.product(*ranges))

    def index_at(self, col: int) -> tuple:
        """Frequency tuple of a dictionary column."""
        if not 0 <= col < self.size:
            raise IndexError("column out of range")
        k = []
        rem = col
        for v in reversed(self.box):
            w = 2 * v + 1
            k.append(rem % w - v)
            rem //= w
        return tuple(reversed(k))

    def column_of(self, k) -> int:
        """Dictionary column of a frequency tuple."""
        key = tuple(map(int, k))
        col = 0
        for ki, v in zip(key, self.box):
            if abs(ki) > v:
                raise ValueError(f"index {key} outside box {self.box}")
            col = col * (2 * v + 1) + (ki + v)
        return col

    def evaluate_at(self, points) -> np.ndarray:
        """Evaluation matrix with entry [i, j] = exp(i <k_j, x_i>).

        Column size - 1 - j carries -k_j, and exp(1j * -t) is bit for bit
        conj(exp(1j * t)) up to the sign of a zero imaginary part, so only
        the columns from k = 0 on are exponentiated and the others are
        filled by conjugation; the result is bit for bit that of
        exponentiating every phase.
        """
        pts = _as_points(points, self.dim)
        K = np.array(self.indices(), dtype=float)
        n = self.size
        zero = n // 2  # column of k = 0
        out = np.empty((pts.shape[0], n), dtype=complex)
        chunk = max(1, _EVAL_CHUNK_ENTRIES // n)
        for lo in range(0, pts.shape[0], chunk):
            block = out[lo:lo + chunk]
            # phases of all columns from one product: a product of another
            # shape may round differently in d >= 2
            phase = pts[lo:lo + chunk] @ K.T
            np.exp(1j * phase[:, zero:], out=block[:, zero:])
            # 0 - im, not -im: exp(1j * -0.0) has imaginary part +0.0
            mirror, left = block[:, :zero:-1], block[:, :zero]
            left.real = mirror.real
            np.subtract(0.0, mirror.imag, out=left.imag)
        return out


def quadrature_grid_size(degree: int, p, oversample: int) -> int:
    """Per-dimension grid size used by lp_norm for the continuous measure.

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


@functools.lru_cache(maxsize=1)
def _root_tables(n: int, lo: tuple, shape: tuple) -> tuple:
    """Read-only tables exp(2 pi i t k / n) = roots[(t * k) % n], one per axis,
    for k from lo[axis] to lo[axis] + shape[axis] - 1; axes with the same
    range share one table.  Only the last bounding box's tables are kept."""
    _root_tables.cache_clear()  # free the last box's tables before building these
    t = np.arange(n)
    roots = np.exp(2j * np.pi * t / n)
    built = {}
    for span in zip(lo, shape):
        if span not in built:
            phase = np.outer(t, np.arange(span[0], span[0] + span[1]))
            phase %= n
            built[span] = roots[phase]
            built[span].flags.writeable = False
    return tuple(built[span] for span in zip(lo, shape))


def _grid_values(poly: TrigPolynomial, n: int) -> np.ndarray:
    """poly on _tensor_grid(n, poly.dim), in the same row order: the dense
    coefficient array summed one axis at a time against _root_tables
    (sum factorisation, not an FFT)."""
    if not poly.coeffs:
        return np.zeros(n ** poly.dim, dtype=complex)
    vals, lo = _dense(poly)
    tables = _root_tables(n, tuple(lo.tolist()), vals.shape)
    for table in reversed(tables):  # each product puts its grid axis first
        vals = np.tensordot(table, vals, axes=([1], [-1]))
    return vals.reshape(-1)


def _check_norm_args(p):
    if p != math.inf and not float(p) >= 1:
        raise ValueError("p must be >= 1 or inf")


def lp_norms(poly: TrigPolynomial, ps) -> tuple:
    """Lp norms under the normalized Lebesgue measure, one per p in ps, each
    bitwise lp_norm(poly, p, "mu"); exponents that share a grid size share
    one grid evaluation."""
    grid_abs, norms, degree = {}, [], poly.degree
    for p in ps:
        _check_norm_args(p)
        n = quadrature_grid_size(degree, p, OVERSAMPLE)
        if n not in grid_abs:
            grid_abs[n] = np.abs(_grid_values(poly, n))
        norms.append(float(grid_abs[n].max() if p == math.inf
                           else np.mean(grid_abs[n] ** p) ** (1.0 / p)))
    return tuple(norms)


def lp_norm(poly: TrigPolynomial, p, measure: str = "mu", pointset=None) -> float:
    """Lp norm of a trigonometric polynomial under one of two measures.

    Parameters
    ----------
    poly : TrigPolynomial
    p : float or math.inf
        Exponent, p >= 1.  For even integer p the continuous quadrature is
        exact to roundoff; p = inf returns the grid (or sample) maximum,
        which is a lower estimate of the true sup norm.
    measure : str
        "mu"    normalized Lebesgue measure, quadrature on the tensor grid
                {2 pi t / n}^d with n = quadrature_grid_size(degree, p,
                OVERSAMPLE), summed one axis at a time (_grid_values);
        "mu_xi" the half/half mixture of mu and the empirical measure of a
                point set (pointset required).
    pointset : PointSet, optional
        Sample points for the mixture.

    Returns
    -------
    float
        Nonnegative norm value.
    """
    _check_norm_args(p)
    if measure not in ("mu", "mu_xi"):
        raise ValueError(f"unknown measure: {measure}")
    if measure == "mu":
        return lp_norms(poly, (p,))[0]
    if pointset is None:
        raise ValueError(f"measure {measure} requires a point set")
    if pointset.dim != poly.dim:
        raise ValueError("point set dimension mismatch")
    if pointset.m == 0:
        raise ValueError("mixture measure of an empty point set")
    sample_abs = np.abs(poly.eval(pointset.points))

    # mu_xi: mean of the p-th powers of the two sides
    n = quadrature_grid_size(poly.degree, p, OVERSAMPLE)
    grid_abs = np.abs(_grid_values(poly, n))
    if p == math.inf:
        return float(max(grid_abs.max(), sample_abs.max()))
    val = 0.5 * (np.mean(grid_abs ** p) + np.mean(sample_abs ** p))
    return float(val ** (1.0 / p))


def write_polynomial(poly: TrigPolynomial, path, header_lines=()) -> None:
    """Write the text form: 'dim d' then one 'k_1 .. k_d re im' row per term."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"dim {poly.dim}\n")
        for k in sorted(poly.coeffs):
            c = poly.coeffs[k]
            ks = " ".join(str(v) for v in k)
            fh.write(f"{ks} {c.real:.17g} {c.imag:.17g}\n")
