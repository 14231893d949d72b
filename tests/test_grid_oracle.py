"""An exact oracle for the grid kernel `trig._grid_values`.

The kernel sums coefficient boxes on the tensor grid {2 pi t / n}^d from
root tables, split or half, and its docstring bounds the error of each
batch entry by (e_1 + .. + e_d) |c|_1 to first order.  Here the exact
sums, at 120 bits, check that bound on d = 1-3 boxes of one polynomial
with random dense coefficients, as `lp_norms` passes them, and on each
vector of null bases of d = 1-2 boxes on `make_fooling`'s grid, as it
passes them.
"""

import math

import numpy as np
import pytest

from womplab import trig
from womplab.discretization import draw_points
from womplab.trig import (OVERSAMPLE, TrigPolynomial, TrigSystem, _grid_values,
                          quadrature_grid_size)

U = np.finfo(float).eps / 2
POINTS = 64  # random grid points per case, besides t = 0

# (shape, p): the d = 1 widths from 64 on split on these grids (from about
# 50, depending on the corner), and so does the last axis of (3, 120), much
# wider than the other; the other axes keep their full tables
CASES = [((w,), p) for w, p in zip((2, 5, 11, 17, 33, 50, 64, 99, 128, 200, 257, 333, 401),
                                   (2, 4, math.inf) * 5)]
CASES += [((20, 20), 2), ((7, 31), 4), ((31, 7), 2), ((3, 120), math.inf),
          ((7, 7, 7), 2), ((1, 2, 30), 4), ((5, 4, 6), math.inf)]

# (box, m): make_fooling's null bases at m = theta/4 (the adversary's
# budget), theta/2 and a few points, on boxes of criterion 7, of the
# adversary workload and of d = 2; each keeps full tables
BATCHES = [((8,), 4), ((16,), 8), ((32,), 16), ((32,), 32), ((96,), 48),
           ((3, 2), 8), ((4, 4), 20), ((2, 5), 10)]
BATCH_POINTS = 8  # random grid points per batch, besides t = 0


def gamma(k):
    return k * U / (1 - k * U)


def kernel_bound(lo, shape, k1s):
    """The first-order bound of _grid_values' docstring over |c|_1, for the
    per-axis split k1s (K1 = w on an axis summed on its half table, with
    h = max(-lo, lo + w - 1))."""
    e_t = math.pi * gamma(3) + 8 * math.sqrt(2) * U

    def beta(m):
        return math.sqrt(2) * gamma(m + 1)

    total = 0.0
    for a, w, k1 in zip(lo, shape, k1s):
        if k1 == w:
            total += e_t + math.sqrt(2) * (U + gamma(2 * max(-a, a + w - 1) + 1))
        else:
            total += 2 * e_t + beta(k1) + beta(-(-w // k1))
    return total


def exact_values(mpmath, boxes, lo, n, points):
    """sum_k c_k exp(2 pi i <k, t> / n) at each grid index t (rows) for each
    coefficient box in boxes (columns), at 120 bits; each root of unity is
    computed once from the exact integer (t k) mod n."""
    roots = {}

    def root(r):
        if r not in roots:
            roots[r] = mpmath.expjpi(mpmath.mpf(2 * r) / n)
        return roots[r]

    shape = boxes.shape[1:]
    coeffs = [[mpmath.mpc(c.real, c.imag) for c in box.reshape(-1).tolist()]
              for box in boxes]
    keys = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=-1) + lo
    out = []
    for t in points:
        phase = [root(int(r)) for r in ((keys @ np.asarray(t)) % n).tolist()]
        out.append([mpmath.fdot(c, phase) for c in coeffs])
    return out


def worst_ratios(mpmath, boxes, lo, n, rng, count):
    """The kernel on the coefficient boxes (a batch), checked at t = 0 and
    count random grid points: per batch entry its worst error over |c|_1,
    divided by the kernel's first-order bound; and the split it read."""
    d = len(lo)
    points = [(0,) * d] + [tuple(rng.integers(0, n, size=d).tolist())
                           for _ in range(count)]
    rows = [np.ravel_multi_index(t, (n,) * d) for t in points]
    got = _grid_values(boxes, lo, n)[rows]
    _, lo, shape, k1s = next(reversed(trig._tables.kept))  # the tables it read
    l1 = np.abs(boxes).reshape(len(boxes), -1).sum(axis=1)
    with mpmath.workprec(120):
        exact = exact_values(mpmath, boxes, lo, n, points)
        errors = np.array([[float(abs(mpmath.mpc(complex(z)) - x)) for z, x in zip(row, ex)]
                           for row, ex in zip(got.tolist(), exact)])
    return errors.max(axis=0) / l1 / kernel_bound(lo, shape, k1s), shape, k1s


def test_one_polynomial_is_within_the_kernel_bound():
    mpmath = pytest.importorskip(
        "mpmath", reason="the oracle needs 120-bit roots of unity")
    rng = np.random.default_rng(29)
    splits = 0
    for shape, p in CASES:
        lo = tuple(int(rng.integers(-w, 1)) for w in shape)
        box = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        n = quadrature_grid_size(TrigPolynomial._from_box(len(shape), lo, box).degree,
                                 p, OVERSAMPLE)
        (ratio,), _, k1s = worst_ratios(mpmath, box[None], lo, n, rng, POINTS)
        # second-order terms are below 1e-10 of the first-order bound here
        assert 0 < ratio <= 1.01, (shape, ratio)
        splits += sum(k1 < w for k1, w in zip(k1s, shape))
    assert splits >= 8


def test_null_basis_batches_are_within_the_kernel_bound():
    mpmath = pytest.importorskip(
        "mpmath", reason="the oracle needs 120-bit roots of unity")
    rng = np.random.default_rng(30)
    for box, m in BATCHES:
        system = TrigSystem(len(box), box)
        vh = np.linalg.svd(system.evaluate_at(draw_points(m, len(box), m).points))[2]
        boxes = vh[m:].conj().reshape(-1, *(2 * b + 1 for b in box))
        n = quadrature_grid_size(max(box), math.inf, OVERSAMPLE)
        ratios, shape, k1s = worst_ratios(mpmath, boxes, tuple(-b for b in box), n,
                                          rng, BATCH_POINTS)
        assert k1s == shape
        assert len(ratios) == system.size - m
        assert np.all((0 < ratios) & (ratios <= 1.01)), (box, ratios.max())
