"""An exact oracle for the grid kernel of `lp_norms`.

`trig._poly_grid_values` sums a coefficient box on the tensor grid
{2 pi t / n}^d from split root tables, and its docstring bounds the error
by (e_1 + .. + e_d) |c|_1 to first order.  Here the exact sums, at 120
bits, check that bound on d = 1-3 boxes with random dense coefficients,
and compare the kernel with the full-table path (`_grid_values` on
`_root_tables`) on the same cases.
"""

import math

import numpy as np
import pytest

from womplab.trig import (OVERSAMPLE, TrigPolynomial, _grid_values,
                          _poly_grid_values, _root_tables, _split_tables,
                          quadrature_grid_size)

U = np.finfo(float).eps / 2
POINTS = 64  # random grid points per case, besides t = 0

# (shape, p): the d = 1 widths from 64 on split on these grids (from about
# 50, depending on the corner), and so does the last axis of (3, 120), much
# wider than the other; the other axes keep their full tables, gathered
# from roots at phases in (-pi, pi]
CASES = [((w,), p) for w, p in zip((2, 5, 11, 17, 33, 50, 64, 99, 128, 200, 257, 333, 401),
                                   (2, 4, math.inf) * 5)]
CASES += [((20, 20), 2), ((7, 31), 4), ((31, 7), 2), ((3, 120), math.inf),
          ((7, 7, 7), 2), ((1, 2, 30), 4), ((5, 4, 6), math.inf)]


def gamma(k):
    return k * U / (1 - k * U)


def kernel_bound(n, lo, shape):
    """The first-order bound of _poly_grid_values' docstring, over |c|_1."""
    e_t = math.pi * gamma(3) + 8 * math.sqrt(2) * U

    def beta(m):
        return math.sqrt(2) * gamma(m + 1)

    total = 0.0
    for (low, high), w in zip(_split_tables(n, lo, shape), shape):
        if high is None:
            total += e_t + beta(w)
        else:
            total += 2 * e_t + beta(low.shape[1]) + beta(high.shape[1])
    return total


def exact_values(mpmath, box, lo, n, points):
    """sum_k c_k exp(2 pi i <k, t> / n) at each grid index t, at 120 bits;
    each root of unity is computed once from the exact integer (t k) mod n."""
    roots = {}

    def root(r):
        if r not in roots:
            roots[r] = mpmath.expjpi(mpmath.mpf(2 * r) / n)
        return roots[r]

    coeff = [mpmath.mpc(c.real, c.imag) for c in box.reshape(-1).tolist()]
    keys = np.stack(np.unravel_index(np.arange(box.size), box.shape), axis=-1) + lo
    out = []
    for t in points:
        phase = (keys @ np.asarray(t)) % n
        out.append(mpmath.fdot(coeff, [root(int(r)) for r in phase.tolist()]))
    return out


def worst_errors(mpmath, shape, p, rng):
    """Worst error of the kernel and of the full-table path over the case's
    points, in units of eps |c|_1, the kernel's bound in those units and
    the number of axes it split."""
    d = len(shape)
    lo = tuple(int(rng.integers(-w, 1)) for w in shape)
    box = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    poly = TrigPolynomial._from_box(d, lo, box)
    n = quadrature_grid_size(poly.degree, p, OVERSAMPLE)
    points = [(0,) * d] + [tuple(rng.integers(0, n, size=d).tolist())
                           for _ in range(POINTS)]
    rows = [np.ravel_multi_index(t, (n,) * d) for t in points]
    split = _poly_grid_values(poly, n)[rows]
    full = _grid_values(box, _root_tables(n, lo, shape))[rows]
    scale = np.finfo(float).eps * np.abs(box).sum()
    with mpmath.workprec(120):
        exact = exact_values(mpmath, box, lo, n, points)
        errors = [max(float(abs(mpmath.mpc(complex(z)) - x)) for z, x in zip(got, exact))
                  / scale for got in (split, full)]
    splits = sum(high is not None for _, high in _split_tables(n, lo, shape))
    return errors, kernel_bound(n, lo, shape) / np.finfo(float).eps, splits


def test_split_kernel_is_within_its_bound_and_the_full_tables_error():
    mpmath = pytest.importorskip(
        "mpmath", reason="the oracle needs 120-bit roots of unity")
    rng = np.random.default_rng(29)
    worst_split = worst_full = 0.0
    splits = 0
    for shape, p in CASES:
        (split, full), bound, axes = worst_errors(mpmath, shape, p, rng)
        # second-order terms are below 1e-10 of the first-order bound here
        assert split <= 1.01 * bound, (shape, split, bound)
        worst_split, worst_full = max(worst_split, split), max(worst_full, full)
        splits += axes
    assert splits >= 8
    assert 0 < worst_split <= 2 * worst_full
