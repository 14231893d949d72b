"""An exact oracle for `greedy._womp_gram`'s fallback bound.

The Gram route keeps W = R^-1 for the Cholesky factor R of the moment rows
M[S, S] and goes on while mu = 1 / |W|_F^2 exceeds 4 phi, phi = n m (g +
4 gamma_(n+1) kappa), kappa = sqrt(n m) |W|_F, n = |S|.  Its docstring
then claims, for the exact M_S = A_S^H A_S and b = A_S^H y at the stored
points and samples, that lambda_min(M_S) > mu / 2 and that the returned
coefficients c lie within 2 (phi |c| + |b_computed - b|) / mu of
M_S^-1 b.  Here W is replayed from h.moments() rows as the loop builds
it, and M_S and b come from 120-bit exponentials: exp(i x_j) from mpmath
per point and axis, its powers and products in fixed point on the grid
2^-120 (within 2^-112 of exact for the boxes here), the sums exact in
integers; mpmath's eighe and lu_solve at 120 bits give lambda_min and
M_S^-1 b.
"""

import math

import numpy as np
import pytest

from womplab import greedy
from womplab.discretization import _entry_bound, _gamma, build_sampled, draw_points
from womplab.trig import TrigSystem

BITS = 120


def fixed(mpmath, z):
    """z rounded to the grid 2^-BITS, as the ints (re, im) of 2^BITS z."""
    return tuple(int(mpmath.nint(mpmath.ldexp(part, BITS)))
                 for part in (mpmath.re(z), mpmath.im(z)))


def times(a, b):
    """The fixed-point complex product a b, truncated to the grid."""
    return ((a[0] * b[0] - a[1] * b[1]) >> BITS, (a[0] * b[1] + a[1] * b[0]) >> BITS)


def exponentials(mpmath, h, keys):
    """exp(i<k, x>) in fixed point, one row per point of h, one column per
    key k: the product over the axes of powers of exp(i x_j)."""
    top = [max(abs(k[j]) for k in keys) for j in range(h.system.dim)]
    rows = []
    for point in h.pointset.points.tolist():
        powers = []
        for x, k_max in zip(point, top):
            z, power = fixed(mpmath, mpmath.expj(x)), {0: (1 << BITS, 0)}
            for k in range(1, k_max + 1):
                power[k] = times(power[k - 1], z)
                power[-k] = (power[k][0], -power[k][1])
            powers.append(power)
        row = []
        for key in keys:
            entry = (1 << BITS, 0)
            for power, k in zip(powers, key):
                entry = times(entry, power[k])
            row.append(entry)
        rows.append(row)
    return rows


def exact_normal_equations(mpmath, h, y, support):
    """M_S = A_S^H A_S and b = A_S^H y at h's stored points and the samples
    y, as mpmath matrices at the working precision."""
    keys = [h.system.indices()[p] for p in support]
    a = np.array(exponentials(mpmath, h, keys), dtype=object)  # (m, n, 2)
    ys = np.array([fixed(mpmath, mpmath.mpc(v)) for v in y.tolist()], dtype=object)
    re, im = a[..., 0], a[..., 1]
    m_re, m_im = re.T @ re + im.T @ im, re.T @ im - im.T @ re
    b_re, b_im = re.T @ ys[:, 0] + im.T @ ys[:, 1], re.T @ ys[:, 1] - im.T @ ys[:, 0]
    unit, n = mpmath.ldexp(1, -2 * BITS), len(keys)
    gram = mpmath.matrix([[mpmath.mpc(m_re[p, q], m_im[p, q]) * unit for q in range(n)]
                          for p in range(n)])
    return gram, mpmath.matrix([mpmath.mpc(b_re[p], b_im[p]) * unit for p in range(n)])


def replayed_wsq(h, selected, steps):
    """|W|_F^2 as _womp_gram accumulates it, W grown a column per pick from
    the same moment rows by the same operations."""
    row, m = h.moments(), h.m
    rows = np.empty((steps, h.size), dtype=complex)
    w, wsq = np.zeros((steps, steps), dtype=complex), 0.0
    for k, pick in enumerate(selected):
        rows[k] = row(pick)
        r = w[:k, :k].conj().T @ rows[:k, pick]
        d = math.sqrt(m - float(np.vdot(r, r).real))
        w[:k, k], w[k, k] = -(w[:k, :k] @ r) / d, 1 / d
        wsq += float(np.vdot(w[:k + 1, k], w[:k + 1, k]).real)
    return wsq


def distance(mpmath, got, exact):
    """|got - exact|_2 for a float vector and an mpmath one."""
    return math.sqrt(sum(float(abs(mpmath.mpc(a) - b)) ** 2
                         for a, b in zip(got.tolist(), exact)))


def bound_ratios(mpmath, box, m, steps, t):
    """(error / bound, lambda_min(M_S) / (mu / 2)) for one Gram-route run on
    a generic target at m random points."""
    system = TrigSystem(len(box), box)
    h = build_sampled(system, draw_points(m, system.dim, m + 1))
    rng = np.random.default_rng(m + 1)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    trace = greedy._womp_gram(h, y, t, steps, t)
    assert trace is not None, "the run was handed to the least-squares route"
    selected, c = list(trace.selected), trace.coefficients
    n, wsq = len(selected), replayed_wsq(h, selected, steps)
    mu = 1 / wsq
    phi = n * m * (_entry_bound(h) + 4 * _gamma(n + 1) * math.sqrt(n * m * wsq))
    with mpmath.workprec(BITS):
        gram, b = exact_normal_equations(mpmath, h, y, selected)
        lam = float(min(mpmath.eighe(gram, eigvals_only=True)))
        error = distance(mpmath, c, mpmath.lu_solve(gram, b))
        db = distance(mpmath, h.adjoint(y).conj()[selected], b)
    return error / (2 * (phi * np.linalg.norm(c) + db) / mu), lam / (mu / 2)


@pytest.mark.parametrize("box, m, steps, t", [
    ((3,), 14, 7, 1.0), ((7,), 14, 14, 1.0), ((15,), 16, 16, 0.5),
    ((15,), 60, 16, 1.0), ((31,), 20, 16, 1.0), ((31,), 600, 16, 1.0),
    ((2, 1), 14, 14, 1.0), ((2, 1), 40, 15, 0.5), ((3, 3), 14, 14, 1.0),
    ((3, 3), 200, 16, 1.0)])
def test_womp_gram_bound_covers_its_coefficients_against_exact_values(box, m, steps, t):
    mpmath = pytest.importorskip(
        "mpmath", reason="the bound's oracle needs 120-bit exponentials")
    error_ratio, lam_ratio = bound_ratios(mpmath, box, m, steps, t)
    assert error_ratio <= 1
    assert lam_ratio > 1
