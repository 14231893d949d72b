"""An exact oracle for `greedy._screen_bound`, the best v-term screen's bound.

Per support S, `_screen_bound` bounds how far the squared error s that
`_block_solve` computes on the discrete Gram and the squared error e_L^2 of
`project()` can lie from each other.  Its derivation puts each within its
part of the bound of the exact squared error min_c |y - A_S c|^2 / m at the
stored points and samples, so |s - exact| + |e_L^2 - exact| <= bound.  Here
the exact value comes from 120-bit exponentials at the float points and
the float samples.
"""

import itertools

import numpy as np
import pytest

from womplab.discretization import build_sampled, draw_points
from womplab.greedy import _block_solve, _screen_bound, project
from womplab.trig import TrigSystem


def exact_moments(mpmath, h, y):
    """The exact Gram A^H A / m, A^H y / m and |y|^2 / m at h's stored
    points and the samples y, at the working precision."""
    m, keys = h.m, h.system.indices()
    rows = [[mpmath.expj(sum(k * mpmath.mpf(x) for k, x in zip(key, point)))
             for key in keys] for point in h.pointset.points.tolist()]
    ys = [mpmath.mpc(v) for v in y.tolist()]
    gram = [[mpmath.fsum(mpmath.conj(r[p]) * r[q] for r in rows) / m
             for q in range(len(keys))] for p in range(len(keys))]
    rhs = [mpmath.fsum(mpmath.conj(r[p]) * v for r, v in zip(rows, ys)) / m
           for p in range(len(keys))]
    return gram, rhs, mpmath.fsum(abs(v) ** 2 for v in ys) / m


def exact_error_sq(mpmath, gram, rhs, norm_sq, support):
    """|y|^2 / m - b_S^H G_S^-1 b_S, the exact squared projection error."""
    g = mpmath.matrix([[gram[p][q] for q in support] for p in support])
    b = mpmath.matrix([rhs[p] for p in support])
    c = mpmath.lu_solve(g, b)
    return norm_sq - mpmath.re(sum(mpmath.conj(c[i]) * b[i] for i in range(len(support))))


def error_to_bound_ratios(mpmath, box, m):
    """|s - exact| + |e_L^2 - exact| over the bound, for every support of
    v = 1-3 terms with m in (v, 2 v, 60) that the bound covers, on a
    generic target and on one in the span of two columns (where the exact
    error vanishes on every support holding both)."""
    system = TrigSystem(len(box), box)
    h = build_sampled(system, draw_points(m, system.dim, 17 + m))
    rng = np.random.default_rng(m)
    coeff = np.zeros(system.size, dtype=complex)
    coeff[[1, system.size - 2]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ratios = []
    for y in (rng.standard_normal(m) + 1j * rng.standard_normal(m), h @ coeff):
        rhs = h.adjoint(y).conj() / h.m
        norm_sq = float(np.vdot(y, y).real) / h.m
        exact = None
        for v in [v for v in (1, 2, 3) if m in (v, 2 * v, 60)]:
            idx = np.array(list(itertools.combinations(range(system.size), v)))
            bound = _screen_bound(h.gram, idx, norm_sq, h.m)
            ok = np.isfinite(bound)
            if not ok.any():
                continue
            screened = _block_solve(h.gram, rhs, norm_sq, idx[ok])
            with mpmath.workprec(120):
                exact = exact or exact_moments(mpmath, h, y)
                for support, s, b in zip(idx[ok].tolist(), screened, bound[ok]):
                    e_l = h.norm(project(h, y, support).residual)
                    want = exact_error_sq(mpmath, *exact, support)
                    ratios.append(float(abs(s - want) + abs(e_l ** 2 - want)) / b)
    return np.array(ratios)


@pytest.mark.parametrize("box", [(4,), (2, 1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 60])
def test_screen_bound_covers_both_errors_against_exact_values(box, m):
    mpmath = pytest.importorskip(
        "mpmath", reason="the bound's oracle needs 120-bit exponentials")
    ratios = error_to_bound_ratios(mpmath, box, m)
    assert np.all(ratios <= 1)
    if m == 60:  # the bound covers every support of 1-3 terms, both targets
        assert ratios.size == 2 * (129 if box == (4,) else 575)
