"""An exact oracle for `discretization._eig_rounding_bound`.

Its derivation puts each eigenvalue that `eigvalsh` computes for a Gram
block of the scan within beta = (returned bound) / 4 of the exact
eigenvalue at the stored points: the entry error of the product Gram
(steps 1 and 2), Weyl's inequality (step 3) and p(u) = 8 u^2 for LAPACK's
heevd (step 4).  Here the exact block comes from 120-bit moments
g(l) = (1/m) sum_i exp(i<l, x_i>) at the float points, B[p, q] =
g(k_q - k_p), and its eigenvalues from mpmath's `eighe`.
"""

import numpy as np
import pytest

from womplab.discretization import (_box_representatives, _eig_rounding_bound,
                                    _extremes, build_sampled, draw_points)
from womplab.trig import TrigSystem


def exact_moments(mpmath, sampled):
    """l -> g(l) at the working precision, each computed once, g(-l) as
    the conjugate of g(l)."""
    points = [[mpmath.mpf(x) for x in point] for point in sampled.pointset.points.tolist()]
    done = {}

    def g(l):
        if tuple(-v for v in l) in done:
            return mpmath.conj(done[tuple(-v for v in l)])
        if l not in done:
            done[l] = mpmath.fsum(mpmath.expj(mpmath.fsum(k * x for k, x in zip(l, x_i)))
                                  for x_i in points) / sampled.m
        return done[l]

    return g


def error_to_bound_ratios(mpmath, box, m, us):
    """For each u in us, the largest |eigvalsh - exact| over beta among the
    class representatives attaining the computed extremes and three spread
    over the others, on one point set of m points."""
    system = TrigSystem(len(box), box)
    sampled = build_sampled(system, draw_points(m, system.dim, m))
    keys = np.array(system.indices())
    ratios = []
    with mpmath.workprec(120):
        g = exact_moments(mpmath, sampled)
        for u in us:
            reps = _box_representatives(system.box, u)
            lo, hi = _extremes(sampled.gram, reps)
            spread = np.linspace(0, len(reps) - 1, 3).astype(int).tolist()
            rows = reps[sorted({int(np.argmin(lo)), int(np.argmax(hi)), *spread})]
            beta = _eig_rounding_bound(sampled, u) / 4
            for row in rows:
                got = np.linalg.eigvalsh(sampled.gram[row[:, None], row[None, :]])
                block = mpmath.matrix([[g(tuple((keys[q] - keys[p]).tolist())) for q in row]
                                       for p in row])
                exact = sorted(mpmath.eighe(block, eigvals_only=True))
                ratios.append(max(float(abs(a - b)) for a, b in zip(got.tolist(), exact))
                              / beta)
    return ratios


@pytest.mark.parametrize("box", [(4,), (2, 1), (10,)])
def test_eig_rounding_bound_covers_eigvalsh_against_exact_values(box):
    mpmath = pytest.importorskip(
        "mpmath", reason="the bound's oracle needs 120-bit exponentials")
    # u = 2-4 with m in {u - 1, u, 30, 600}
    ratios = []
    for m in (1, 2, 3, 4, 30, 600):
        us = [u for u in (2, 3, 4) if m in (u - 1, u, 30, 600)]
        ratios += error_to_bound_ratios(mpmath, box, m, us)
    assert len(ratios) >= 3 * 12
    assert max(ratios) <= 1.0
