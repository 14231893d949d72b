"""Weak greedy pursuit and exhaustive best-term approximation."""

import itertools
import math

import numpy as np
import pytest

from womplab.discretization import PointSet, build_sampled, draw_points, \
    uniform_grid_points
from womplab.greedy import best_vterm, project, womp
from womplab.recovery import reconstruct
from womplab.trig import TrigSystem


def _grid_hilbert(degree):
    system = TrigSystem(1, (degree,))
    pts = uniform_grid_points(2 * degree + 1, 1)
    return system, pts, build_sampled(system, pts)


# -------------------------------------------------------------------- womp

def test_womp_frozen_three_term_run():
    # orthonormal columns with coefficients 2, 1, 0.5: the residual norms
    # are sqrt(5.25), sqrt(1.25), 0.5, 0 and selection follows magnitude
    system, pts, h = _grid_hilbert(3)
    f0 = reconstruct(system, [1, 4, 6], [2.0, 1.0, 0.5])
    trace = womp(h, f0.eval(pts.points))
    assert trace.selected == (1, 4, 6)
    expect = [math.sqrt(5.25), math.sqrt(1.25), 0.5, 0.0]
    assert len(trace.residual_norms) == 4
    for got, want in zip(trace.residual_norms, expect):
        assert got == pytest.approx(want, abs=1e-12)
    assert trace.chosen_ips[0] == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(np.sort(np.abs(trace.coefficients)),
                               [0.5, 1.0, 2.0], rtol=1e-12)


def test_womp_stops_on_zero_target():
    _, _, h = _grid_hilbert(2)
    trace = womp(h, np.zeros(5, dtype=complex))
    assert trace.steps == 0
    assert trace.residual_norms == (0.0,)


def test_womp_residuals_never_increase():
    system = TrigSystem(1, (4,))
    pts = draw_points(60, 1, seed=5)
    h = build_sampled(system, pts)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    trace = womp(h, y, steps=9)
    drops = np.diff(trace.residual_norms)
    assert np.all(drops <= 1e-12 * trace.residual_norms[0])


def test_womp_orthogonality_after_each_step():
    system = TrigSystem(1, (3,))
    pts = draw_points(30, 1, seed=6)
    h = build_sampled(system, pts)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    trace = womp(h, y, steps=5)
    for k in range(1, trace.steps + 1):
        res = project(h, y, trace.selected[:k]).residual
        ips = h.columns(trace.selected[:k]).conj().T @ res / h.m
        assert np.abs(ips).max() <= 1e-10 * max(1.0, h.norm(y))


def test_adversarial_weak_selection_picks_first_above_threshold():
    # coefficients 1.0 on column 2 and 0.9 on column 0: with t = 0.85 the
    # adversarial rule takes column 0 first, the argmax rule column 2
    system, pts, h = _grid_hilbert(2)
    f0 = reconstruct(system, [0, 2], [0.9, 1.0])
    y = f0.eval(pts.points)
    adv = womp(h, y, t=0.85, selection="adversarial-weak")
    assert adv.selected[0] == 0
    assert set(adv.selected) == {0, 2}
    top = womp(h, y, t=0.85)
    assert top.selected[0] == 2
    assert top.residual_norms[-1] <= 1e-12


def test_adversarial_weak_still_converges_on_coherent_data():
    system = TrigSystem(1, (4,))
    pts = draw_points(40, 1, seed=7)
    h = build_sampled(system, pts)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    strong = womp(h, y, steps=9)
    weak = womp(h, y, t=0.5, steps=9, selection="adversarial-weak")
    # the weak guarantee costs steps, not correctness of the final project
    assert weak.residual_norms[-1] <= strong.residual_norms[0]
    assert weak.residual_norms[-1] >= 0.0


def test_weak_selection_at_roundoff_t_never_reselects_a_column():
    # at t = 2e-15 a selected column's inner product with the residual,
    # itself roundoff, clears t * max; it must take no part in the pick
    system = TrigSystem(1, (3,))
    pts = draw_points(14, 1, 45)
    h = build_sampled(system, pts)
    rng = np.random.default_rng(45)
    y = rng.standard_normal(14) + 1j * rng.standard_normal(14)
    trace = womp(h, y, t=2.0e-15, steps=5, selection="adversarial-weak")
    assert trace.steps == 5
    assert len(set(trace.selected)) == 5


def test_womp_validation():
    _, pts, h = _grid_hilbert(2)
    y = np.zeros(5, dtype=complex)
    with pytest.raises(ValueError):
        womp(h, y, t=0.0)
    with pytest.raises(ValueError):
        womp(h, y, t=1.5)
    with pytest.raises(ValueError):
        womp(h, y, steps=6)
    with pytest.raises(ValueError):
        womp(h, y, selection="greedy-ish")
    with pytest.raises(ValueError, match="step budget -1 is negative"):
        womp(h, y, steps=-1)
    with pytest.raises(ValueError, match=r"target has shape \(4,\), expected \(5,\)"):
        womp(h, y[:4])


def test_coherent_pair_run_matches_hand_gram():
    # Box 1 at the points 0 and pi/3: with w = e^{i pi/3} the columns are
    # c_k = (1, w^k) and <c_j, c_k> = (1 + w^(j-k)) / 2, of modulus
    # |cos((j - k) pi / 6)|.  For the target f = (1, w^2) (e^{2ix}, outside
    # the box) the inner products with c_-1, c_0, c_1 have moduli 0, 1/2 and
    # sqrt(3)/2, so the first step takes c_1 (column 2) and leaves residual
    # norm sqrt(1 - 3/4) = 1/2.  The residual's inner products are then
    # (1 - w)^2 / 4 with c_0 (modulus 1/4) and -(1 + w)(1 + w^2) / 4 with
    # c_-1 (modulus sqrt(3)/4): the second step takes c_-1 (column 0),
    # which the target is orthogonal to, and the exact expansion is
    # f = (1 + i/sqrt(3)) c_1 - (i/sqrt(3)) c_-1.
    x = np.array([0.0, np.pi / 3])
    h = build_sampled(TrigSystem(1, (1,)), PointSet(1, x[:, None]))
    trace = womp(h, np.exp(2j * x))
    assert trace.selected == (2, 0)
    assert trace.residual_norms[0] == pytest.approx(1.0, rel=1e-12)
    assert trace.residual_norms[1] == pytest.approx(0.5, rel=1e-12)
    assert trace.residual_norms[2] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(trace.max_ips, [math.sqrt(3) / 2, math.sqrt(3) / 4],
                               rtol=1e-12)
    np.testing.assert_allclose(trace.coefficients,
                               [1 + 1j / math.sqrt(3), -1j / math.sqrt(3)],
                               atol=1e-12)


# ----------------------------------------------------------------- project

def test_project_exact_on_in_span_target():
    system, pts, h = _grid_hilbert(3)
    f0 = reconstruct(system, [0, 3], [1.0 + 1j, -2.0])
    res = project(h, f0.eval(pts.points), [0, 3])
    assert h.norm(res.residual) <= 1e-13
    assert not res.rank_deficient
    np.testing.assert_allclose(res.coefficients, [1.0 + 1j, -2.0], rtol=1e-12)


def test_project_on_the_empty_support_returns_the_target():
    # least squares on m x 0 columns: no coefficients, full rank, and the
    # residual is the target bit for bit, -0.0 parts included
    _, _, h = _grid_hilbert(2)
    y = np.array([1.5 - 2j, complex(-0.0, -0.0), complex(0.0, -0.0),
                  -3e-300 + 1j, complex(7.0, -0.0)])
    res = project(h, y, [])
    assert res.coefficients.shape == (0,)
    assert not res.rank_deficient
    assert not np.shares_memory(res.residual, y)
    assert (res.residual.view(np.uint64) == y.view(np.uint64)).all()


def test_project_rejects_duplicate_support():
    _, _, h = _grid_hilbert(2)
    with pytest.raises(ValueError):
        project(h, np.zeros(5, dtype=complex), [1, 1])


def test_project_refuses_a_target_of_the_wrong_length():
    _, _, h = _grid_hilbert(2)
    with pytest.raises(ValueError, match=r"target has shape \(4,\), expected \(5,\)"):
        project(h, np.zeros(4, dtype=complex), [0, 1])
    with pytest.raises(ValueError, match=r"target has shape \(5, 1\), expected \(5,\)"):
        project(h, np.zeros((5, 1), dtype=complex), [0, 1])


def test_project_flags_rank_deficiency():
    # one sample point cannot separate two columns
    system = TrigSystem(1, (2,))
    pts = PointSet(1, np.array([[0.5]]))
    h = build_sampled(system, pts)
    res = project(h, np.array([1.0 + 0j]), [0, 1])
    assert res.rank_deficient


def test_project_matches_normal_equations_oracle():
    # independent check: the projection coefficients must solve the
    # support's normal equations G c = Phi_S^H y / m
    rng = np.random.default_rng(21)
    y = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    h = build_sampled(TrigSystem(1, (3,)), draw_points(50, 1, seed=21))
    support = [0, 2, 5]
    res = project(h, y, support)
    cols = h.columns(support)
    gram = cols.conj().T @ cols / 50
    rhs = cols.conj().T @ y / 50
    np.testing.assert_allclose(res.coefficients, np.linalg.solve(gram, rhs),
                               rtol=1e-9)


# -------------------------------------------------------------- best_vterm

def test_best_vterm_matches_brute_force_oracle():
    system = TrigSystem(1, (3,))
    pts = draw_points(15, 1, seed=8)
    h = build_sampled(system, pts)
    rng = np.random.default_rng(8)
    y = rng.standard_normal(15) + 1j * rng.standard_normal(15)

    best_err, best_support = math.inf, None
    for support in itertools.combinations(range(7), 2):
        cols = h.columns(list(support))
        coeff = np.linalg.lstsq(cols, y, rcond=None)[0]
        err = float(np.linalg.norm(y - cols @ coeff) / math.sqrt(15))
        if err < best_err - 1e-15:
            best_err, best_support = err, support

    result = best_vterm(h, y, 2)
    assert result.support == best_support
    assert result.sigma == pytest.approx(best_err, rel=1e-12)


def test_best_vterm_refuses_zero_terms():
    # as recover does: sigma_0 is only the target's norm
    _, _, h = _grid_hilbert(2)
    with pytest.raises(ValueError, match="v must be >= 1"):
        best_vterm(h, np.full(5, 2.0, dtype=complex), 0)


def test_best_vterm_exact_on_sparse_target():
    system, pts, h = _grid_hilbert(3)
    f0 = reconstruct(system, [2, 5], [1.0, 3.0])
    result = best_vterm(h, f0.eval(pts.points), 2)
    assert result.support == (2, 5)
    assert result.sigma <= 1e-13


def test_best_vterm_validation():
    _, _, h = _grid_hilbert(2)
    y = np.zeros(5, dtype=complex)
    with pytest.raises(ValueError):
        best_vterm(h, y, -1)
    with pytest.raises(ValueError):
        best_vterm(h, y, 6)
    with pytest.raises(ValueError, match=r"target has shape \(4,\), expected \(5,\)"):
        best_vterm(h, y[:4], 2)
    # C(2001, 2) = 2,001,000 supports exceed the cap of 2,000,000
    wide = build_sampled(TrigSystem(1, (1000,)), PointSet(1, np.zeros((1, 1))))
    with pytest.raises(ValueError, match="2001000 supports exceed cap 2000000"):
        best_vterm(wide, np.zeros(1, dtype=complex), 2)


def test_best_vterm_ties_keep_first_support():
    # symmetric target: supports (0,) and (2,) tie; enumeration order wins
    system, pts, h = _grid_hilbert(1)
    f0 = reconstruct(system, [0, 2], [1.0, 1.0])
    result = best_vterm(h, f0.eval(pts.points), 1)
    assert result.support == (0,)
