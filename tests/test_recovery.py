"""Recovery pipeline, mixture-norm references, and fooling instances."""

import functools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from womplab.classes import ClassSpec, sample_class_function
from womplab.discretization import (PointSet, SampledSystem, build_sampled,
                                    check_usd, draw_points, uniform_grid_points)
from womplab.experiments import zero_data_recovery
from womplab import greedy, recovery, trig
from womplab.greedy import womp
from womplab.recovery import (RecoveryReport, adversary_gap, best_vterm_l2_muxi,
                              make_fooling, reconstruct, recover, sample_target,
                              write_fooling)
from womplab.trig import (TrigPolynomial, TrigSystem, fejer_kernel, lp_norm,
                          lp_norms, multiply)


def _sparse_target(system, cols, coeffs):
    return reconstruct(system, cols, coeffs)


# ----------------------------------------------------------------- recover

def test_recover_exact_on_sparse_target():
    system = TrigSystem(1, (4,))
    f0 = _sparse_target(system, [2, 6], [1.5, -0.7 + 0.3j])
    xi = draw_points(120, 1, seed=0)
    rep = recover(f0, system, xi, v=2, seed=0)
    assert rep.certificate is not None and rep.certificate.holds
    assert rep.cert_warning is None
    assert rep.error_lp_mu <= 1e-10
    assert rep.exact_recovery
    assert rep.u == 6 and rep.v == 2
    assert rep.trace.steps <= 4


def test_recover_dense_target_reports_ratios():
    system = TrigSystem(1, (4,))
    rng = np.random.default_rng(1)
    coeff = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f0 = TrigPolynomial(1, dict(zip(system.indices(), coeff)))
    xi = draw_points(150, 1, seed=1)
    rep = recover(f0, system, xi, v=1, p=2.0, seed=1)
    assert rep.sigma_ref is not None and rep.sigma_ref > 0
    assert rep.sigma_discrete is not None and rep.sigma_discrete > 0
    assert rep.ratio_discrete is not None and rep.ratio_discrete > 0
    assert rep.error_lp_mu > 0
    assert not rep.exact_recovery
    # after v steps the greedy cannot beat the exhaustive v-term oracle;
    # the extra c_emp * v steps are allowed to (and here do) go below it
    assert rep.trace.residual_norms[1] >= rep.sigma_discrete * (1 - 1e-9)


@pytest.mark.parametrize("box", [(10,), (2, 2)])
@pytest.mark.parametrize("sparse", [False, True])
def test_recover_is_homogeneous_in_the_target(box, sparse):
    # a power-of-two factor is exact in floating point, and no step depends
    # on the target's scale (no absolute drop rule, no absolute floor on
    # the exactness test), so every error and sigma scales bit for bit
    system = TrigSystem(len(box), box)
    rng = np.random.default_rng(21)
    cols = [3, 11] if sparse else range(system.size)
    coeff = rng.standard_normal(len(cols)) + 1j * rng.standard_normal(len(cols))
    xi = draw_points(40, len(box), seed=21)

    def run(s):
        return recover(reconstruct(system, cols, s * coeff), system, xi, v=2,
                       certify=False)

    base = run(1.0)
    assert base.exact_recovery == sparse
    for k in (1, 20, 44, 50, 60):
        s = 2.0 ** -k
        rep = run(s)
        for name in ("error_lp_mu", "sigma_ref", "sigma_discrete"):
            assert (getattr(rep, name) / s).hex() == getattr(base, name).hex(), (k, name)
        assert rep.exact_recovery == base.exact_recovery
        assert rep.ratio_pipeline == base.ratio_pipeline


def test_recover_keeps_the_l2_muxi_best_vterm_as_reference(monkeypatch):
    system = TrigSystem(1, (4,))
    rng = np.random.default_rng(3)
    f0 = reconstruct(system, range(9), rng.standard_normal(9)
                     + 1j * rng.standard_normal(9))
    xi = draw_points(40, 1, seed=3)
    ref = recover(f0, system, xi, v=2, certify=False).reference
    _, _, expect = best_vterm_l2_muxi(f0, build_sampled(system, xi), 2)
    assert list(ref.coeffs) == list(expect.coeffs)
    assert _bits(list(ref.coeffs.values())) == _bits(list(expect.coeffs.values()))
    # no reference when the sigma references are skipped, by the caller
    # or by the subset cap
    assert recover(f0, system, xi, v=2, certify=False,
                   compute_sigma=False).reference is None
    monkeypatch.setattr(greedy, "DEFAULT_SUBSET_CAP", 35)  # C(9, 2) = 36
    rep = recover(f0, system, xi, v=2, certify=False)
    assert rep.sigma_warning is not None and rep.reference is None


def test_recover_skips_the_certificate_only_for_the_subset_cap(monkeypatch):
    # any other failure inside check_usd is a fault, not a skipped certificate
    def fail(*args, **kwargs):
        raise ValueError("not the subset cap")

    monkeypatch.setattr(recovery, "check_usd", fail)
    system = TrigSystem(1, (4,))
    f0 = reconstruct(system, [2, 6], [1.5, -0.7 + 0.3j])
    with pytest.raises(ValueError, match="not the subset cap"):
        recover(f0, system, draw_points(40, 1, seed=0), v=2)


def test_recover_class_target_within_empirical_factor():
    # degree-4 box (9 columns), v = 2, default c_emp = 2 so u = 6; at
    # m = 60 the two-sided 6-sparse certificate holds for this draw, and
    # the recovered error in L2(mu) stays within a factor 3 of the best
    # 2-term benchmark measured on the samples
    system = TrigSystem(1, (4,))
    f0 = sample_class_function(ClassSpec(r=1.0, beta=1.0, J=2),
                               "saturated-spread", seed=0)
    xi = draw_points(60, 1, seed=0)
    rep = recover(f0, system, xi, v=2, seed=0)
    assert rep.u == 6
    assert rep.certificate is not None and rep.certificate.holds
    assert rep.cert_warning is None
    assert rep.sigma_discrete > 0
    assert rep.error_lp_mu <= 3.0 * rep.sigma_discrete


def test_recover_failed_certificate_warns_but_proceeds():
    system = TrigSystem(1, (4,))
    f0 = _sparse_target(system, [4], [1.0])
    xi = draw_points(7, 1, seed=2)  # far too few points to certify u = 3
    rep = recover(f0, system, xi, v=1, seed=2)
    assert rep.certificate is not None and not rep.certificate.holds
    assert "certificate failed" in rep.cert_warning
    assert rep.error_lp_mu >= 0


def test_recover_without_certificate_request():
    system = TrigSystem(1, (2,))
    f0 = _sparse_target(system, [1], [1.0])
    xi = draw_points(30, 1, seed=3)
    rep = recover(f0, system, xi, v=1, certify=False, seed=3)
    assert rep.certificate is None
    assert "skipped by caller" in rep.cert_warning


def test_recover_p4_measures_in_lp():
    system = TrigSystem(1, (3,))
    rng = np.random.default_rng(4)
    coeff = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    f0 = TrigPolynomial(1, dict(zip(system.indices(), coeff)))
    xi = draw_points(100, 1, seed=4)
    rep2 = recover(f0, system, xi, v=1, p=2.0, seed=4)
    rep4 = recover(f0, system, xi, v=1, p=4.0, seed=4)
    assert rep4.error_lp_mu >= rep2.error_lp_mu * (1 - 1e-12)
    with pytest.raises(ValueError):
        recover(f0, system, xi, v=1, p=1.5)
    with pytest.raises(ValueError):
        recover(f0, system, xi, v=0)


def test_recover_forms_the_gram_once(monkeypatch):
    # the certificate and both best v-term references read one Gram
    formed = []
    original = SampledSystem.__dict__["gram"].func

    def gram(self):
        formed.append(self)
        return original(self)

    counting = functools.cached_property(gram)
    counting.__set_name__(SampledSystem, "gram")
    monkeypatch.setattr(SampledSystem, "gram", counting)
    system = TrigSystem(1, (4,))
    f0 = _sparse_target(system, [2, 6], [1.5, -0.7 + 0.3j])
    rep = recover(f0, system, draw_points(200, 1, seed=3), v=2)
    assert rep.certificate is not None and rep.sigma_discrete is not None
    assert len(formed) == 1


def _dense_target(system, seed, outside=None):
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size)
    coeffs = dict(zip(system.indices(), coeff))
    if outside is not None:
        coeffs[outside] = 0.3 - 0.2j
    return TrigPolynomial(system.dim, coeffs)


def test_recover_never_evaluates_an_in_box_target_directly(monkeypatch):
    # the samples of the target and of sigma_ref's difference are the
    # sampled matrix times coefficients, not a second pass of exponentials
    def refuse(self, points):
        raise AssertionError("TrigPolynomial.eval called")

    monkeypatch.setattr(TrigPolynomial, "eval", refuse)
    system = TrigSystem(2, (2, 1))
    rep = recover(_dense_target(system, 9), system, draw_points(60, 2, seed=9),
                  v=2, p=4.0)
    assert rep.sigma_ref is not None and rep.sigma_ref > 0


@pytest.mark.parametrize("box, p, outside", [
    ((3,), 2.0, None), ((3,), 4.0, None), ((2, 1), 4.0, None),
    ((4,), math.inf, None), ((3,), 4.0, (6,)), ((2, 1), 2.0, (0, 3))])
def test_sigma_ref_is_the_directly_evaluated_mixture_norm(box, p, outside):
    system = TrigSystem(len(box), box)
    f0 = _dense_target(system, 10, outside)
    xi = draw_points(50, len(box), seed=10)
    rep = recover(f0, system, xi, v=1, p=p)
    _, _, ref_poly = best_vterm_l2_muxi(f0, build_sampled(system, xi), 1)
    diff = f0 - ref_poly
    direct = lp_norms(diff, (p,), diff.eval(xi.points))[0]
    assert abs(rep.sigma_ref - direct) <= 1e-13 * direct


def test_an_empty_point_set_is_refused_before_any_work():
    # both once divided by m = 0 and returned residual_norms == (nan,)
    system = TrigSystem(1, (3,))
    empty = PointSet(1, np.zeros((0, 1)))
    with pytest.raises(ValueError, match="m >= 1"):
        womp(build_sampled(system, empty), np.zeros(0))
    with pytest.raises(ValueError, match="m >= 1"):
        recover(TrigPolynomial(1, {(0,): 1.0}), system, empty, v=1)


def test_recovery_report_csv_row_shape():
    system = TrigSystem(1, (2,))
    f0 = _sparse_target(system, [2], [1.0])
    xi = draw_points(40, 1, seed=5)
    rep = recover(f0, system, xi, v=1, seed=5)
    row = rep.csv_row()
    assert len(row.split(",")) == len(RecoveryReport.CSV_HEADER.split(","))
    assert row.split(",")[0] == "5"


# ------------------------------------------------------ mixture references

def test_sample_target_adds_terms_outside_the_box():
    system = TrigSystem(1, (4,))
    sampled = build_sampled(system, draw_points(50, 1, seed=31))
    rng = np.random.default_rng(31)
    inside = TrigPolynomial(1, {(k,): rng.standard_normal() + 1j
                                for k in range(-4, 5)})
    f0 = inside + TrigPolynomial(1, {(6,): 0.7, (-5,): -0.2j})
    want = f0.eval(sampled.pointset.points)
    got = sample_target(f0, sampled)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sample_target_inside_the_box_is_the_matrix_product():
    system = TrigSystem(2, (2, 1))
    sampled = build_sampled(system, draw_points(40, 2, seed=32))
    rng = np.random.default_rng(32)
    a = rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size)
    a[3] = 0.0
    f0 = TrigPolynomial(2, dict(zip(system.indices(), a)))
    np.testing.assert_array_equal(sample_target(f0, sampled),
                                  sampled._matrix @ a)
    np.testing.assert_allclose(sample_target(f0, sampled),
                               f0.eval(sampled.pointset.points),
                               rtol=1e-12, atol=1e-12)


def test_best_vterm_l2_muxi_refuses_zero_terms():
    # as recover does: sigma_0 is only the target's mixture norm
    system = TrigSystem(1, (2,))
    f0 = _sparse_target(system, [0, 4], [1.0, 1.0])
    sampled = build_sampled(system, draw_points(25, 1, seed=6))
    with pytest.raises(ValueError, match="v must be >= 1"):
        best_vterm_l2_muxi(f0, sampled, 0)


def test_best_vterm_l2_muxi_matches_direct_minimization():
    system = TrigSystem(1, (2,))
    rng = np.random.default_rng(7)
    coeff = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    f0 = TrigPolynomial(1, dict(zip(system.indices(), coeff)))
    xi = draw_points(20, 1, seed=7)
    sampled = build_sampled(system, xi)
    err, support, approx = best_vterm_l2_muxi(f0, sampled, 1)
    # the mixture error of the returned fit equals the reported error
    got = lp_norms(f0 - approx, (2,), (f0 - approx).eval(xi.points))[0]
    assert got == pytest.approx(err, rel=1e-10)
    # independent oracle: per-column normal equations in the mixture norm
    y = f0.eval(xi.points)
    gram = 0.5 * (np.eye(5) + sampled.gram)
    rhs = 0.5 * (coeff + sampled._matrix.conj().T @ y / xi.m)
    norm_sq = lp_norms(f0, (2,), y)[0] ** 2
    brute = [math.sqrt(max(norm_sq - abs(rhs[c]) ** 2 / gram[c, c].real, 0.0))
             for c in range(5)]
    assert err == pytest.approx(min(brute), rel=1e-10)
    assert support == (int(np.argmin(brute)),)


def test_best_vterm_l2_muxi_exact_on_sparse():
    system = TrigSystem(1, (3,))
    f0 = _sparse_target(system, [1, 5], [2.0, 1.0j])
    xi = draw_points(30, 1, seed=8)
    err, support, _ = best_vterm_l2_muxi(f0, build_sampled(system, xi), 2)
    assert support == (1, 5)
    assert err <= 1e-12


# ----------------------------------------------------------------- fooling

def test_make_fooling_invariants():
    xi = draw_points(5, 1, seed=10)
    inst = make_fooling(xi, (6,))
    assert inst.null_dim == 13 - 5
    assert inst.vanishing_defect <= 1e-12
    # x_star is the grid argmax of g, normalized to 1, so the product
    # attains exactly the kernel peak there
    assert inst.value_at_xstar == pytest.approx(6.0, rel=1e-9)
    # the product polynomial lives in the doubled box
    assert inst.f.degree <= 2 * 6 - 1
    assert inst.norm_q <= inst.norm_p * (1 + 1e-12)
    assert inst.sup_grid >= inst.norm_p


def test_fooling_center_value_is_box_order_times_g():
    # |g(x*)| = 1 by normalization, kernel at center = box order
    xi = draw_points(4, 1, seed=11)
    inst = make_fooling(xi, (5,))
    g_at_center = abs(inst.g_xi.eval(inst.x_star.reshape(1, -1))[0])
    assert g_at_center == pytest.approx(1.0, rel=1e-9)
    assert inst.value_at_xstar == pytest.approx(5.0, rel=1e-9)


def test_fooling_empty_pointset_gives_kernel_norm():
    # with no samples the null space is everything; the best flat factor
    # has |g| = 1, so ||f||_p equals the Fejer kernel norm exactly
    xi = PointSet(1, np.zeros((0, 1)))
    inst = make_fooling(xi, (4,))
    kernel = fejer_kernel((4,))
    # independent oracle: ||K||_4^4 = ||K*K||_2^2 via coefficients
    oracle4 = math.sqrt(multiply(kernel, kernel).l2_norm())
    assert inst.norm_p == pytest.approx(oracle4, rel=1e-11)
    assert inst.norm_q == pytest.approx(kernel.l2_norm(), rel=1e-11)


@pytest.mark.parametrize("box", [(4,), (2, 3)])
def test_fooling_on_an_empty_draw_is_the_explicit_empty_set(box):
    # draw_points(0, ...) runs make_fooling's general path: the full SVD of
    # the 0 x theta matrix gives the whole space as null basis, and no
    # sample can lift samples_max or the vanishing defect off zero
    d = len(box)
    drawn = make_fooling(draw_points(0, d, seed=5), box)
    given = make_fooling(PointSet(d, np.zeros((0, d))), box)
    assert drawn.null_dim == TrigSystem(d, box).size
    assert drawn.samples_max == 0.0 and drawn.vanishing_defect == 0.0
    assert drawn.f._box.tobytes() == given.f._box.tobytes()
    assert drawn.norm_p == given.norm_p and drawn.sup_grid == given.sup_grid


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def test_make_fooling_across_boxes_equals_a_cold_cache():
    # box A twice (a cache hit), then box B, then A again (rebuilt): every
    # instance is bit for bit the one built with the cache cleared first
    calls = [((8,), 4, 1), ((8,), 4, 2), ((2, 2), 6, 3), ((8,), 0, 0), ((8,), 4, 1)]
    pts = [draw_points(m, len(box), seed) if m
           else PointSet(len(box), np.zeros((0, len(box)))) for box, m, seed in calls]
    warm = [make_fooling(xi, box) for (box, _, _), xi in zip(calls, pts)]
    assert len(trig._tables.kept) == trig._KEPT
    for (box, _, _), xi, inst in zip(calls, pts, warm):
        trig._tables.kept.clear()
        cold = make_fooling(xi, box)
        for name in ("g_xi", "f"):
            got, expect = getattr(inst, name), getattr(cold, name)
            assert list(got.coeffs) == list(expect.coeffs)
            assert _bits(list(got.coeffs.values())) == _bits(list(expect.coeffs.values()))
        assert inst.x_star.tobytes() == cold.x_star.tobytes()
        for name in ("norm_q", "norm_p", "value_at_xstar", "sup_grid", "samples_max"):
            assert getattr(inst, name).hex() == getattr(cold, name).hex()
        assert inst.null_dim == cold.null_dim


def test_make_fooling_keeps_its_batch_and_norm_tables_read_only():
    trig._tables.kept.clear()
    inst = make_fooling(draw_points(3, 2, 5), (2, 1))
    assert not inst.x_star.flags.writeable
    with pytest.raises(ValueError):
        inst.x_star[0] = 0.0
    # the null basis's half tables on the grid of n = 25 points per axis,
    # rows t = 0 .. 12, sines for k = h .. 1, cosines for 0 .. h, then those of
    # f's norms, f on the box (-3 .. 3, -1 .. 1), n = 33
    batch, norms = (25, (-2, -1), (5, 3), (5, 3)), (33, (-3, -1), (7, 3), (7, 3))
    assert list(trig._tables.kept) == [batch, norms]
    tables = trig._tables.kept[batch]
    assert [(low.shape, low.dtype, high) for low, high in tables] == [
        ((13, 5), np.float64, None), ((13, 3), np.float64, None)]
    assert all(not low.flags.writeable for low, _ in tables)
    # another point set on the box, with another null dimension, reads both
    make_fooling(draw_points(5, 2, 6), (2, 1))
    assert list(trig._tables.kept) == [batch, norms]
    assert trig._tables.kept[batch] is tables


def test_a_second_adversary_gap_on_one_box_builds_no_table(monkeypatch):
    # as in the adversary workload: the greedy fed zero data, here on box 16
    # with 8 and then 6 new points, whose null bases of 25 and 27 vectors
    # share the batch's half table; f's width-63 norm axis splits
    builds, build = [], trig._roots
    monkeypatch.setattr(trig, "_roots", lambda roots, t, k, out:
                        builds.append(k.size) or build(roots, t, k, out))
    box, system = (16,), TrigSystem(1, (16,))
    trig._tables.kept.clear()
    for m, seed in ((8, 1), (6, 2)):
        builds.clear()
        xi = draw_points(m, 1, seed)
        adversary_gap(xi, box, recovery=zero_data_recovery(system, xi))
    assert builds == []
    # on a cold cache the pass builds the batch's half table, 129 x 33
    # floats, from the sines of k = 16 .. 1 and the cosines of k = 0 .. 16,
    # and the norms' split tables, 257 x 8 and 257 x 8 complex
    trig._tables.kept.clear()
    adversary_gap(xi, box, recovery=zero_data_recovery(system, xi))
    assert builds == [16, 17, 8, 8]


def test_the_tables_kept_for_the_top_box_are_small():
    # box (15, 15) at the top of the scope: the batch's one half table,
    # 65 x 31 floats (rows t <= 64 of n = 129, k = -15 .. 15 folded), and
    # the norms' one 121 x 59 (with no points the winning null vector is
    # one exponential, so f has the Fejer kernel's width, here on k = -29
    # .. -1, n = 241), no grid matrix (16,641 x 961 complex, 256 MB)
    trig._tables.kept.clear()
    make_fooling(PointSet(2, np.zeros((0, 2))), (15, 15))
    kept = {id(t): t.nbytes for tables in trig._tables.kept.values()
            for pair in tables for t in pair if t is not None}
    assert sorted(kept.values()) == [65 * 31 * 8, 121 * 59 * 8]
    assert sum(kept.values()) < 2 ** 20
    # no axis that keeps its full table keeps a complex n x w one
    for (n, _, shape, k1s), tables in trig._tables.kept.items():
        for w, k1, (low, high) in zip(shape, k1s, tables):
            assert k1 == w and high is None
            assert low.dtype == np.float64 and low.shape[0] == n // 2 + 1


def old_fooling_choice(xi, box):
    """x_star and the winning null vector as make_fooling chose them with
    the grid matrix: evaluate_at on the grid times the null basis, here in
    row chunks, keeping the first grid row of each column's maximum."""
    system = TrigSystem(len(box), box)
    _, svals, vh = np.linalg.svd(system.evaluate_at(xi.points))
    null_basis = vh[int(np.sum(svals > 1e-10 * svals[0])):].conj().T
    grid = uniform_grid_points(8 * (max(box) + 1) + 1, len(box)).points
    sups = np.full(null_basis.shape[1], -1.0)
    rows = np.zeros(null_basis.shape[1], dtype=int)
    sumsq = np.zeros(null_basis.shape[1])
    for lo in range(0, len(grid), 2048):
        vals = np.abs(system.evaluate_at(grid[lo:lo + 2048]) @ null_basis)
        top = vals.max(axis=0)
        new = top > sups
        rows[new] = lo + vals.argmax(axis=0)[new]
        sups = np.maximum(sups, top)
        sumsq += (vals ** 2).sum(axis=0)
    best = int(np.argmax(sups / np.sqrt(sumsq / len(grid))))
    return grid[rows[best]], null_basis[:, best] / sups[best]


# m = theta/4 (the adversary's budget), theta/2 and a few points, on the
# boxes of criterion 7 and the adversary workload and at the top of the
# scope; with no points every null vector is one exponential, they tie,
# and roundoff alone picks x_star
FOOLING_SETS = ([((b,), m, s) for b in (8, 16, 32, 64, 96)
                 for m, s in (((2 * b + 1) // 4, 0), ((2 * b + 1) // 4, 1), (b, 2))]
                + [((4, 4), 20, 0), ((4, 4), 20, 1), ((4, 4), 40, 2),
                   ((4, 4), 10, 3), ((8,), 2, 3), ((15, 15), 240, 0)])


@pytest.mark.parametrize("box, m, seed", FOOLING_SETS)
def test_fooling_choice_is_the_grid_matrix_choice(box, m, seed):
    xi = draw_points(m, len(box), seed)
    tracemalloc.start()
    try:
        inst = make_fooling(xi, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the null basis goes through the grid in chunks: on box (15, 15) the
    # 721 null vectors at once peaked at 304 MiB, three chunks at 158 MiB
    assert peak <= 200 * 2 ** 20
    x_star, g_coeffs = old_fooling_choice(xi, box)
    assert inst.x_star.tobytes() == x_star.tobytes()
    indices = TrigSystem(len(box), box).indices()
    got = np.array([inst.g_xi.coeffs.get(k, 0) for k in indices])
    assert np.abs(got - g_coeffs).max() <= 1e-12


def test_box_caches_shared_by_threads_give_the_serial_results():
    # more threads than cores, switching often, on alternating boxes: both
    # caches are rebuilt under each other's feet and every result is the
    # serial one
    jobs = [((4,), 1), ((1, 1), 2), ((8,), 3), ((2, 2), 4)] * 4

    def run(job):
        box, seed = job
        d = len(box)
        cert = check_usd(build_sampled(TrigSystem(d, box),
                                       draw_points(12, d, seed)), 2)
        inst = make_fooling(draw_points(3, d, seed), box)
        return cert, inst.norm_p.hex(), inst.x_star.tobytes()

    serial = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_make_fooling_requires_room_in_the_box():
    xi = draw_points(9, 1, seed=12)
    with pytest.raises(ValueError):
        make_fooling(xi, (4,))  # m = 9 = theta, no null space


def test_adversary_gap_bounds_any_recovery():
    xi = draw_points(6, 1, seed=13)
    system = TrigSystem(1, (8,))

    def zero_map(samples):
        return TrigPolynomial(1, {})

    gap = adversary_gap(xi, (8,), recovery=zero_map)
    assert gap.guaranteed_error == pytest.approx(gap.instance.norm_p, rel=1e-12)
    assert gap.recovery_fooled
    lo, hi = sorted(gap.recovery_errors)
    assert lo == pytest.approx(hi, rel=1e-12)  # zero map errs equally on +-f


@pytest.mark.parametrize("box, p", [((8,), 4.0), ((8,), math.inf), ((3, 2), 3.0)])
def test_adversary_gap_errs_on_minus_f_as_the_negated_difference(box, p):
    # the error on -f is ||f + candidate||_p, bit for bit the former
    # ||-f - candidate||_p, with two fewer polynomials built
    system = TrigSystem(len(box), box)
    xi = draw_points(system.size // 4, system.dim, seed=21)
    rng = np.random.default_rng(21)
    candidate = reconstruct(system, range(system.size),
                            rng.standard_normal(system.size)
                            + 1j * rng.standard_normal(system.size))
    gap = adversary_gap(xi, box, p=p, recovery=lambda samples: candidate)
    f = gap.instance.f
    assert gap.recovery_errors == (lp_norm(f - candidate, p),
                                   lp_norm(-f - candidate, p))
    assert gap.recovery_errors[0] != gap.recovery_errors[1]


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("box", [(8,), (13,), (3, 2), (4, 4)])
def test_adversary_gap_measures_f_once_for_a_zero_candidate(box, p):
    # f -+ 0 is f: both errors are bit for bit the norms of f - 0 and f + 0
    system = TrigSystem(len(box), box)
    xi = draw_points(system.size // 4, system.dim, seed=22)
    gap = adversary_gap(xi, box, p=p, recovery=zero_data_recovery(system, xi))
    f, zero = gap.instance.f, TrigPolynomial(len(box), {})
    expect = (lp_norm(f - zero, p), lp_norm(f + zero, p))
    assert np.array_equal(np.array(gap.recovery_errors).view(np.uint64),
                          np.array(expect).view(np.uint64))
    assert gap.recovery_fooled


def test_adversary_gap_refuses_a_zero_candidate_of_another_dimension():
    xi = draw_points(4, 1, seed=23)
    with pytest.raises(ValueError, match="equal dimension"):
        adversary_gap(xi, (8,), recovery=lambda samples: TrigPolynomial(2, {}))


def test_adversary_gap_rejects_too_many_points():
    xi = draw_points(10, 1, seed=14)
    with pytest.raises(ValueError):
        adversary_gap(xi, (8,), recovery=lambda samples: TrigPolynomial(1, {}))


def test_fooling_io_roundtrip(tmp_path):
    xi = draw_points(3, 1, seed=15)
    inst = make_fooling(xi, (4,))
    path = tmp_path / "fooling.txt"
    write_fooling(inst, path)
    rows = np.loadtxt(path, comments=("#", "dim"), ndmin=2)
    back = {tuple(map(int, row[:-2])): complex(*row[-2:]) for row in rows}
    assert back == inst.f.coeffs  # %.17g is lossless for doubles
    text = path.read_text()
    assert "x_star" in text and "norm_p" in text
