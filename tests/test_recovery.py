"""Recovery pipeline, mixture-norm references, and fooling instances."""

import functools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from womplab.classes import ClassSpec, sample_class_function
from womplab.discretization import (DiscreteHilbert, PointSet, build_sampled,
                                    check_usd, draw_points)
from womplab.recovery import (FoolingInstance, RecoveryReport, _fooling_grid,
                              adversary_gap, best_vterm_l2_muxi, make_fooling,
                              reconstruct, recover, sample_target,
                              write_fooling)
from womplab.trig import (TrigPolynomial, TrigSystem, fejer_kernel, lp_norm,
                          multiply)


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
    original = DiscreteHilbert.__dict__["gram"].func

    def gram(self):
        formed.append(self)
        return original(self)

    counting = functools.cached_property(gram)
    counting.__set_name__(DiscreteHilbert, "gram")
    monkeypatch.setattr(DiscreteHilbert, "gram", counting)
    system = TrigSystem(1, (4,))
    f0 = _sparse_target(system, [2, 6], [1.5, -0.7 + 0.3j])
    rep = recover(f0, system, draw_points(200, 1, seed=3), v=2)
    assert rep.certificate is not None and rep.sigma_discrete is not None
    assert len(formed) == 1


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
                                  sampled.matrix @ a)
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
    got = lp_norm(f0 - approx, 2, "mu_xi", pointset=xi)
    assert got == pytest.approx(err, rel=1e-10)
    # independent oracle: per-column normal equations in the mixture norm
    y = f0.eval(xi.points)
    gram = 0.5 * (np.eye(5) + sampled.gram)
    rhs = 0.5 * (coeff + sampled.matrix.conj().T @ y / xi.m)
    norm_sq = lp_norm(f0, 2, "mu_xi", pointset=xi) ** 2
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


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def test_make_fooling_across_boxes_equals_a_cold_cache():
    # box A twice (a cache hit), then box B, then A again (rebuilt): every
    # instance is bit for bit the one built with the cache cleared first
    calls = [((8,), 4, 1), ((8,), 4, 2), ((2, 2), 6, 3), ((8,), 0, 0), ((8,), 4, 1)]
    pts = [draw_points(m, len(box), seed) if m else PointSet(len(box), np.zeros((0, 1)))
           for box, m, seed in calls]
    warm = [make_fooling(xi, box) for (box, _, _), xi in zip(calls, pts)]
    assert _fooling_grid.cache_info().currsize == 1
    for (box, _, _), xi, inst in zip(calls, pts, warm):
        _fooling_grid.cache_clear()
        cold = make_fooling(xi, box)
        for name in ("g_xi", "f"):
            got, expect = getattr(inst, name), getattr(cold, name)
            assert list(got.coeffs) == list(expect.coeffs)
            assert _bits(list(got.coeffs.values())) == _bits(list(expect.coeffs.values()))
        assert inst.x_star.tobytes() == cold.x_star.tobytes()
        for name in ("norm_q", "norm_p", "value_at_xstar", "sup_grid", "samples_max"):
            assert getattr(inst, name).hex() == getattr(cold, name).hex()
        assert inst.null_dim == cold.null_dim


def test_make_fooling_box_work_is_read_only_and_kept_for_one_box():
    inst = make_fooling(draw_points(3, 2, 5), (2, 1))
    grid, matrix, indices, kernel = _fooling_grid((2, 1))
    assert not grid.flags.writeable and not matrix.flags.writeable
    assert not inst.x_star.flags.writeable
    assert matrix.shape == (len(grid), 15) and len(indices) == 15
    assert _fooling_grid((2, 1))[1] is matrix
    assert _fooling_grid.cache_info().currsize == 1


def test_a_fooling_grid_miss_frees_the_last_box_before_building():
    # at most one box's matrix is alive, also while the next is built
    tracemalloc.start()
    try:
        _fooling_grid((99,))
        tracemalloc.reset_peak()
        matrix = _fooling_grid((100,))[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the new matrix and evaluate_at's phases (about 2.1 times the matrix);
    # the last box's matrix, kept through the build, would add one more
    assert peak < 2.5 * matrix.nbytes


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
