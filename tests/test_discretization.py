"""Point sets, sampled systems and discretization certificates."""

import itertools
import math

import numpy as np
import pytest

from womplab import discretization
from womplab.discretization import (DiscretizationReport, PointSet,
                                    SubsetCapError, _holds, build_sampled,
                                    check_usd, draw_points, read_pointset,
                                    uniform_grid_points, write_pointset)
from womplab.trig import TrigPolynomial, TrigSystem, lp_norm


def _grid_sampled(degree, d=1, n=None):
    system = TrigSystem(d, (degree,) * d)
    pts = uniform_grid_points(n or 2 * degree + 1, d)
    return build_sampled(system, pts)


# -------------------------------------------------------------- point sets

def test_draw_points_deterministic_and_in_range():
    a = draw_points(50, 2, seed=9)
    b = draw_points(50, 2, seed=9)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.points.shape == (50, 2)
    assert a.points.min() >= 0 and a.points.max() < 2 * np.pi
    assert a.seed == 9


def test_empty_pointset_is_legal_but_not_samplable():
    ps = PointSet(1, np.zeros((0, 1)))
    assert ps.m == 0
    system = TrigSystem(1, (2,))
    with pytest.raises(ValueError, match="m >= 1"):
        build_sampled(system, ps)


@pytest.mark.parametrize("dim, shape", [(1, (3, 2)), (2, (3, 4)), (2, (6,)),
                                        (2, (0, 1)), (1, (2, 1, 1))])
def test_pointset_refuses_points_of_another_width(dim, shape):
    # a (3, 2) array is 3 points in d = 2, never 6 points in d = 1
    with pytest.raises(ValueError) as err:
        PointSet(dim, np.zeros(shape))
    assert str(err.value) == f"expected points of dimension {dim}, got shape {shape}"


def test_pointset_freezes_its_own_view_of_the_points():
    pts = np.zeros((3, 2))
    ps = PointSet(2, pts)
    assert not ps.points.flags.writeable and pts.flags.writeable
    assert np.shares_memory(ps.points, pts)


def test_pointset_io_roundtrip(tmp_path):
    ps = draw_points(7, 2, seed=1)
    path = tmp_path / "points.txt"
    write_pointset(ps, path)
    back = read_pointset(path)
    assert back.dim == 2 and back.m == 7
    np.testing.assert_allclose(back.points, ps.points, rtol=0, atol=0)


@pytest.mark.parametrize("text, lineno", [
    ("", 1),
    ("dim 2\n", 1),
    ("dim x 3\n", 1),
    ("dim 2 3\n0.1 0.2\n0.3 0.4\n", 4),   # ends after 2 of 3 points
    ("dim 2 2\n0.1 0.2\n0.3\n", 3),       # short line
    ("dim 1 2\n0.5\nabc\n", 3),           # not a number
    ("dim 1 2\n0.5\nnan\n", 3),
])
def test_read_pointset_names_file_and_line(tmp_path, text, lineno):
    path = tmp_path / "points.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"points\.txt:{lineno}: "):
        read_pointset(path)


def test_random_points_mean_exponential_concentrates():
    # the empirical mean of e^{ix} decays at the 1/sqrt(m) scale;
    # 5/sqrt(m) leaves a wide margin for any healthy uniform sampler
    pts = draw_points(10000, 1, seed=11)
    mean = np.mean(np.exp(1j * pts.points[:, 0]))
    assert abs(mean) <= 5.0 / math.sqrt(10000)


def test_gram_is_computed_once_and_read_only():
    sampled = build_sampled(TrigSystem(1, (3,)), draw_points(20, 1, seed=2))
    assert sampled.gram is sampled.gram
    assert not sampled.gram.flags.writeable
    np.testing.assert_array_equal(
        sampled.gram, sampled._matrix.conj().T @ sampled._matrix / 20)


def test_sampled_matrix_is_read_only():
    # the cached gram is only right while the matrix it came from is unchanged
    sampled = build_sampled(TrigSystem(1, (3,)), draw_points(20, 1, seed=2))
    gram = sampled.gram.copy()
    with pytest.raises(ValueError, match="read-only"):
        sampled._matrix[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        sampled._matrix *= 2.0
    np.testing.assert_array_equal(sampled.gram, gram)
    np.testing.assert_array_equal(
        sampled.gram, sampled._matrix.conj().T @ sampled._matrix / 20)


def test_uniform_grid_is_exact_quadrature():
    sampled = _grid_sampled(3)
    gram = sampled.gram
    np.testing.assert_allclose(gram, np.eye(7), atol=1e-12)


# ------------------------------------------------------------ certificates

def test_exact_grid_certificate_is_tight():
    sampled = _grid_sampled(3)
    for u in (1, 2, 3):
        rep = check_usd(sampled, u)
        assert rep.holds
        assert rep.c_low == pytest.approx(1.0, abs=1e-10)
        assert rep.c_high == pytest.approx(1.0, abs=1e-10)


def test_certificate_fields_and_csv_row():
    sampled = _grid_sampled(2)
    rep = check_usd(sampled, 2)
    assert (rep.m, rep.size, rep.u, rep.p) == (5, 5, 2, 2.0)
    assert rep.mode == "two-sided" and rep.method == "exhaustive"
    row = rep.csv_row()
    assert row.startswith("5,5,2,2,two-sided,True,")
    assert len(row.split(",")) == len(DiscretizationReport.CSV_HEADER.split(","))


def test_single_point_fails_two_sided():
    system = TrigSystem(1, (2,))
    sampled = build_sampled(system, draw_points(1, 1, seed=0))
    rep = check_usd(sampled, 2)
    assert not rep.holds
    assert rep.c_low == pytest.approx(0.0, abs=1e-12)
    assert len(rep.worst_support) == 2


def test_random_points_certify_at_moderate_m():
    system = TrigSystem(1, (2,))
    sampled = build_sampled(system, draw_points(2000, 1, seed=2))
    rep = check_usd(sampled, 2)
    assert rep.holds
    # crude concentration range for 2000 mean-one squared samples
    assert 0.7 <= rep.c_low <= 1.0 <= rep.c_high <= 1.3


@pytest.mark.parametrize("m", [2, 14, 222])
def test_two_sparse_certificate_matches_moment_closed_form(m):
    # for u = 2 every support Gram is [[1, g(k)], [conj g(k), 1]] with
    # g(k) = mean(exp(i k x)) and k the index gap, so the extremes over all
    # supports are 1 -+ max_{1<=k<=2 deg} |g(k)|
    deg = 4
    system = TrigSystem(1, (deg,))
    gaps = np.arange(1, 2 * deg + 1)
    for s in range(77_000, 77_050):
        pts = draw_points(m, 1, seed=s)
        g_max = np.abs(np.exp(1j * np.outer(pts.points[:, 0], gaps))
                       .mean(axis=0)).max()
        rep = check_usd(build_sampled(system, pts), 2)
        assert rep.c_low == pytest.approx(1 - g_max, abs=1e-12)
        assert rep.c_high == pytest.approx(1 + g_max, abs=1e-12)
        assert rep.holds == (g_max <= 0.5)


def test_full_support_with_too_few_points_fails():
    # m points span at most an m-dimensional sample space, so any support
    # larger than m has a singular Gram and the lower constant collapses
    system = TrigSystem(1, (1,))
    sampled = build_sampled(system, draw_points(2, 1, seed=5))
    rep = check_usd(sampled, 3)
    assert not rep.holds
    assert rep.c_low == pytest.approx(0.0, abs=1e-12)


def test_certificate_band_bounds_sampled_rayleigh_ratios():
    # Independent oracle for the exhaustive p=2 certificate: on every
    # support of size 3, draw 10^4 random unit coefficient vectors and
    # form the ratio of the discrete squared norm to the continuous one.
    # Every sample must land inside [c_low, c_high], and random directions
    # get close enough to the extreme eigenvectors to pin the band.
    system = TrigSystem(1, (4,))
    sampled = build_sampled(system, draw_points(40, 1, seed=7))
    rep = check_usd(sampled, 3)
    rng = np.random.default_rng(0)
    lo, hi = np.inf, 0.0
    for support in itertools.combinations(range(sampled.size), 3):
        gram = (sampled.columns(support).conj().T
                @ sampled.columns(support)) / sampled.m
        c = rng.standard_normal((10000, 3)) + 1j * rng.standard_normal((10000, 3))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        ratios = np.einsum("ni,ij,nj->n", c.conj(), gram, c).real
        lo, hi = min(lo, ratios.min()), max(hi, ratios.max())
    assert rep.c_low <= lo + 1e-9 and hi <= rep.c_high + 1e-9
    assert lo <= rep.c_low * 1.05
    assert hi >= rep.c_high * 0.95


def test_duplicated_points_leave_constants_unchanged():
    system = TrigSystem(1, (3,))
    pts = draw_points(40, 1, seed=4)
    doubled = PointSet(1, np.vstack([pts.points, pts.points]))
    rep1 = check_usd(build_sampled(system, pts), 2)
    rep2 = check_usd(build_sampled(system, doubled), 2)
    assert rep1.c_low == pytest.approx(rep2.c_low, rel=1e-12)
    assert rep1.c_high == pytest.approx(rep2.c_high, rel=1e-12)


def test_one_sided_lower_mode_ignores_upper_excess():
    # a cluster of 5 extra points at 0 gives every 3-support the Gram with
    # all off-diagonal entries g = 5/15, whose eigenvalues are 1 + 2g and
    # 1 - g (twice): the two-sided window [1/2, 3/2] fails above while the
    # lower certificate with D = 2^(1/2) (threshold 1/2) still holds
    system = TrigSystem(1, (2,))
    grid = uniform_grid_points(5, 1).points
    cluster = np.zeros((5, 1))
    sampled = build_sampled(system, PointSet(1, np.vstack([grid, grid, cluster])))
    two = check_usd(sampled, 3, mode="two-sided")
    low = check_usd(sampled, 3, mode="one-sided-lower")
    assert not two.holds
    assert two.c_high == pytest.approx(5 / 3, rel=1e-12)
    assert low.holds
    assert low.c_low == pytest.approx(2 / 3, rel=1e-12)


def test_one_sided_lower_threshold_is_d_to_the_minus_p():
    # (2^(1/p))^(-p) is one ulp below 1/2 at p = 2 and one above at p = 4,
    # and the holds flags follow that value, not LOWER_CONST
    below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
    assert _holds("one-sided-lower", below, 9.0, 2.0)
    assert not _holds("one-sided-lower", np.nextafter(below, 0.0), 9.0, 2.0)
    assert not _holds("one-sided-lower", 0.5, 9.0, 4.0)
    assert _holds("one-sided-lower", above, 9.0, 4.0)


def test_check_usd_validation(monkeypatch):
    sampled = _grid_sampled(2)
    with pytest.raises(ValueError):
        check_usd(sampled, 0)
    with pytest.raises(ValueError):
        check_usd(sampled, 6)
    with pytest.raises(ValueError):
        check_usd(sampled, 2, mode="sideways")
    with pytest.raises(ValueError):
        check_usd(sampled, 2, p=4.0)  # p != 2 has no exhaustive certificate
    # the refusal names the count and the cap, and nothing else
    monkeypatch.setattr(discretization, "DEFAULT_SUBSET_CAP", 3)
    with pytest.raises(SubsetCapError, match=r"^C\(5,2\) = 10 supports exceed "
                       r"the subset cap 3$"):
        check_usd(sampled, 2)


def test_subset_cap_counts_supports_not_classes(monkeypatch):
    # the exhaustive scan solves about 7,900 of the C(21, 6) = 54,264
    # blocks, but the cap still refuses on the number of supports
    sampled = build_sampled(TrigSystem(1, (10,)), draw_points(30, 1, seed=0))
    monkeypatch.setattr(discretization, "DEFAULT_SUBSET_CAP", 54_263)
    with pytest.raises(ValueError, match="54264 supports exceed"):
        check_usd(sampled, 6)
    monkeypatch.setattr(discretization, "DEFAULT_SUBSET_CAP", 54_264)
    assert check_usd(sampled, 6).method == "exhaustive"


def test_randomized_p4_is_labeled_empirical():
    sampled = _grid_sampled(2, n=40)
    rep = check_usd(sampled, 2, p=4.0, method="randomized", trials=50, seed=0)
    assert rep.method.startswith("randomized")
    assert rep.p == 4.0
    assert 0 < rep.c_low <= rep.c_high
    # randomized search can only shrink the window, never widen it
    assert rep.c_low <= 1.0 + 1e-9 or rep.c_high >= 1.0 - 1e-9


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("trials", [0, -3])
def test_randomized_check_refuses_an_empty_budget(p, trials):
    # no draw is no evidence: a check from zero supports must not pass
    sampled = build_sampled(TrigSystem(1, (3,)), draw_points(10, 1, seed=0))
    with pytest.raises(ValueError, match=f"trials >= 1, got {trials}"):
        check_usd(sampled, 2, p=p, method="randomized", trials=trials)
    assert check_usd(sampled, 2, p=p, method="randomized", trials=1).eigensolves == 1
    # the exhaustive method has no randomized budget to check
    assert check_usd(sampled, 2, trials=0).method == "exhaustive"


def test_worst_support_is_lexicographically_first_on_grid():
    # all supports tie at constants exactly 1 on the grid, so the reported
    # extremal support must be the first one in enumeration order
    sampled = _grid_sampled(2)
    rep = check_usd(sampled, 2)
    assert rep.worst_support == (0, 1)


# ------------------------------------------------------- sparse norm ratio

def test_equal_coefficient_quartic_ratio_under_sparse_bound():
    # f = sum of e^{ikx}, k = 0..3, checked against the 4-sparse bound
    # 4^(1/4) = sqrt(2) with both norms computed by direct grid
    # quadrature: |f|^4 = (f * conj(f))^2 has degree 6, so a 16-point
    # uniform grid integrates it exactly.
    x = 2.0 * np.pi * np.arange(16) / 16
    vals = np.abs(sum(np.exp(1j * k * x) for k in range(4)))
    l2 = math.sqrt(np.mean(vals ** 2))
    l4 = np.mean(vals ** 4) ** 0.25
    assert l2 == pytest.approx(2.0, rel=1e-12)
    assert l4 / l2 <= math.sqrt(2.0) + 1e-12
    f = TrigPolynomial(1, {(k,): 1.0 for k in range(4)})
    assert lp_norm(f, 4.0) / lp_norm(f, 2.0) == pytest.approx(
        l4 / l2, rel=1e-10)
