"""The Cholesky screen in front of the exhaustive certificate's eigensolves:
its batched factorisation against LAPACK's, its margin against exact
eigenvalues, and the screened scan against the scan that solves every
class representative."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womplab import discretization
from womplab.discretization import (PointSet, _cholesky_fails, _entry_bound,
                                    _screen, _screen_margin, build_sampled, check_usd,
                                    draw_points, uniform_grid_points)
from womplab.trig import TrigSystem


def _stack_fails(stack):
    """_cholesky_fails on a stack of u x u matrices."""
    u = stack.shape[1]
    lower = {(i, j): np.ascontiguousarray(stack[:, i, j])
             for i in range(u) for j in range(i + 1)}
    return _cholesky_fails(lower, u)


def _lapack_fails(block):
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return True
    return False


@pytest.mark.parametrize("u", range(1, 9))
def test_cholesky_kernel_fails_exactly_where_lapack_does(u):
    # shifts at least 1e-6 from every eigenvalue, so that rounding cannot
    # decide a block; only the lower triangle and the real diagonal are read
    rng = np.random.default_rng(u)
    a = rng.standard_normal((60, u, u)) + 1j * rng.standard_normal((60, u, u))
    herm = a @ a.conj().transpose(0, 2, 1) / u
    eigs = np.linalg.eigvalsh(herm)
    shift = rng.uniform(-0.5, eigs.max(axis=1) + 0.5)
    near = np.abs(eigs - shift[:, None]).min(axis=1) < 1e-6
    stack = (herm - shift[:, None, None] * np.eye(u))[~near]
    noise = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
    junk = np.triu(noise, 1) + 1j * np.eye(u) * rng.standard_normal(stack.shape)
    want = [_lapack_fails(block) for block in stack]
    assert 0 < sum(want) < len(want)
    assert _stack_fails(stack + junk).tolist() == want


def test_cholesky_kernel_fails_on_a_zero_or_nan_pivot():
    # LAPACK raises on the zero pivots; OpenBLAS's factorisation lets a NaN
    # pivot through, the kernel does not
    ones = np.ones((1, 2, 2), dtype=complex)  # second pivot exactly 0
    zero = np.diag([1.0, 0.0, 1.0]).astype(complex)
    nan = np.eye(3, dtype=complex)
    nan[2, 1] = np.nan  # third pivot NaN
    nan_diag = np.diag([1.0, np.nan, 1.0]).astype(complex)
    assert _lapack_fails(ones[0]) and _lapack_fails(zero)
    assert _stack_fails(ones).tolist() == [True]
    assert _stack_fails(np.stack([zero, nan, nan_diag, np.eye(3)])).tolist() == [
        True, True, True, False]


def test_cholesky_kernel_divides_each_part_by_the_pivot():
    # r_10 = c_10 / r_00 with r_00 = 3: a true division of each part, as
    # Higham's analysis (and so _screen_margin) assumes; numpy's complex /
    # real division multiplies by fl(1/3) and gives 2.333333333333333
    lower = {(0, 0): np.array([9 + 0j]), (1, 0): np.array([1 + 7j]),
             (1, 1): np.array([10 + 0j])}
    assert not _cholesky_fails(lower, 2)[0]
    assert lower[1, 0][0] == complex(1 / 3, 7 / 3) != (np.array([1 + 7j]) / 3.0)[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_screen_fails_exactly_where_lapack_does_at_benchmark_sizes(seed):
    # every box-10 representative at m = 600, u = 6, both shifted blocks
    # factored by LAPACK one at a time, at the levels check_usd screens with
    sampled = build_sampled(TrigSystem(1, (10,)), draw_points(600, 1, seed))
    calls = []

    def spy(gram, rows, tau_lo, tau_hi, margin):
        calls.append((rows, tau_lo, tau_hi, margin,
                      _screen(gram, rows, tau_lo, tau_hi, margin)))
        return calls[-1][-1]

    with mock.patch.object(discretization, "_screen", spy):
        check_usd(sampled, 6)
    (rows, tau_lo, tau_hi, margin, fail), = calls
    assert len(rows) == 7872 - 79 and 0 < fail.sum() < 500
    eye = np.eye(6)
    want = [_lapack_fails((tau_hi - margin) * eye - block)
            or _lapack_fails(block - (tau_lo + margin) * eye)
            for block in sampled.gram[rows[:, :, None], rows[:, None, :]]]
    assert fail.tolist() == want


def _exact_extremes(mpmath, block):
    """Exact lowest and highest eigenvalue of the Hermitian matrix of the
    block's lower triangle (all that LAPACK reads), at the working
    precision."""
    n = block.shape[0]
    a = mpmath.matrix(n, n)
    for j in range(n):
        a[j, j] = mpmath.mpf(float(block[j, j].real))
        for k in range(j):
            entry = mpmath.mpc(float(block[j, k].real), float(block[j, k].imag))
            a[j, k], a[k, j] = entry, mpmath.conj(entry)
    eigs = mpmath.eighe(a, eigvals_only=True)
    return min(eigs), max(eigs)


@pytest.mark.parametrize("box, m, u, seed", [
    ((3,), 2, 3, 1), ((3,), 40, 3, 2), ((5,), 9, 4, 3), ((8,), 600, 4, 4),
    ((1, 1), 5, 3, 5), ((2, 1), 40, 4, 6), ((2, 1), 600, 4, 7)])
def test_screen_margin_against_exact_eigenvalues(box, m, u, seed):
    mpmath = pytest.importorskip(
        "mpmath", reason="the margin oracle needs 120-bit eigenvalues")
    system = TrigSystem(len(box), box)
    sampled = build_sampled(system, draw_points(m, system.dim, seed))
    g = _entry_bound(sampled)
    rng = np.random.default_rng(seed)
    offsets = (-4, -1, -0.5, -0.1, 0.1, 0.5, 1, 1.5, 2, 4)  # in margins
    passed = 0
    for _ in range(6):
        idx = np.sort(rng.choice(system.size, size=u, replace=False))
        block = sampled.gram[np.ix_(idx, idx)]
        computed = np.linalg.eigvalsh(block)
        with mpmath.workprec(120):
            lam_lo, lam_hi = _exact_extremes(mpmath, block)
        unit = _screen_margin(u, g, max(abs(float(lam_lo)), abs(float(lam_hi))))
        for k_lo in offsets:
            for k_hi in offsets:
                tau_lo = float(lam_lo) - k_lo * unit
                tau_hi = float(lam_hi) + k_hi * unit
                margin = _screen_margin(u, g, max(abs(tau_lo), abs(tau_hi)))
                if _screen(sampled.gram, idx[None], tau_lo, tau_hi, margin)[0]:
                    continue
                passed += 1
                # a block passing the screen has exact and computed
                # extremes strictly inside the levels
                assert tau_lo < lam_lo and lam_hi < tau_hi
                assert tau_lo <= computed[0] and computed[-1] <= tau_hi
    # the oracle is not vacuous: levels two margins clear let blocks pass
    assert passed >= 6 * 9


def _near_classes(sampled, u, **patches):
    """check_usd's report and the representatives whose classes it
    expanded, with the given discretization names patched."""
    near = []
    members = discretization._class_members

    def record(reps, box):
        near.extend(map(tuple, reps.tolist()))
        return members(reps, box)

    with mock.patch.multiple(discretization, _class_members=record, **patches):
        reports = [check_usd(sampled, u, mode=mode)
                   for mode in ("two-sided", "one-sided-lower")]
    return reports, sorted(set(near))


def _solve_everything(gram, rows, tau_lo, tau_hi, margin):
    return np.ones(len(rows), dtype=bool)


def assert_screen_changes_nothing(sampled, u, **patches):
    """The screened scan (with the given patches) against the scan whose
    screen rules out no block; returns both reports."""
    got, got_near = _near_classes(sampled, u, **patches)
    want, want_near = _near_classes(sampled, u, _screen=_solve_everything)
    assert got_near == want_near
    for a, b in zip(got, want):
        assert (a.c_low.hex(), a.c_high.hex()) == (b.c_low.hex(), b.c_high.hex())
        assert (a.worst_support, a.holds) == (b.worst_support, b.holds)
        assert a.eigensolves <= b.eigensolves
    return got[0], want[0]


@st.composite
def screened_instances(draw):
    d = draw(st.sampled_from([1, 2]))
    box = ((draw(st.integers(2, 10)),) if d == 1 else
           (draw(st.integers(1, 3)), draw(st.integers(0, 2))))
    system = TrigSystem(d, box)
    n = system.size
    u_max = max(k for k in range(1, min(6, n) + 1) if math.comb(n, k) <= 60_000)
    # enough classes for the screen to rule some out, and a few m < u
    u = draw(st.integers(max(1, u_max - 2), u_max))
    m = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # q > 0 puts the points on a q-point grid per axis, where classes tie
    q = draw(st.sampled_from([0, 0, 0, 2, 5]))
    if q:
        pts = 2 * np.pi * rng.integers(0, q, size=(m, d)) / q
    else:
        pts = rng.uniform(0, 2 * np.pi, size=(m, d))
    return build_sampled(system, PointSet(d, pts)), u


@settings(max_examples=120, deadline=None, derandomize=True)
@given(screened_instances())
def test_screened_scan_equals_the_unscreened_scan(instance):
    assert_screen_changes_nothing(*instance)


@pytest.mark.parametrize("box, m, seed", [
    ((10,), 600, 3964924996), ((10,), 600, 7), ((2, 1), 600, 3)])
def test_screen_skips_most_representatives_at_benchmark_sizes(box, m, seed):
    system = TrigSystem(len(box), box)
    sampled = build_sampled(system, draw_points(m, system.dim, seed))
    screened, unscreened = assert_screen_changes_nothing(sampled, 6)
    assert screened.eigensolves < unscreened.eigensolves // 5


@pytest.mark.parametrize("box, seed", [((10,), 3964924996), ((2, 1), 11)])
def test_every_sample_stride_changes_nothing(box, seed):
    # the levels sit delta inside the sampled extremes, wherever those
    # fall: a sample of every row leaves the screen nothing to rule out,
    # and a one-row sample that misses both extremes still rules out only
    # rows that cannot matter
    system = TrigSystem(len(box), box)
    sampled = build_sampled(system, draw_points(600, system.dim, seed))
    screened, unscreened = assert_screen_changes_nothing(
        sampled, 6, _SCREEN_STRIDE=1)
    assert screened.eigensolves == unscreened.eigensolves
    reps = discretization._box_representatives(box, 6)
    lo, hi = discretization._extremes(sampled.gram, reps[:1])
    assert screened.c_low < lo[0] and hi[0] < screened.c_high
    assert_screen_changes_nothing(sampled, 6, _SCREEN_STRIDE=len(reps))


@pytest.mark.parametrize("box, seed", [((10,), 3964924996), ((2, 1), 11)])
def test_levels_sit_the_rounding_bound_inside_the_sampled_extremes(box, seed):
    # a wide delta puts a thousand classes near the extremes; levels at the
    # sampled extremes themselves would let the screen rule most out
    system = TrigSystem(len(box), box)
    sampled = build_sampled(system, draw_points(600, system.dim, seed))
    with mock.patch.object(discretization, "_eig_rounding_bound",
                           lambda sampled, u: 0.05):
        _, near = _near_classes(sampled, 6)
        screened, unscreened = assert_screen_changes_nothing(sampled, 6)
    assert len(near) > 1000
    assert screened.eigensolves < unscreened.eigensolves


def test_crossed_levels_leave_the_screen_out():
    # on the exact 11-point grid every Gram block of box 5 is ~I, so the
    # levels cross (tau_lo > tau_hi): no block could pass, and factoring
    # the stacks would be wasted
    sampled = build_sampled(TrigSystem(1, (5,)), uniform_grid_points(11, 1))
    modes = ("two-sided", "one-sided-lower")

    def spy(*args):
        raise AssertionError("_screen called with crossed levels")

    def unscreened(gram, reps, u, g, delta):
        return reps, discretization._extremes(gram, reps)

    with mock.patch.object(discretization, "_screen", spy):
        got = [check_usd(sampled, 4, mode=mode) for mode in modes]
    with mock.patch.object(discretization, "_screened_extremes", unscreened):
        want = [check_usd(sampled, 4, mode=mode) for mode in modes]
    for a, b in zip(got, want):
        assert a == b
        assert (a.c_low.hex(), a.c_high.hex()) == (b.c_low.hex(), b.c_high.hex())
