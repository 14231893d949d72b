"""The stacked best v-term references against the per-support loops they
replaced, which stay here as the oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womplab import greedy
from womplab.discretization import PointSet, build_sampled, draw_points
from womplab.greedy import BestTermResult, _screen_bound, best_vterm, project
from womplab.recovery import best_vterm_l2_muxi, reconstruct, sample_target
from womplab.trig import TrigPolynomial, TrigSystem


def best_vterm_loop(h, target, v):
    """Reference best_vterm: project() on every support of size v, in
    lexicographic order, keeping the first smallest error."""
    target = np.asarray(target, dtype=complex)
    best = None
    for support in itertools.combinations(range(h.size), v):
        proj = project(h, target, support)
        err = h.norm(proj.residual)
        if best is None or err < best[0]:
            best = (err, support, proj.coefficients)
    return BestTermResult(float(best[0]), tuple(best[1]), best[2])


def best_vterm_l2_muxi_loop(f0, sampled, v):
    """Reference best_vterm_l2_muxi for v >= 1: one normal-equations solve
    per support of size v, in lexicographic order."""
    n = sampled.size
    y = sample_target(f0, sampled)
    a_box = np.array([f0.coeffs.get(k, 0.0) for k in sampled.system.indices()])
    norm2_sq = 0.5 * (f0.l2_norm() ** 2 + float(np.mean(np.abs(y) ** 2)))
    gram = 0.5 * (np.eye(n) + sampled.gram)
    rhs = 0.5 * (a_box + sampled.matrix.conj().T @ y / sampled.m)
    best = None
    for support in itertools.combinations(range(n), v):
        idx = list(support)
        g = gram[np.ix_(idx, idx)]
        b = rhs[idx]
        c = np.linalg.solve(g, b)
        err_sq = max(norm2_sq - float(np.real(np.vdot(c, b))), 0.0)
        if best is None or err_sq < best[0]:
            best = (err_sq, support, c)
    err_sq, support, c = best
    return math.sqrt(err_sq), tuple(support), reconstruct(sampled.system, support, c)


@st.composite
def instances(draw):
    d = draw(st.sampled_from([1, 2]))
    box = tuple(draw(st.integers(0, 3)) for _ in range(d))
    system = TrigSystem(d, box)
    n = system.size
    v = draw(st.sampled_from(
        [k for k in range(1, n + 1) if math.comb(n, k) <= 400]))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # q > 0 puts the points on a q-point grid per axis: coincident points,
    # aliased columns and supports that tie exactly or to the last bits
    q = draw(st.sampled_from([0, 0, 2, 3, 5]))
    if q:
        pts = 2 * np.pi * rng.integers(0, q, size=(m, d)) / q
    else:
        pts = rng.uniform(0, 2 * np.pi, size=(m, d))
    keys = system.indices()
    coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if draw(st.booleans()):
        # symmetric under k -> -k: the supports of a reflected pair tie
        coeff = dict(zip(keys, coeff))
        coeff = [coeff[k] + coeff[tuple(-ki for ki in k)] for k in keys]
    f0 = TrigPolynomial(d, dict(zip(keys, coeff)))
    return f0, build_sampled(system, PointSet(d, pts)), v


def assert_best_vterm_matches(h, y, v):
    got, want = best_vterm(h, y, v), best_vterm_loop(h, y, v)
    assert got.sigma == want.sigma
    assert got.support == want.support
    np.testing.assert_array_equal(got.coefficients, want.coefficients)


def assert_muxi_matches(f0, sampled, v):
    err, support, approx = best_vterm_l2_muxi(f0, sampled, v)
    want_err, want_support, want_approx = best_vterm_l2_muxi_loop(f0, sampled, v)
    assert err == want_err
    assert support == want_support
    assert approx.coeffs == want_approx.coeffs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances())
def test_best_vterm_equals_the_per_support_loop(instance):
    f0, sampled, v = instance
    assert_best_vterm_matches(sampled, sample_target(f0, sampled), v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances())
def test_best_vterm_l2_muxi_equals_the_per_support_loop(instance):
    assert_muxi_matches(*instance)


@pytest.mark.parametrize("box, m, v, seed", [
    ((10,), 600, 2, 3964924996),  # the sizes of the `certified` benchmark
    ((2, 1), 600, 2, 3),
    ((3,), 2, 3, 5),              # m < v: every block is singular
    ((3,), 30, 1, 6),             # v = 1
    ((3,), 30, 7, 7),             # v = N: a single support
    ((1, 1), 4, 9, 8),            # v = N > m
])
def test_fixed_sizes_equal_the_loops(box, m, v, seed):
    system = TrigSystem(len(box), box)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size)
    f0 = TrigPolynomial(system.dim, dict(zip(system.indices(), coeff)))
    sampled = build_sampled(system, draw_points(m, system.dim, seed))
    assert_best_vterm_matches(sampled, sample_target(f0, sampled), v)
    assert_muxi_matches(f0, sampled, v)


def test_best_vterm_v1_projects_only_near_minimal_columns(monkeypatch):
    # the screen on the shared Gram leaves project() fewer than the N = 21
    # columns of box 10, and the result keeps its bits
    system = TrigSystem(1, (10,))
    sampled = build_sampled(system, draw_points(600, 1, 3964924996))
    rng = np.random.default_rng(1)
    y = sampled.matrix @ (rng.standard_normal(21) + 1j * rng.standard_normal(21))
    calls = []

    def counting(h, target, support):
        calls.append(support)
        return project(h, target, support)

    monkeypatch.setattr(greedy, "project", counting)
    assert_best_vterm_matches(sampled, y, 1)  # the loop calls project itself
    assert 1 <= len(calls) < system.size


def test_screen_bound_covers_well_spread_blocks_only():
    system = TrigSystem(1, (10,))
    gram = build_sampled(system, draw_points(600, 1, 3964924996)).gram
    idx = np.array(list(itertools.combinations(range(21), 2)))
    bound = _screen_bound(gram, idx, 1.0, 600)
    assert np.all(bound > 0) and np.all(bound < 1e-9)
    # two points cannot separate three columns: every block is singular
    few = build_sampled(system, draw_points(2, 1, 5)).gram
    idx = np.array(list(itertools.combinations(range(21), 3)))
    assert np.all(np.isinf(_screen_bound(few, idx, 1.0, 2)))


def test_best_vterm_l2_muxi_rejects_v_past_the_dictionary():
    system = TrigSystem(1, (1,))
    f0 = TrigPolynomial(1, {(0,): 1.0})
    sampled = build_sampled(system, draw_points(5, 1, 0))
    with pytest.raises(ValueError, match="dictionary size 3"):
        best_vterm_l2_muxi(f0, sampled, 4)
