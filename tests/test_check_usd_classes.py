"""The exhaustive L2 certificate, which solves one Gram block per symmetry
class of supports, against the full scan that solves every block."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womplab import discretization
from womplab.discretization import (PointSet, _box_representatives,
                                    _class_members, _class_representatives,
                                    _combinations, _holds, _pick_worst,
                                    build_sampled, check_usd, draw_points)
from womplab.trig import TrigSystem


def full_scan(sampled, u):
    """Reference certificate: one eigensolve per support of size u, in
    lexicographic chunks of 4096, keeping the first support that attains
    each extreme.  Returns (c_low, c_high, arg_low, arg_high)."""
    gram = sampled.gram
    c_low, c_high = math.inf, -math.inf
    arg_low = arg_high = None
    batch = []

    def flush(batch):
        nonlocal c_low, c_high, arg_low, arg_high
        if not batch:
            return
        idx = np.array(batch)
        eig = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        lo, hi = eig[:, 0], eig[:, -1]
        i = int(np.argmin(lo))
        if lo[i] < c_low:
            c_low, arg_low = float(lo[i]), tuple(batch[i])
        i = int(np.argmax(hi))
        if hi[i] > c_high:
            c_high, arg_high = float(hi[i]), tuple(batch[i])

    for support in itertools.combinations(range(sampled.size), u):
        batch.append(support)
        if len(batch) >= 4096:
            flush(batch)
            batch = []
    flush(batch)
    return c_low, c_high, arg_low, arg_high


def assert_matches_full_scan(sampled, u, modes):
    c_low, c_high, arg_low, arg_high = full_scan(sampled, u)
    for mode in modes:
        rep = check_usd(sampled, u, mode=mode)
        assert rep.c_low == c_low
        assert rep.c_high == c_high
        assert rep.worst_support == _pick_worst(mode, c_low, arg_low,
                                                c_high, arg_high)
        assert rep.holds == _holds(mode, c_low, c_high, 2.0)


@st.composite
def instances(draw):
    d = draw(st.sampled_from([1, 2]))
    box = tuple(draw(st.integers(0, 3)) for _ in range(d))
    system = TrigSystem(d, box)
    n = system.size
    u_max = max(k for k in range(1, min(4, n) + 1) if math.comb(n, k) <= 5000)
    u = draw(st.integers(1, u_max))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # q = 0 draws uniform points; q > 0 puts them on a q-point grid per
    # axis, where many classes tie exactly or to the last bits
    q = draw(st.sampled_from([0, 0, 2, 3, 5]))
    if q:
        pts = 2 * np.pi * rng.integers(0, q, size=(m, d)) / q
    else:
        pts = rng.uniform(0, 2 * np.pi, size=(m, d))
    mode = draw(st.sampled_from(["two-sided", "one-sided-lower"]))
    return build_sampled(system, PointSet(d, pts)), u, [mode]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances())
def test_class_reduced_certificate_equals_full_scan(instance):
    assert_matches_full_scan(*instance)


@pytest.mark.parametrize("box, u, m, seed", [
    ((10,), 6, 600, 3964924996),
    ((10,), 6, 600, 7),
    ((2, 1), 6, 600, 3),
    ((2, 1), 6, 600, 11),
    ((3,), 4, 2, 5),       # m < u: every class ties at c_low = 0
    ((1, 1), 3, 1, 2),
])
def test_benchmark_sizes_equal_full_scan(box, u, m, seed):
    system = TrigSystem(len(box), box)
    sampled = build_sampled(system, draw_points(m, system.dim, seed))
    assert_matches_full_scan(sampled, u, ["two-sided", "one-sided-lower"])


def test_worst_support_need_not_be_the_corner_translate():
    # the points of the first box-10 item of the `certified` benchmark at
    # run seed 0; the three translates of the worst support have the same
    # spectrum in exact arithmetic, but their computed largest eigenvalues
    # differ in the last bits, and the second translate attains c_high
    system = TrigSystem(1, (10,))
    sampled = build_sampled(system, draw_points(600, 1, 3964924996))
    rep = check_usd(sampled, 6)
    assert rep.worst_support == (1, 5, 8, 12, 15, 19)
    assert rep.c_high.hex() == "0x1.35948dafbc821p+0"


def _brute_representative(system, support):
    """First member in lexicographic order of the support's class under
    translation within the box and the reflection k -> -k."""
    box = np.array(system.box)
    indices = system.indices()
    column_of = {k: col for col, k in enumerate(indices)}
    best = None
    for sign in (1, -1):
        ks = sign * np.array([indices[c] for c in support])
        for shift in itertools.product(*[range(-2 * b, 2 * b + 1) for b in box]):
            moved = ks + np.array(shift)
            if np.all(np.abs(moved) <= box):
                member = tuple(sorted(column_of[tuple(k)] for k in moved.tolist()))
                best = member if best is None else min(best, member)
    return best


@pytest.mark.parametrize("box, u_max", [
    ((4,), 3), ((0,), 1), ((2, 1), 3), ((1, 2), 3), ((0, 2), 3), ((1, 0, 1), 3)])
def test_class_representatives_match_brute_force(box, u_max):
    system = TrigSystem(len(box), box)
    for u in range(1, min(u_max, system.size) + 1):
        supports = list(itertools.combinations(range(system.size), u))
        reps = _class_representatives(np.array(supports), system.box)
        assert [tuple(r) for r in reps.tolist()] == [
            _brute_representative(system, s) for s in supports]


@pytest.mark.parametrize("box, u_max", [
    ((4,), 4), ((0,), 1), ((2, 1), 3), ((1, 2), 3), ((0, 2), 3), ((1, 0, 1), 3),
    ((1, 1, 1), 2)])
def test_class_members_cover_every_support_once(box, u_max):
    system = TrigSystem(len(box), box)
    n = system.size
    for u in range(1, min(u_max, n) + 1):
        supports = list(itertools.combinations(range(n), u))
        rep_of = {s: _brute_representative(system, s) for s in supports}
        reps = sorted(set(rep_of.values()))
        # the scan looks for representatives among the supports whose
        # first column lies in the first slab along axis 0
        first_slab = {tuple(r) for r in _combinations(
            n, u, first_below=n // (2 * box[0] + 1)).tolist()}
        assert set(reps) <= first_slab
        generated = list(reps)
        for rep in reps:
            members = [tuple(s) for s in
                       _class_members(np.array([rep]), system.box).tolist()]
            assert all(rep_of[s] == rep for s in members)
            generated += members
        assert len(generated) == math.comb(n, u)
        assert sorted(generated) == supports
        # all classes at once: the same supports
        batch = [tuple(s) for s in
                 _class_members(np.array(reps), system.box).tolist()]
        assert sorted(batch) == sorted(set(supports) - set(reps))


@pytest.mark.parametrize("box, u", [
    ((4,), 3), ((0,), 1), ((2, 1), 3), ((1, 2), 2), ((0, 2), 3), ((1, 0, 1), 3),
    ((1, 1, 1), 2)])
def test_cached_representatives_are_one_per_brute_force_class(box, u):
    system = TrigSystem(len(box), box)
    _box_representatives.kept.clear()
    reps = _box_representatives(system.box, u)
    assert [tuple(r) for r in reps.tolist()] == sorted(
        {_brute_representative(system, s)
         for s in itertools.combinations(range(system.size), u)})
    assert not reps.flags.writeable
    assert _box_representatives(system.box, u) is reps
    assert len(_box_representatives.kept) == 1


def test_check_usd_across_boxes_equals_a_cold_cache(monkeypatch):
    # box A twice (a cache hit), then box B, then A at another u, then A
    # again (rebuilt: two other keys came between); then a certified run's
    # order, boxes 10 and (2, 1) at u = 6 twice each, which rebuilds
    # nothing after the first of each.  Every report is bit for bit the
    # one computed with the cache cleared first
    calls = [((4,), 3, 1, 30), ((4,), 3, 2, 30), ((1, 1), 3, 3, 30), ((4,), 2, 4, 30),
             ((4,), 3, 1, 30), ((10,), 6, 5, 600), ((2, 1), 6, 6, 600),
             ((10,), 6, 7, 600), ((2, 1), 6, 8, 600)]
    sampled = [(build_sampled(TrigSystem(len(box), box),
                              draw_points(m, len(box), seed)), u)
               for box, u, seed, m in calls]
    builds, real = [], discretization._class_representatives
    monkeypatch.setattr(discretization, "_class_representatives",
                        lambda idx, box: builds.append(box) or real(idx, box))
    warm = []
    for i, (s, u) in enumerate(sampled):
        if i == 7:  # the first of each certified box was built
            assert {(10,), (2, 1)} <= set(builds)
            builds.clear()
        warm.append(check_usd(s, u))
    assert builds == []
    assert len(_box_representatives.kept) == 2
    for (s, u), rep in zip(sampled, warm):
        _box_representatives.kept.clear()
        cold = check_usd(s, u)
        assert (rep.c_low.hex(), rep.c_high.hex()) == (cold.c_low.hex(),
                                                       cold.c_high.hex())
        assert rep == cold


def test_eigensolves_count_the_blocks_solved():
    # box 10, u = 6: 7,872 classes and 54,264 supports; the scan solves
    # the representatives that the Cholesky screen cannot rule out, plus
    # the members of classes near an extreme
    system = TrigSystem(1, (10,))
    rep = check_usd(build_sampled(system, draw_points(600, 1, 3964924996)), 6)
    assert 0 < rep.eigensolves < 7_872
    assert "eigensolves" not in rep.CSV_HEADER
    assert len(rep.csv_row().split(",")) == len(rep.CSV_HEADER.split(","))
    # with m < u every class ties at c_low ~ 0: the screen's lower level
    # sits above every block's lowest eigenvalue, so every block fails it,
    # every class is near the extreme, and every support is solved once
    small = check_usd(build_sampled(system, draw_points(3, 1, 5)), 4)
    assert small.eigensolves == math.comb(21, 4)
    rand = check_usd(build_sampled(system, draw_points(30, 1, 5)), 4,
                     method="randomized", trials=37)
    assert rand.eigensolves == 37
    lp = check_usd(build_sampled(system, draw_points(30, 1, 5)), 2, p=4.0,
                   method="randomized", trials=6)
    assert lp.eigensolves == 6
