"""Root-of-unity tables and the array forms of the per-key loops.

`_poly_grid_values` builds its tables through `_split_tables`, which keeps
the last bounding box's tables for the next call; every result from kept
tables is compared at the byte level with the one from a cold cache.  The
tables themselves, and the former code kept here as oracles (tables
gathered through one index matrix of their size, `degree` as a generator
over the keys, `eval` rebuilding integer keys from the float frequency
array, and `multiply` filling its dict with a comprehension), are compared
at the byte level, signed zeros included.  The kernel's accuracy is
checked against exact values in tests/test_grid_oracle.py.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womplab import trig
from womplab.experiments import default_config, rate_sweep_compute
from womplab.trig import (TrigPolynomial, _grid_values, _poly_grid_values,
                          _root_tables, _split_tables, lp_norm, lp_norms, multiply)


def degree_loop(poly):
    if not poly.coeffs:
        return 0
    return max(max(abs(ki) for ki in k) for k in poly.coeffs)


def eval_loop(poly, pts):
    out = np.zeros(pts.shape[0], dtype=complex)
    if not poly.coeffs:
        return out
    K = np.array(sorted(poly.coeffs), dtype=float)
    c = np.array([poly.coeffs[tuple(int(v) for v in k)] for k in K])
    out[:] = np.exp(1j * (pts @ K.T)) @ c
    return out


def multiply_comprehension(f, g):
    if not f.coeffs or not g.coeffs:
        return TrigPolynomial(f.dim)
    a, alo = f._box, f._lo
    b, blo = g._box, g._lo
    out = np.zeros(tuple(np.add(a.shape, b.shape) - 1), dtype=complex)
    for k in np.argwhere(b):
        out[tuple(slice(s, s + w) for s, w in zip(k, a.shape))] += b[tuple(k)] * a
    keep = np.argwhere(out != 0)
    return TrigPolynomial(f.dim, {tuple((k + alo + blo).tolist()): out[tuple(k)]
                                  for k in keep})


def bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def assert_same_poly(got, expect):
    assert list(got.coeffs) == list(expect.coeffs)
    assert np.array_equal(bits(list(got.coeffs.values())),
                          bits(list(expect.coeffs.values())))


def in_window(rng, lo, width, terms):
    """A polynomial whose bounding box is exactly lo .. lo + width - 1:
    both corners are set, plus up to `terms` random entries inside."""
    lo, width = np.asarray(lo), np.asarray(width)
    keys = {tuple(lo.tolist()), tuple((lo + width - 1).tolist())}
    keys |= {tuple((lo + rng.integers(0, width)).tolist()) for _ in range(terms)}
    coeff = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return TrigPolynomial(len(lo), dict(zip(sorted(keys), coeff)))


@st.composite
def shape_sequences(draw):
    """Polynomials on two windows of one dimension, in a drawn order, with
    two grid sizes that repeat: consecutive evaluations hit the cache on the
    same window and size and miss it on a change of window or size.  The
    second window often has the first one's width at another offset."""
    d = draw(st.sampled_from([1, 2, 3]))
    windows = []
    for _ in range(2):
        lo = [draw(st.integers(-9, 9)) for _ in range(d)]
        width = [draw(st.integers(1, 5)) for _ in range(d)]
        windows.append((lo, width))
    if draw(st.booleans()):
        shift = [draw(st.integers(-4, 4)) for _ in range(d)]
        windows[1] = ([a + s for a, s in zip(windows[0][0], shift)], windows[0][1])
    order = draw(st.lists(st.integers(0, 1), min_size=2, max_size=6))
    two_sizes = [draw(st.integers(1, 12)) for _ in range(2)]
    sizes = [two_sizes[draw(st.integers(0, 1))] for _ in order]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [(in_window(rng, *windows[w], terms=draw(st.integers(0, 8))), n)
            for w, n in zip(order, sizes)]


def kept_and_cold(calls):
    """Each call's result and, when it read tables kept from an earlier
    call, the result of the same call on a cold cache (else None)."""
    out = []
    for fn, *args in calls:
        hits = _split_tables.cache_info().hits
        got = fn(*args)
        out.append((got, _split_tables.cache_info().hits > hits))
    cold = []
    for (fn, *args), (got, hit) in zip(calls, out):
        if hit:
            _split_tables.cache_clear()
        cold.append(fn(*args) if hit else None)
    return [(got, again) for (got, _), again in zip(out, cold)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shape_sequences())
def test_kept_split_tables_give_the_cold_cache_values(seq):
    ps = (2, 10, math.inf)  # p = 10 has a finer grid once the degree is 5
    calls = [(_poly_grid_values, poly, n) for poly, n in seq]
    calls += [(lp_norms, poly, ps) for poly, _ in seq]
    for got, cold in kept_and_cold(calls):
        assert _split_tables.cache_info().currsize <= 1
        if cold is not None:
            assert np.array_equal(bits(np.array(got)), bits(np.array(cold)))
    for poly, _ in seq:
        assert poly.degree == degree_loop(poly)


@st.composite
def wide_sequences(draw):
    """shape_sequences for d = 1 windows of width 50-150 on grids of 401 or
    more points, where every axis splits."""
    windows = [(draw(st.integers(-90, 60)), draw(st.integers(50, 150))) for _ in range(2)]
    order = draw(st.lists(st.integers(0, 1), min_size=2, max_size=5))
    two_sizes = [draw(st.sampled_from([401, 603, 1201])) for _ in range(2)]
    sizes = [two_sizes[draw(st.integers(0, 1))] for _ in order]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [(in_window(rng, [windows[w][0]], [windows[w][1]], terms=40), n)
            for w, n in zip(order, sizes)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(wide_sequences())
def test_kept_split_tables_of_wide_windows_give_the_cold_cache_values(seq):
    results = kept_and_cold([(_poly_grid_values, poly, n) for poly, n in seq])
    for (poly, n), (got, cold) in zip(seq, results):
        lo, shape = tuple(poly._lo.tolist()), poly._box.shape
        assert _split_tables(n, lo, shape)[0][1] is not None  # the window splits
        # and its values are the full tables' up to rounding
        full = _grid_values(poly._box, _root_tables(n, lo, shape))
        assert np.all(np.abs(got - full) <= 1e-12 * np.abs(poly._box).sum())
        if cold is not None:
            assert np.array_equal(bits(got), bits(cold))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape_sequences(), st.integers(0, 2 ** 32 - 1))
def test_eval_degree_multiply_match_key_loops(seq, seed):
    rng = np.random.default_rng(seed)
    for (f, _), (g, _) in zip(seq, seq[1:] + seq[:1]):
        assert f.degree == degree_loop(f)
        pts = rng.uniform(-7.0, 7.0, size=(9, f.dim))
        pts[0] = 0.0
        assert np.array_equal(bits(f.eval(pts)), bits(eval_loop(f, pts)))
        assert_same_poly(multiply(f, g), multiply_comprehension(f, g))


def test_same_width_at_another_offset_is_a_new_table():
    # equal n and shape, different lowest corner: the tables must differ
    rng = np.random.default_rng(4)
    # 1-D windows of width 100 split at n = 201
    for lo in ([-3, 2], [1, 2], [-3, 2], [1, -5], [-30], [1], [-30], [6]):
        d = len(lo)
        poly = in_window(rng, lo, [3, 3] if d == 2 else [100], terms=4)
        n = 7 if d == 2 else 201
        warm = _poly_grid_values(poly, n)
        _split_tables.cache_clear()
        assert np.array_equal(bits(warm), bits(_poly_grid_values(poly, n)))


def test_degree_and_products_on_negative_frequencies():
    f = TrigPolynomial(2, {(-7, 1): 1.0, (2, -3): -0.0 + 2j})
    assert f.degree == degree_loop(f) == 7
    assert TrigPolynomial(1).degree == 0
    assert_same_poly(multiply(f, f), multiply_comprehension(f, f))
    zero = TrigPolynomial(2)
    assert_same_poly(multiply(f, zero), multiply_comprehension(f, zero))


def test_cached_tables_are_read_only_and_one_box_is_kept():
    # d = 2: neither axis splits, as each full table is smaller than its
    # step's partial sums would be; d = 1: width 100 splits as K1 = K2 = 10
    _poly_grid_values(TrigPolynomial(2, {(-2, 1): 1.0, (3, 4): 0.5j}), 11)
    pairs = _split_tables(11, (-2, 1), (6, 4))
    assert _split_tables.cache_info().currsize == 1
    assert [(low.shape, high) for low, high in pairs] == [((11, 6), None),
                                                          ((11, 4), None)]
    _poly_grid_values(TrigPolynomial(1, {(-50,): 1.0, (49,): 2.0}), 201)
    ((low, high),) = _split_tables(201, (-50,), (100,))
    assert _split_tables.cache_info().currsize == 1
    assert low.shape == high.shape == (201, 10)
    for table in (*pairs[0][:1], *pairs[1][:1], low, high):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        with pytest.raises(ValueError):
            table *= 2.0
    # axes with the same frequency range and split share one pair
    square = _split_tables(5, (-1, -1), (3, 3))
    assert square[0] is square[1]
    assert _split_tables.cache_info().currsize == 1


def root_tables_with_index_matrix(n, lo, shape):
    """The former `_root_tables`: each table gathered through one int64
    index matrix of its own size."""
    t = np.arange(n)
    roots = np.exp(2j * np.pi * t / n)
    return tuple(roots[np.outer(t, np.arange(a, a + w)) % n] for a, w in zip(lo, shape))


@pytest.mark.parametrize("block_entries", [1, 7, trig._EXP_BLOCK_ENTRIES])
def test_row_blocks_gather_the_index_matrix_tables(monkeypatch, block_entries):
    # d = 1-3, axes that share a span, n that no block size divides, a span
    # wider than a block and one-column spans
    monkeypatch.setattr(trig, "_EXP_BLOCK_ENTRIES", block_entries)
    cases = [(13, (-4,), (9,)), (1, (0,), (1,)), (7, (3,), (1,)),
             (1001, (-120, 5), (250, 3)), (97, (-9, -9), (19, 19)),
             (41, (-4, 2, -4), (9, 5, 9)), (8195, (-2, -2, -2), (5, 5, 5))]
    for n, lo, shape in cases:
        got = _root_tables(n, lo, shape)
        for table, expect in zip(got, root_tables_with_index_matrix(n, lo, shape)):
            assert table.shape == expect.shape
            assert np.array_equal(bits(table), bits(expect))
            assert not table.flags.writeable
        for a in range(len(lo)):
            for b in range(a):
                assert (got[a] is got[b]) == ((lo[a], shape[a]) == (lo[b], shape[b]))
        # the split tables hold the columns lo + k1 and K1 k2 of the roots at
        # phases in (-pi, pi]
        t = np.arange(n)
        roots = np.exp(2j * np.pi * (t - n * (2 * t > n)) / n)
        for (low, high), a, w in zip(_split_tables(n, lo, shape), lo, shape):
            k1 = low.shape[1]
            ks = [np.arange(a, a + k1)]
            if high is not None:
                ks.append(k1 * np.arange(high.shape[1]))
                assert k1 == math.isqrt(w - 1) + 1 and k1 * high.shape[1] >= w
            for table, k in zip((low, high), ks):
                expect = roots[np.outer(t, k) % n]
                assert np.array_equal(bits(table), bits(expect))
                assert not table.flags.writeable


def test_a_miss_frees_the_last_tables_before_building():
    # at most one box's tables are alive, also while the next are built
    n, width = 1001, 250
    tracemalloc.start()
    try:
        _split_tables(n, (0,), (width,))
        tracemalloc.reset_peak()
        pairs = _split_tables(n, (1,), (width,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the new tables (n x 16 and n x 16) and one row block's work: two
    # int64 row blocks (the last one lives until the next is bound), the two
    # input buffers of numpy's broadcast product, the arange and roots of
    # length n and 16 KB of slack.  The last box's tables would add 512 KB
    tables = sum(t.nbytes for t in pairs[0])
    work = 2 * 8 * trig._EXP_BLOCK_ENTRIES + 2 * 8 * np.getbufsize() + 24 * n + 2 ** 14
    assert peak < tables + work < 2 * tables


def test_a_degree_400_norm_stays_small():
    # a dense degree-400 polynomial on its 3,209-point grid: a full table
    # would be 3,209 x 801 complex, 41 MB; the split tables are 3,209 x 57
    rng = np.random.default_rng(6)
    coeff = rng.standard_normal(801) + 1j * rng.standard_normal(801)
    poly = TrigPolynomial(1, dict(zip(((k,) for k in range(-400, 401)), coeff)))
    _split_tables.cache_clear()
    tracemalloc.start()
    try:
        norm = lp_norm(poly, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert norm == pytest.approx(poly.l2_norm(), rel=1e-13)


def test_rate_sweep_two_threads_give_the_serial_cells():
    # certify = true also shares check_usd's cached class representatives
    # between the threads
    for certify in (False, True):
        sec = default_config()["rate-sweep"]
        sec.update({"v_list": "1,2,3,4", "seeds": 2, "a": 8.0, "certify": certify})
        serial, _, _ = rate_sweep_compute(sec, base_seed=5, threads=1)
        threaded, _, _ = rate_sweep_compute(sec, base_seed=5, threads=2)
        assert len(serial) == len(threaded) == 8
        # v = 1 and 2 certify on boxes 3 and 7; C(31, u) is over the cap after
        assert sum(c["report"].certificate is not None
                   for c in threaded) == 4 * certify
        for a, b in zip(serial, threaded):
            assert a.keys() == b.keys()
            assert [a[k] for k in ("v", "seed", "m", "J", "size", "steps")] == \
                [b[k] for k in ("v", "seed", "m", "J", "size", "steps")]
            assert list(a["errors"]) == list(b["errors"])
            assert np.array_equal(np.array(list(a["errors"].values())).view(np.uint64),
                                  np.array(list(b["errors"].values())).view(np.uint64))
            assert a["report"].csv_row() == b["report"].csv_row()
            assert_same_poly(a["report"].approximant, b["report"].approximant)
