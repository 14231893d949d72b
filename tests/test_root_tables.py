"""Root-of-unity tables and the array forms of the per-key loops.

`_grid_values` builds its tables through `_tables`, which keeps the two
most recently used table sets for later calls; every result from kept
tables, of one polynomial or of a batch, is compared at the byte level
with the one from a cold cache.  The tables themselves, and the former
code kept here as oracles (tables gathered through one index matrix of
their size, `degree` as a generator over the keys, `eval` rebuilding
integer keys from the float frequency array, and `multiply` filling its
dict with a comprehension), are compared at the byte level, signed zeros
included.  The kernel's accuracy is checked against exact values in
tests/test_grid_oracle.py.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womplab import trig
from womplab.trig import (OVERSAMPLE, TrigPolynomial, _grid_values, _tensor_grid,
                          lp_norm, multiply, quadrature_grid_size)


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


def window_keys(lo, width):
    """The frequencies of the window lo .. lo + width - 1, lexicographic."""
    return np.stack(np.unravel_index(np.arange(math.prod(width)), width), axis=-1) + lo


def in_window(rng, lo, width, terms):
    """A polynomial whose bounding box is exactly lo .. lo + width - 1:
    both corners are set, plus up to `terms` random entries inside."""
    lo, width = np.asarray(lo), np.asarray(width)
    keys = {tuple(lo.tolist()), tuple((lo + width - 1).tolist())}
    keys |= {tuple((lo + rng.integers(0, width)).tolist()) for _ in range(terms)}
    coeff = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return TrigPolynomial(len(lo), dict(zip(sorted(keys), coeff)))


def null_batch(rng, lo, width, null_dim):
    """The batch make_fooling passes, on the window lo .. lo + width - 1:
    a null basis of the window's exponentials at random points, of
    dimension null_dim, one coefficient box per null vector."""
    keys = window_keys(lo, width)
    m = len(keys) - null_dim
    pts = rng.uniform(0, 2 * np.pi, (m, len(width)))
    vh = np.linalg.svd(np.exp(1j * (pts @ keys.T)))[2]
    return vh[m:].conj().reshape(-1, *width)


@st.composite
def shape_sequences(draw):
    """Polynomials on two windows of one dimension, in a drawn order, with
    two grid sizes that repeat: consecutive evaluations hit the cache on the
    same window and size and miss it on a change of window or size.  The
    second window often has the first one's width at another offset.  Each
    call may also pass a null basis of its window as a batch."""
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
    seq = []
    for w, n in zip(order, sizes):
        lo, width = windows[w]
        poly = in_window(rng, lo, width, terms=draw(st.integers(0, 8)))
        batch = None
        if draw(st.booleans()):
            batch = null_batch(rng, lo, width, draw(st.integers(1, math.prod(width))))
        seq.append((poly, n, batch))
    return seq


def grid_calls(seq):
    """The kernel call of each entry: its batch if it has one, else its
    polynomial's box."""
    return [(_grid_values, poly._box if batch is None else batch, poly._lo, n)
            for poly, n, batch in seq]


def kept_and_cold(calls):
    """Each call's result and, when it read tables kept from an earlier
    call, the result of the same call on a cold cache (else None); and the
    cache keys each call read."""
    keys, out, real = [], [], trig._tables

    def spy(*key):
        keys[-1].append((key, key in real.kept))
        return real(*key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trig, "_tables", spy)
        for fn, *args in calls:
            keys.append([])
            out.append(fn(*args))
            assert len(real.kept) <= trig._KEPT
    cold = []
    for (fn, *args), read in zip(calls, keys):
        hit = any(kept for _, kept in read)
        if hit:
            real.kept.clear()
        cold.append(fn(*args) if hit else None)
    return [(got, again, [key for key, _ in read])
            for got, again, read in zip(out, cold, keys)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shape_sequences())
def test_kept_tables_give_the_cold_cache_values(seq):
    # then each polynomial on its lp_norms grid
    calls = grid_calls(seq) + [
        (_grid_values, poly._box, poly._lo, quadrature_grid_size(poly.degree, 2, OVERSAMPLE))
        for poly, _, _ in seq]
    for got, cold, _ in kept_and_cold(calls):
        if cold is not None:
            assert np.array_equal(bits(got), bits(cold))
    for poly, _, _ in seq:
        assert poly.degree == degree_loop(poly)


@st.composite
def wide_sequences(draw):
    """shape_sequences for d = 1 windows of width 50-150 on grids of 401 or
    more points, where one polynomial splits its axis and a null basis of
    12-16 vectors, which multiplies the split's partial sums, does not."""
    windows = [(draw(st.integers(-90, 60)), draw(st.integers(50, 150))) for _ in range(2)]
    order = draw(st.lists(st.integers(0, 1), min_size=2, max_size=5))
    two_sizes = [draw(st.sampled_from([401, 603, 1201])) for _ in range(2)]
    sizes = [two_sizes[draw(st.integers(0, 1))] for _ in order]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    seq = []
    for w, n in zip(order, sizes):
        lo, width = [windows[w][0]], [windows[w][1]]
        poly, batch = in_window(rng, lo, width, terms=40), None
        if draw(st.booleans()):
            batch = null_batch(rng, lo, width, draw(st.integers(12, 16)))
        seq.append((poly, n, batch))
    return seq


@settings(max_examples=60, deadline=None, derandomize=True)
@given(wide_sequences())
def test_kept_tables_of_wide_windows_give_the_cold_cache_values(seq):
    # one cache key per (n, window) would hand a batch the split tables of
    # a polynomial on its window, or the other way round
    for (poly, n, batch), (got, cold, read) in zip(seq, kept_and_cold(grid_calls(seq))):
        ((_, lo, (w,), (k1,)),) = read
        assert (k1 < w) == (batch is None)  # only the polynomial splits
        # and its values are the exponentials' up to rounding
        vals = poly._box[None] if batch is None else batch
        expect = np.exp(1j * np.outer(_tensor_grid(n, 1), window_keys(lo, [w]))) \
            @ vals.reshape(len(vals), -1).T
        scale = np.abs(vals).reshape(len(vals), -1).sum(axis=1)
        assert np.all(np.abs(got.reshape(n, -1) - expect) <= 1e-12 * scale)
        if cold is not None:
            assert np.array_equal(bits(got), bits(cold))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape_sequences(), st.integers(0, 2 ** 32 - 1))
def test_eval_degree_multiply_match_key_loops(seq, seed):
    rng = np.random.default_rng(seed)
    for (f, _, _), (g, _, _) in zip(seq, seq[1:] + seq[:1]):
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
        warm = _grid_values(poly._box, poly._lo, n)
        trig._tables.kept.clear()
        assert np.array_equal(bits(warm), bits(_grid_values(poly._box, poly._lo, n)))


def test_degree_and_products_on_negative_frequencies():
    f = TrigPolynomial(2, {(-7, 1): 1.0, (2, -3): -0.0 + 2j})
    assert f.degree == degree_loop(f) == 7
    assert TrigPolynomial(1).degree == 0
    assert_same_poly(multiply(f, f), multiply_comprehension(f, f))
    zero = TrigPolynomial(2)
    assert_same_poly(multiply(f, zero), multiply_comprehension(f, zero))


def test_cached_tables_are_read_only_and_two_entries_are_kept():
    # d = 2: neither axis splits, as each full table is smaller than its
    # step's partial sums would be, and each keeps a half table of rows
    # t = 0 .. 5, sines for k = h .. 1, cosines for 0 .. h, h = 3 for k = -2 .. 3
    # and h = 4 for k = 1 .. 4; d = 1: width 100 splits as K1 = K2 = 10
    trig._tables.kept.clear()
    _grid_values(TrigPolynomial(2, {(-2, 1): 1.0, (3, 4): 0.5j})._box, (-2, 1), 11)
    _grid_values(TrigPolynomial(1, {(-50,): 1.0, (49,): 2.0})._box, (-50,), 201)
    first, second = (11, (-2, 1), (6, 4), (6, 4)), (201, (-50,), (100,), (10,))
    assert list(trig._tables.kept) == [first, second]
    pairs = trig._tables.kept[first]
    assert [(low.shape, low.dtype, high) for low, high in pairs] == [
        ((6, 7), np.float64, None), ((6, 9), np.float64, None)]
    ((low, high),) = trig._tables.kept[second]
    assert low.shape == high.shape == (201, 10) and low.dtype == high.dtype == complex
    for table in (*pairs[0][:1], *pairs[1][:1], low, high):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        with pytest.raises(ValueError):
            table *= 2.0
    # a hit makes its entry the most recent, and a miss drops the least
    # recent; axes with the same frequency range and split share one pair
    assert trig._tables(*first) is pairs
    square = trig._tables(5, (-1, -1), (3, 3), (3, 3))
    assert square[0] is square[1]
    assert list(trig._tables.kept) == [first, (5, (-1, -1), (3, 3), (3, 3))]


def tables_with_index_matrix(n, a, w, k1):
    """The tables of an axis gathered through one int64 index matrix of
    their own size, from the roots at phases in (-pi, pi]: the complex
    (low, high) of a split axis, or (half, None) for K1 = w, half the
    imaginary parts of rows t = 0 .. n // 2 for k = h .. 1, then the real
    parts for k = 0 .. h."""
    t = np.arange(n)
    roots = np.exp(2j * np.pi * (t - n * (2 * t > n)) / n)
    if k1 < w:
        return [roots[np.outer(t, k) % n] for k in (np.arange(a, a + k1),
                                                    k1 * np.arange(-(-w // k1)))]
    z = roots[np.outer(t[:n // 2 + 1], np.arange(max(-a, a + w - 1) + 1)) % n]
    return [np.hstack([z.imag[:, :0:-1], z.real]), None]


@pytest.mark.parametrize("block_entries", [1, 7, trig._EXP_BLOCK_ENTRIES])
def test_row_blocks_gather_the_index_matrix_tables(monkeypatch, block_entries):
    # d = 1-3, axes that share a span, n that no block size divides, even
    # n, a span wider than a block, one-column spans and spans off centre;
    # every axis full, then every axis wider than 2 split
    monkeypatch.setattr(trig, "_EXP_BLOCK_ENTRIES", block_entries)
    cases = [(13, (-4,), (9,)), (1, (0,), (1,)), (7, (3,), (1,)), (2, (-1,), (3,)),
             (1001, (-120, 5), (250, 3)), (97, (-9, -9), (19, 19)),
             (41, (-4, 2, -4), (9, 5, 9)), (8195, (-2, -2, -2), (5, 5, 5)),
             (64, (-7, -20), (3, 12))]
    for n, lo, shape in cases:
        for k1s in (shape, tuple(math.isqrt(w - 1) + 1 for w in shape)):
            trig._tables.kept.clear()
            got = trig._tables(n, lo, shape, k1s)
            for (low, high), a, w, k1 in zip(got, lo, shape, k1s):
                assert (high is None) == (k1 == w)
                for table, expect in zip((low, high), tables_with_index_matrix(n, a, w, k1)):
                    if expect is None:
                        assert table is None
                        continue
                    assert table.shape == expect.shape and table.dtype == expect.dtype
                    assert np.array_equal(bits(table), bits(expect))
                    assert not table.flags.writeable
            for a in range(len(lo)):
                for b in range(a):
                    same = (lo[a], shape[a], k1s[a]) == (lo[b], shape[b], k1s[b])
                    assert (got[a] is got[b]) == same


@pytest.mark.parametrize("split", [False, True])
def test_a_miss_with_both_entries_full_frees_one_before_building(split):
    # at most two entries are alive, also while a third is built
    n, width = 1001, 250
    k1s = (math.isqrt(width - 1) + 1 if split else width,)
    trig._tables.kept.clear()
    tracemalloc.start()
    try:
        for a in (0, 1):
            trig._tables(n, (a,), (width,), k1s)
        tracemalloc.reset_peak()
        pairs = trig._tables(n, (2,), (width,), k1s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one kept entry, the new tables (the half table, 501 x 503 floats for
    # k = -251 .. 251, or n x 16 and n x 16 complex) and one row block's
    # work: two int64 row blocks (the last one lives until the next is
    # bound), the two input buffers of numpy's broadcast product, the
    # arange and roots of length n and 16 KB of slack, which also holds the
    # half table's copies of the roots' real and imaginary parts, 16 n
    # bytes.  The dropped entry would add one more set of tables
    tables = sum(t.nbytes for t in pairs[0] if t is not None)
    work = 2 * 8 * trig._EXP_BLOCK_ENTRIES + 2 * 8 * np.getbufsize() + 24 * n + 2 ** 14
    assert peak < 2 * tables + work < 3 * tables
    assert len(trig._tables.kept) == 2


def test_a_degree_400_norm_stays_small():
    # a dense degree-400 polynomial on its 3,209-point grid: a full table
    # would be 3,209 x 801 complex, 41 MB; the split tables are 3,209 x 57
    rng = np.random.default_rng(6)
    coeff = rng.standard_normal(801) + 1j * rng.standard_normal(801)
    poly = TrigPolynomial(1, dict(zip(((k,) for k in range(-400, 401)), coeff)))
    trig._tables.kept.clear()
    tracemalloc.start()
    try:
        norm = lp_norm(poly, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert norm == pytest.approx(poly.l2_norm(), rel=1e-13)

