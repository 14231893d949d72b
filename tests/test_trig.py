"""Polynomial arithmetic, kernels, blocks, norms, and serialization."""

import math
import tracemalloc

import numpy as np
import pytest

from womplab import trig
from womplab.discretization import uniform_grid_points
from womplab.trig import (_EVAL_CHUNK_ENTRIES, TrigPolynomial, TrigSystem,
                          _tensor_grid, dyadic_block,
                          fejer_kernel, lp_norm, lp_norms, multiply,
                          quadrature_grid_size, reconstruct, write_polynomial)


def _conj(poly: TrigPolynomial) -> TrigPolynomial:
    """Complex conjugate: reflected frequencies, conjugated coefficients."""
    return TrigPolynomial(poly.dim, {tuple(-ki for ki in k): c.conjugate()
                                     for k, c in poly.coeffs.items()})


def _random_poly(rng, dim, degree):
    system = TrigSystem(dim, (degree,) * dim)
    coeff = rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size)
    return TrigPolynomial(dim, dict(zip(system.indices(), coeff)))


# ------------------------------------------------------------- arithmetic

def test_eval_frozen_values():
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 2.0})
    vals = f.eval(np.array([[0.0], [np.pi]]))
    assert vals[0] == pytest.approx(3.0, abs=1e-14)
    assert vals[1] == pytest.approx(-1.0, abs=1e-14)


def test_canonicalization_drops_zero_coefficients():
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 0.0})
    assert (1,) not in f.coeffs


class _Pairs:
    """A coefficient map whose keys need not be hashable."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return self.pairs


def _key_of(k):
    return tuple(map(int, k))


@pytest.mark.parametrize("dim, key", [
    (1, (5,)), (2, (1, -2)), (2, (np.int64(1), 2.9)), (2, [3, 4]),
    (2, np.array([1, -1])), (1, np.array([7])),
    (1, "x"), (2, (1, None)), (2, ("a", 1)), (2, (1, 2, 3)), (1, (1, 2)), (1, ()),
])
def test_keys_canonicalize_as_before_the_tuple_fast_path(dim, key):
    # the oracle is the one key form, an iterable of ints: each key gives
    # the same tuple or the same error
    try:
        want = _key_of(key)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        with pytest.raises(type(exc)) as got:
            TrigPolynomial(dim, _Pairs([(key, 1.0)]))
        assert str(got.value) == str(exc)
        return
    if len(want) != dim:
        with pytest.raises(ValueError, match="does not match dimension"):
            TrigPolynomial(dim, _Pairs([(key, 1.0)]))
        return
    got = TrigPolynomial(dim, _Pairs([(key, 1.0)])).coeffs
    assert got == {want: 1.0}
    assert all(type(ki) is int for ki in next(iter(got)))


@pytest.mark.parametrize("dim, key", [
    (1, 3), (1, np.int64(-2)), (1, np.int32(4)), (1, 2.0), (1, np.float64(-1.7)),
    (1, True), (1, 1 + 2j), (1, None), (1, np.array(3)), (2, 4),
])
def test_scalar_keys_are_refused(dim, key):
    # a key is an iterable of ints, also in one dimension
    with pytest.raises((TypeError, ValueError)):
        TrigPolynomial(dim, _Pairs([(key, 1.0)]))


def test_add_sub_cancel_to_zero():
    rng = np.random.default_rng(0)
    f = _random_poly(rng, 1, 5)
    z = f - f
    assert z.coeffs == {}
    assert z.l2_norm() == 0.0


def test_multiply_is_coefficient_convolution():
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 1.0})
    sq = multiply(f, f)
    assert sq.coeffs == {(0,): 1.0, (1,): 2.0, (2,): 1.0}


def test_multiply_matches_pointwise_product():
    rng = np.random.default_rng(1)
    f = _random_poly(rng, 1, 4)
    g = _random_poly(rng, 1, 3)
    x = rng.uniform(0, 2 * np.pi, size=(40, 1))
    lhs = multiply(f, g).eval(x)
    rhs = f.eval(x) * g.eval(x)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_translate_shifts_the_graph():
    rng = np.random.default_rng(2)
    f = _random_poly(rng, 2, 3)
    shift = np.array([0.7, -1.3])
    g = f.translate(shift)
    x = rng.uniform(0, 2 * np.pi, size=(25, 2))
    np.testing.assert_allclose(g.eval(x), f.eval(x - shift), rtol=1e-11,
                               atol=1e-11)


def test_translate_frozen_half_turn():
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 2.0})
    g = f.translate([np.pi])
    assert g.coeffs[(1,)] == pytest.approx(-2.0, abs=1e-14)


def test_dimension_mismatch_raises():
    f = TrigPolynomial(1, {(1,): 1.0})
    g = TrigPolynomial(2, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f.eval(np.zeros((3, 2)))


# ---------------------------------------------------------------- kernels

def test_fejer_order_two_frozen_coefficients():
    k2 = fejer_kernel((2,))
    assert k2.coeffs == {(-1,): 0.5, (0,): 1.0, (1,): 0.5}
    assert k2.l2_norm() == pytest.approx(math.sqrt(1.5), rel=1e-15)


def test_fejer_order_three_triangle():
    k3 = fejer_kernel((3,))
    expect = {(-2,): 1 / 3, (-1,): 2 / 3, (0,): 1.0, (1,): 2 / 3, (2,): 1 / 3}
    assert set(k3.coeffs) == set(expect)
    for k, c in expect.items():
        assert k3.coeffs[k] == pytest.approx(c, rel=1e-15)


def test_fejer_tensor_product_coefficients():
    k = fejer_kernel((2, 2))
    assert k.coeffs[(0, 0)] == 1.0
    assert k.coeffs[(1, 0)] == pytest.approx(0.5, rel=1e-15)
    assert k.coeffs[(1, 1)] == pytest.approx(0.25, rel=1e-15)
    assert k.degree == 1


def test_fejer_unit_mean_and_peak():
    for j in (1, 2, 5, 8):
        k = fejer_kernel((j,))
        # nonnegative kernel: the L1 norm is the mean, i.e. coefficient 0
        assert lp_norm(k, 1) == pytest.approx(1.0, abs=1e-12)
        assert lp_norm(k, math.inf) == pytest.approx(float(j), rel=1e-12)


def test_fejer_nonnegative_on_fine_grid():
    for j, d in ((4, 1), (3, 2)):
        k = fejer_kernel((j,) * d)
        n = 512 if d == 1 else 48
        axis = 2 * np.pi * np.arange(n) / n
        if d == 1:
            grid = axis.reshape(-1, 1)
        else:
            mesh = np.meshgrid(axis, axis, indexing="ij")
            grid = np.stack([g.ravel() for g in mesh], axis=1)
        vals = k.eval(grid)
        assert vals.real.min() >= -1e-12
        assert np.abs(vals.imag).max() <= 1e-12


# ----------------------------------------------------------------- blocks

def test_dyadic_block_cardinalities():
    assert dyadic_block(0, 1) == frozenset({(0,)})
    assert dyadic_block(1, 1) == frozenset({(-1,), (1,)})
    # block 2 in two dimensions: sup norm in {2, 3}, 7x7 minus 3x3
    assert len(dyadic_block(2, 2)) == 49 - 9
    # independent check: brute force over the enclosing square
    brute = {(a, b) for a in range(-3, 4) for b in range(-3, 4)
             if 2 <= max(abs(a), abs(b)) < 4}
    assert dyadic_block(2, 2) == frozenset(brute)


def test_blocks_partition_the_box():
    box = {(a,) for a in range(-7, 8)}
    union = set()
    for j in range(4):
        block = dyadic_block(j, 1)
        assert union.isdisjoint(block)
        union |= block
    assert union == box


# ------------------------------------------------------------------ system

def test_system_lexicographic_order():
    sys1 = TrigSystem(1, (1,))
    assert sys1.indices() == [(-1,), (0,), (1,)]
    sys2 = TrigSystem(2, (1, 1))
    assert sys2.indices()[:3] == [(-1, -1), (-1, 0), (-1, 1)]
    assert sys2.size == 9


def test_system_rejects_dimension_below_one():
    # as TrigPolynomial does; an empty box used to pass as a 0-d system
    for poly_or_system in (TrigPolynomial, TrigSystem):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            poly_or_system(0, ())


def test_system_index_roundtrip():
    system = TrigSystem(2, (2, 3))
    assert system.size == 5 * 7
    # column col holds k at the box position k + box, in row-major order
    for col, k in enumerate(system.indices()):
        assert np.ravel_multi_index(np.add(k, system.box), (5, 7)) == col


def test_system_evaluation_matches_member():
    system = TrigSystem(1, (3,))
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 2 * np.pi, size=(11, 1))
    mat = system.evaluate_at(x)
    for col, k in enumerate(system.indices()):
        np.testing.assert_allclose(mat[:, col], TrigPolynomial(1, {k: 1.0}).eval(x),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("box", [(0,), (1,), (10,), (31,), (2, 1), (3, 3),
                                 (1, 2, 1), (0, 3), (4, 0), (2, 0, 1)])
@pytest.mark.parametrize("chunk_entries", [_EVAL_CHUNK_ENTRIES, 200])
def test_evaluate_at_is_bitwise_the_direct_exponential(box, chunk_entries,
                                                       monkeypatch):
    # half the columns are filled by conjugation; every bit, the sign of a
    # zero imaginary part included, must equal the direct formula.  The
    # small chunk size makes m = 37 cross chunk boundaries (max(1, 200 // N)
    # rows each) without a matrix of millions of entries.
    monkeypatch.setattr(trig, "_EVAL_CHUNK_ENTRIES", chunk_entries)
    system = TrigSystem(len(box), box)
    K = np.array(system.indices(), dtype=float)
    chunk = max(1, chunk_entries // system.size)
    rng = np.random.default_rng(sum(box))
    for m in (0, 1, 37):
        x = rng.uniform(0, 2 * np.pi, size=(m, system.dim))
        x[:1] = 0.0  # phase exactly zero
        got = system.evaluate_at(x)
        # the former implementation: every entry exponentiated, in the
        # same row chunks (a matrix product of another shape may round
        # differently in d >= 2)
        want = np.empty((m, system.size), dtype=complex)
        for lo in range(0, m, chunk):
            want[lo:lo + chunk] = np.exp(1j * (x[lo:lo + chunk] @ K.T))
        assert (got == want).all()
        assert (got.view(np.uint64) == want.view(np.uint64)).all()
        if m <= chunk:
            assert (got == np.exp(1j * (x @ K.T))).all()



def _evaluate_at_reference(system, x):
    """evaluate_at as it was before it wrote its phases into its own
    result: a full-size phase array per chunk, then the k >= 0 half
    exponentiated from 1j * phase."""
    K = np.array(system.indices(), dtype=float)
    n, zero = system.size, system.size // 2
    out = np.empty((x.shape[0], n), dtype=complex)
    chunk = max(1, trig._EVAL_CHUNK_ENTRIES // n)
    for lo in range(0, x.shape[0], chunk):
        block = out[lo:lo + chunk]
        phase = x[lo:lo + chunk] @ K.T
        np.exp(1j * phase[:, zero:], out=block[:, zero:])
        mirror, left = block[:, :zero:-1], block[:, :zero]
        left.real = mirror.real
        np.subtract(0.0, mirror.imag, out=left.imag)
    return out


@pytest.mark.parametrize("block_entries", [1, 7, 64, trig._EXP_BLOCK_ENTRIES])
@pytest.mark.parametrize("chunk_entries", [_EVAL_CHUNK_ENTRIES, 500])
def test_evaluate_at_is_bitwise_the_reference(block_entries, chunk_entries,
                                              monkeypatch):
    # block entries 1 give one row per block, 7 and 64 partial last blocks
    # and many blocks per chunk; 500 chunk entries put several chunks in
    # every matrix, each with its phases in its own upper half
    monkeypatch.setattr(trig, "_EXP_BLOCK_ENTRIES", block_entries)
    monkeypatch.setattr(trig, "_EVAL_CHUNK_ENTRIES", chunk_entries)
    rng = np.random.default_rng(block_entries + chunk_entries)
    for box in [(0,), (1,), (5,), (31,), (0, 0), (2, 3), (3, 0), (0, 0, 0),
                (1, 2, 1), (2, 2, 2)]:
        system = TrigSystem(len(box), box)
        d = system.dim
        point_sets = [rng.uniform(0, 2 * np.pi, size=(m, d)) for m in (1, 2, 97)]
        point_sets += [300 * rng.standard_normal((41, d)),
                       uniform_grid_points(2 * max(box) + 1, d).points,
                       uniform_grid_points(7, d).points[::-1]]
        for x in point_sets:
            got = system.evaluate_at(x)
            want = _evaluate_at_reference(system, x)
            assert got.shape == want.shape
            assert (got.view(np.uint64) == want.view(np.uint64)).all()


def test_evaluate_at_allocates_only_its_result():
    # the largest default rate-sweep cell: m = 14,183 points of N = 63
    # columns, a 14.3 MB result; the phase array and 1j * phase beside
    # it once took 14.5 MB more
    system = TrigSystem(1, (31,))
    x = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(14_183, 1))
    tracemalloc.start()
    try:
        result = system.evaluate_at(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= result.nbytes + 2 ** 20

# ------------------------------------------------------------------- norms

def test_quadrature_grid_size_frozen():
    assert quadrature_grid_size(4, 2, 8) == 41
    assert quadrature_grid_size(8, 4, 2) == 33
    assert quadrature_grid_size(0, math.inf, 8) == 9


def test_parseval_identity_random_polynomials():
    rng = np.random.default_rng(4)
    for _ in range(60):
        f = _random_poly(rng, 1, int(rng.integers(1, 17)))
        assert lp_norm(f, 2) == pytest.approx(f.l2_norm(), rel=1e-12)
    for _ in range(15):
        f = _random_poly(rng, 2, int(rng.integers(1, 6)))
        assert lp_norm(f, 2) == pytest.approx(f.l2_norm(), rel=1e-12)


def test_l4_norm_against_parseval_oracle():
    # ||f||_4^4 = || f * conj(f) ||_2^2, computable exactly from coefficients
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = _random_poly(rng, 1, int(rng.integers(1, 9)))
        oracle = math.sqrt(multiply(f, _conj(f)).l2_norm())
        assert lp_norm(f, 4) == pytest.approx(oracle, rel=1e-11)


def test_sup_norm_is_a_lower_estimate():
    rng = np.random.default_rng(6)
    f = _random_poly(rng, 1, 6)
    # the finer grid holds every point of the quadrature grid
    n = quadrature_grid_size(f.degree, math.inf, trig.OVERSAMPLE)
    fine = float(np.abs(f.eval(_tensor_grid(8 * n, 1))).max())
    assert lp_norm(f, math.inf) <= fine * (1 + 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tensor_grid_is_bitwise_the_meshgrid(d):
    # make_fooling's x_star and criteria 1 and 7 rest on these exact
    # floats: the stacked meshgrid of one axis per dimension
    for n in (1, 5, 8):
        axis = 2 * np.pi * np.arange(n) / n
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        expect = np.stack([g.ravel() for g in mesh], axis=1)
        got = _tensor_grid(n, d)
        assert got.shape == expect.shape == (n ** d, d)
        assert got.tobytes() == expect.tobytes()
        assert uniform_grid_points(n, d).points.tobytes() == expect.tobytes()


def test_lp_norm_monotone_in_p():
    rng = np.random.default_rng(7)
    f = _random_poly(rng, 1, 5)
    n2, n4, n6 = (lp_norm(f, p) for p in (2, 4, 6))
    assert n2 <= n4 * (1 + 1e-12) <= n6 * (1 + 1e-12) ** 2


def test_lp_norm_validation():
    f = TrigPolynomial(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)
    with pytest.raises(ValueError, match="empty point set"):
        lp_norms(f, (2,), samples=np.zeros(0, dtype=complex))


def test_discrete_and_mixture_measures():
    pts = np.array([[0.0], [np.pi / 2]])
    f = TrigPolynomial(1, {(1,): 1.0})
    # |f| = 1 everywhere, so both measures agree
    for samples in (None, f.eval(pts)):
        assert lp_norms(f, (4,), samples)[0] == pytest.approx(1.0, rel=1e-12)
    g = TrigPolynomial(1, {(0,): 1.0, (1,): 1.0})
    vals = np.abs(g.eval(pts))
    expect_m = float(np.mean(vals ** 2) ** 0.5)
    mix = math.sqrt(0.5 * (g.l2_norm() ** 2 + expect_m ** 2))
    assert lp_norms(g, (2,), g.eval(pts))[0] == pytest.approx(mix, rel=1e-12)


def test_mixture_norms_are_bitwise_the_inline_formula():
    rng = np.random.default_rng(12)
    ps = (1, 2, 3, 4, math.inf)
    for d in (1, 2):
        f = _random_poly(rng, d, 3)
        samples = f.eval(rng.uniform(0, 2 * np.pi, (17, d)))
        sample_abs = np.abs(samples)
        for p, got in zip(ps, lp_norms(f, ps, samples=samples)):
            n = quadrature_grid_size(f.degree, p, trig.OVERSAMPLE)
            grid_abs = np.abs(trig._grid_values(f._box, f._lo, n))
            if p == math.inf:
                expect = float(max(grid_abs.max(), sample_abs.max()))
            else:
                val = 0.5 * (np.mean(grid_abs ** p) + np.mean(sample_abs ** p))
                expect = float(val ** (1.0 / p))
            assert got.hex() == expect.hex(), (d, p)


# --------------------------------------------------------------- box split

def _box_split_cases(rng):
    """(polynomial, system) pairs in d = 1-3 whose boxes lie inside,
    straddle or miss the system's box, with exact zeros among the
    coefficients and their parts, and the zero polynomial."""
    for dim in (1, 2, 3):
        for _ in range(60):
            system = TrigSystem(dim, tuple(rng.integers(0, 4, dim).tolist()))
            b = np.array(system.box)
            yield TrigPolynomial(dim), system
            lo = rng.integers(-b, b + 1)
            yield _coefficient_box(rng, lo, rng.integers(1, b - lo + 2)), system
            lo = rng.integers(-b - 3, b + 1)
            yield _coefficient_box(rng, lo, rng.integers(1, 2 * b + 8)), system
            axis, shape, gap = rng.integers(dim), rng.integers(1, 5, dim), rng.integers(3)
            lo[axis] = (b[axis] + 1 + gap if rng.random() < 0.5
                        else -b[axis] - shape[axis] - gap)
            yield _coefficient_box(rng, lo, shape), system


def _coefficient_box(rng, lo, shape):
    """A random polynomial on the box of the given shape from corner lo,
    some real or imaginary parts and some coefficients exactly zero."""
    parts = rng.standard_normal((*shape, 2))
    parts[rng.random(parts.shape) < 0.2] = 0.0
    parts[rng.random(tuple(shape)) < 0.3] = 0.0
    return TrigPolynomial._from_box(len(lo), lo, parts[..., 0] + 1j * parts[..., 1])


def test_box_split_rest_is_bitwise_the_polynomial_difference():
    # the terms outside the system's box were once found as the difference
    # of f0 and the full-box polynomial of its coefficients inside it
    counts = {"inside": 0, "straddle": 0, "outside": 0}
    for f0, system in _box_split_cases(np.random.default_rng(41)):
        a, rest = trig._box_coefficients(f0, system)
        want = f0 - reconstruct(system, range(system.size), a)
        assert rest._lo.dtype == want._lo.dtype and np.array_equal(rest._lo, want._lo)
        assert rest._box.shape == want._box.shape
        assert np.array_equal(rest._box.view(np.uint64), want._box.view(np.uint64))
        if f0._box.size:
            b = np.array(system.box)
            hi = f0._lo + f0._box.shape - 1
            counts["inside" if (f0._lo >= -b).all() and (hi <= b).all() else
                   "outside" if ((hi < -b) | (f0._lo > b)).any() else "straddle"] += 1
    assert min(counts.values()) >= 100, counts


# --------------------------------------------------------------------- io

def test_polynomial_io_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    f = _random_poly(rng, 2, 3)
    path = tmp_path / "poly.txt"
    write_polynomial(f, path, header_lines=["note one", "note two"])
    assert path.read_text().splitlines()[:3] == ["# note one", "# note two", "dim 2"]
    rows = np.loadtxt(path, comments=("#", "dim"), ndmin=2)
    assert rows.shape == (len(f.coeffs), f.dim + 2)
    back = {tuple(map(int, row[:-2])): complex(*row[-2:]) for row in rows}
    assert back == f.coeffs  # %.17g is lossless for doubles
