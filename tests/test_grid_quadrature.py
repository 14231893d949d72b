"""The dense coefficient box, the sum-factorised grid kernel, the dense
product and the shared norms.

The dense-box `TrigPolynomial` is checked bit for bit against the dict
implementation it replaced, the sum-factorised kernel `_grid_values`, on
one polynomial and on a batch of null vectors, against direct evaluation
on the same tensor grid, `multiply` against the dict convolution before
it, and the norms `make_fooling` and `lp_norms` take from one grid
evaluation against `lp_norm` bit for bit.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womplab import trig
from womplab.discretization import draw_points
from womplab.recovery import make_fooling
from womplab.trig import (TrigPolynomial, TrigSystem, _grid_values, _tensor_grid,
                          fejer_kernel, lp_norm, lp_norms, multiply)

ROOT = Path(__file__).resolve().parents[1]


def multiply_dict(f: TrigPolynomial, g: TrigPolynomial) -> TrigPolynomial:
    """The former `multiply`: a double loop over the two coefficient maps."""
    out = {}
    for kf, cf in f.coeffs.items():
        for kg, cg in g.coeffs.items():
            k = tuple(a + b for a, b in zip(kf, kg))
            out[k] = out.get(k, 0) + cf * cg
    return TrigPolynomial(f.dim, {k: c for k, c in out.items() if c != 0})


@st.composite
def sparse_maps(draw, dim=None):
    """The (dim, coefficient map) of a sparse polynomial: up to 12
    frequencies in an offset window that may lie on either side of 0,
    random complex coefficients, sometimes none at all."""
    d = dim if dim is not None else draw(st.sampled_from([1, 2, 3]))
    terms = draw(st.integers(0, 12))
    offset = [draw(st.integers(-9, 9)) for _ in range(d)]
    width = [draw(st.integers(0, 6)) for _ in range(d)]
    keys = {tuple(o + draw(st.integers(0, w)) for o, w in zip(offset, width))
            for _ in range(terms)}
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeff = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return d, dict(zip(sorted(keys), coeff))


def sparse_polys(dim=None):
    """sparse_maps as polynomials."""
    return sparse_maps(dim).map(lambda dim_map: TrigPolynomial(*dim_map))


class DictPolynomial:
    """The former `TrigPolynomial`, the oracle of the dense box: a dict from
    frequency tuples to complex coefficients, kept in insertion order, with
    its drop rule |c| < 1e-14 changed to exact zeros."""

    def __init__(self, dim, coeffs):
        clean = {}
        for k, c in coeffs.items():
            key = tuple(map(int, k))
            c = complex(c)
            if c != 0:
                clean[key] = clean.get(key, 0) + c
        self.dim, self.coeffs = dim, clean

    @property
    def degree(self):
        if not self.coeffs:
            return 0
        keys = np.array(list(self.coeffs))
        return max(int(keys.max()), -int(keys.min()))

    def eval(self, points):
        out = np.zeros(points.shape[0], dtype=complex)
        if not self.coeffs:
            return out
        keys = sorted(self.coeffs)
        K = np.array(keys, dtype=float)
        c = np.array([self.coeffs[k] for k in keys])
        out[:] = np.exp(1j * (points @ K.T)) @ c
        return out

    def l2_norm(self):
        if not self.coeffs:
            return 0.0
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values())))

    def translate(self, shift):
        return DictPolynomial(self.dim, {k: c * np.exp(-1j * float(np.dot(k, shift)))
                                         for k, c in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return DictPolynomial(self.dim, {k: c for k, c in out.items() if c != 0})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DictPolynomial(self.dim, {k: -c for k, c in self.coeffs.items()})

    def _dense(self):
        keys = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, self.dim)
        lo = keys.min(axis=0)
        dense = np.zeros(tuple(keys.max(axis=0) - lo + 1), dtype=complex)
        dense[tuple((keys - lo).T)] = list(self.coeffs.values())
        return dense, lo

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return DictPolynomial(self.dim, {})
        a, alo = self._dense()
        b, blo = other._dense()
        out = np.zeros(tuple(np.add(a.shape, b.shape) - 1), dtype=complex)
        for k in np.argwhere(b):
            out[tuple(slice(s, s + w) for s, w in zip(k, a.shape))] += b[tuple(k)] * a
        keep = np.argwhere(out != 0)
        return DictPolynomial(self.dim, dict(zip(map(tuple, (keep + alo + blo).tolist()),
                                                 out[tuple(keep.T)].tolist())))


def sorted_terms(poly):
    """The oracle's map in lexicographic order, the dense box's order."""
    return DictPolynomial(poly.dim, dict(sorted(poly.coeffs.items())))


def bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def assert_same_terms(got, expect):
    # the same frequencies in lexicographic order, and every bit of every
    # coefficient, the sign of a zero part included
    assert list(got.coeffs) == sorted(expect.coeffs)
    assert np.array_equal(bits(list(got.coeffs.values())),
                          bits(list(sorted_terms(expect).coeffs.values())))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.tuples(sparse_maps(d), sparse_maps(d))), st.integers(0, 2 ** 32 - 1))
def test_dense_box_matches_the_dict_polynomial(pair, seed):
    (d, fmap), (_, gmap) = pair
    f, g = TrigPolynomial(d, fmap), TrigPolynomial(d, gmap)
    F, G = DictPolynomial(d, fmap), DictPolynomial(d, gmap)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-7.0, 7.0, size=(9, d))
    pts[0] = 0.0
    for got, expect in ((f, F), (g, G), (f + g, F + G), (f - g, F - G), (-f, -F),
                        (f * g, F * G), (f - f, F - F), (f * (g - g), F * (G - G))):
        assert_same_terms(got, expect)
        assert got.degree == expect.degree
        assert np.array_equal(bits(got.eval(pts)), bits(expect.eval(pts)))
        # both sum the squares one term at a time; the dense box in
        # lexicographic order, the dict in insertion order
        assert got.l2_norm().hex() == sorted_terms(expect).l2_norm().hex()
    shift = rng.uniform(-2 * np.pi, 2 * np.pi, d)
    got, expect = f.translate(shift), F.translate(shift)
    if d == 1:
        assert_same_terms(got, expect)
        return
    # in d >= 2 the former phase <k, shift> was one BLAS dot per term, which
    # may fuse its multiply-adds, the box's one matrix-vector product for all
    # terms: each phase is within gamma_d sum_i |k_i shift_i| of exact, exp
    # within 8 u per value and the product by c within sqrt(2) gamma_2 |c|,
    # so the two coefficients differ by at most
    # 2 |c| (gamma_d sum_i |k_i shift_i| + 8 u + sqrt(2) gamma_2)
    assert list(got.coeffs) == sorted(expect.coeffs)
    u = np.finfo(float).eps / 2
    for k, c in expect.coeffs.items():
        phase_err = d * u / (1 - d * u) * float(np.abs(np.multiply(k, shift)).sum())
        bound = 2 * abs(c) * (phase_err + 8 * u + math.sqrt(2) * 2 * u / (1 - 2 * u))
        assert abs(got.coeffs[k] - c) <= bound


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_polys(), st.integers(1, 24))
def test_grid_values_match_direct_evaluation(poly, n):
    # n may be smaller than the support's width: the table then folds
    # frequencies mod n, as the exponentials themselves do on that grid
    got = _grid_values(poly._box, poly._lo, n)
    expect = poly.eval(_tensor_grid(n, poly.dim))
    assert got.shape == expect.shape == (n ** poly.dim,)
    scale = sum(abs(c) for c in poly.coeffs.values())
    assert np.all(np.abs(got - expect) <= 1e-12 * max(scale, 1e-300))


def test_grid_values_edge_cases():
    zero = TrigPolynomial(2, {})
    assert np.array_equal(_grid_values(zero._box, zero._lo, 5), np.zeros(25, dtype=complex))
    f = TrigPolynomial(3, {(-4, 2, 7): 2.0 - 1.0j, (1, -3, 0): 0.5j})
    assert _grid_values(f._box, f._lo, 1) == pytest.approx([2.0 - 0.5j], abs=1e-15)
    # row order: the last axis runs fastest, as in _tensor_grid
    g = TrigPolynomial(2, {(0, 1): 1.0})
    vals = _grid_values(g._box, g._lo, 4).reshape(4, 4)
    assert np.allclose(vals, np.tile(np.exp(2j * np.pi * np.arange(4) / 4), (4, 1)),
                       atol=1e-15)
    # even n with a batch: row t = n / 2 is its own mirror, on boxes centred
    # on 0 and off centre (padded to -h .. h)
    rng = np.random.default_rng(8)
    for n, lo, shape in ((2, (-1,), (3,)), (4, (-2, -1), (5, 3)), (2, (1, -3), (2, 3)),
                         (4, (-4,), (3,))):
        batch = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
        keys = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=-1)
        expect = np.exp(1j * (_tensor_grid(n, len(lo)) @ (keys + lo).T))
        if lo == tuple(-(w // 2) for w in shape):
            expect = TrigSystem(len(lo), [w // 2 for w in shape]).evaluate_at(
                _tensor_grid(n, len(lo)))
        expect = expect @ batch.reshape(3, -1).T
        got = _grid_values(batch, lo, n)
        assert got.shape == expect.shape == (n ** len(lo), 3)
        scale = np.abs(batch).reshape(3, -1).sum(axis=1)
        assert np.all(np.abs(got - expect) <= 1e-14 * scale)


def batch_entry_bound(box, n, batch):
    """Per column c of batch (coefficients on the box system), a bound on
    |_grid_values - evaluate_at(grid) @ c| at any point of the grid
    {2 pi t / n}^d, both within it of sum_k c_k exp(2 pi i <k, t> / n).

    With u = 2^-53, gamma_k = k u / (1 - k u), B = sum(box), X = 2 pi:
    - evaluate_at: the grid coordinate 2 pi t / n is off by gamma_3 X, the
      phase <k, x> adds gamma_d B X, and exp adds at most 8 u, so each
      entry is within (gamma_3 + gamma_d) B X + 8 u; the product with c
      adds (sqrt(2) gamma_2 + gamma_2N) |c|_1, N the number of columns;
    - _grid_values: a table's phase 2 pi r / n, r the signed residue of
      t k mod n (|r| <= n / 2, so the phase is at most pi), takes a product
      and a quotient, gamma_3 pi, and exp 8 u, so a product of d table
      entries is within d (gamma_3 pi + 8 u); each axis of the sum
      factorisation, summed on its half table of the real and imaginary
      parts of the roots for k = 0 .. b, b its box order, adds
      sqrt(2) (u + gamma_(2b+1)) |c|_1: the pair sums c_k +- c_-k, then
      real dot products of length at most 2b + 1.  The batches here keep
      half tables; a split axis would add a second table entry and a
      second sum.
    The factor 2 absorbs the second-order terms.
    """
    u = np.finfo(float).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    d, widths, x = len(box), [2 * b + 1 for b in box], 2 * np.pi
    entry = (gamma(3) + gamma(d)) * sum(box) * x + (d + 1) * 8 * u + d * gamma(3) * np.pi
    sums = math.sqrt(2) * gamma(2) + gamma(2 * math.prod(widths))
    sums += sum(math.sqrt(2) * (u + gamma(2 * b + 1)) for b in box)
    return 2 * (entry + sums) * np.abs(batch).sum(axis=0)


@pytest.mark.parametrize("box, m, seed", [
    ((6,), 0, 0), ((6,), 5, 1), ((40,), 20, 2),
    ((3, 2), 0, 0), ((3, 2), 7, 3), ((4, 4), 20, 4), ((2, 5), 10, 5),
    ((96,), 48, 6), ((2, 1, 3), 30, 7), ((200,), 100, 8)])
def test_batched_grid_values_match_the_evaluation_matrix(box, m, seed):
    # the batch make_fooling passes: a null basis of the box system at m
    # points (every column at m = 0), on its oversampled grid; box 96 is
    # the adversary workload's widest, and box 200 a wider half table
    system = TrigSystem(len(box), box)
    if m:
        pts = draw_points(m, len(box), seed).points
        batch = np.linalg.svd(system.evaluate_at(pts))[2][m:].conj().T
    else:
        batch = np.eye(system.size, dtype=complex)
    n = 8 * (max(box) + 1) + 1
    lo = tuple(-b for b in box)
    got = _grid_values(batch.T.reshape(-1, *(2 * b + 1 for b in box)), lo, n)
    *_, shape, k1s = next(reversed(trig._tables.kept))  # the tables it read
    assert k1s == shape  # are full
    expect = system.evaluate_at(_tensor_grid(n, len(box))) @ batch
    assert got.shape == expect.shape == (n ** len(box), system.size - m)
    assert np.all(np.abs(got - expect) <= batch_entry_bound(box, n, batch))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.tuples(sparse_polys(d), sparse_polys(d))))
def test_multiply_matches_dict_convolution(pair):
    f, g = pair
    got, expect = multiply(f, g), multiply_dict(f, g)
    assert got.dim == expect.dim
    assert sorted(got.coeffs) == sorted(expect.coeffs)
    for k, c in expect.coeffs.items():
        assert abs(got.coeffs[k] - c) <= 1e-13


def test_multiply_drops_exact_cancellation():
    # (1 + e^{ix})(1 - e^{ix}) = 1 - e^{2ix}: the k = 1 terms cancel exactly
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 1.0})
    g = TrigPolynomial(1, {(0,): 1.0, (1,): -1.0})
    assert multiply(f, g).coeffs == multiply_dict(f, g).coeffs == {(0,): 1.0, (2,): -1.0}
    assert multiply(f, TrigPolynomial(1, {})).coeffs == {}
    # only exact zeros drop: a tiny monomial times 1, or plus itself, stays
    tiny = TrigPolynomial(1, {(3,): 1e-15})
    assert multiply(tiny, TrigPolynomial(1, {(0,): 1.0})).coeffs == {(3,): 1e-15}
    assert (tiny + tiny).coeffs == {(3,): 2e-15}


def test_multiply_fooling_shape_matches_dict_convolution():
    # the product make_fooling forms: a full box polynomial times a
    # translated Fejer kernel, in d = 1 and d = 2
    rng = np.random.default_rng(3)
    for box in ((32,), (4, 4)):
        g = TrigPolynomial(len(box), {k: complex(*rng.standard_normal(2))
                                      for k in TrigSystem(len(box), box).indices()})
        kernel = fejer_kernel(box).translate(rng.uniform(0, 2 * np.pi, len(box)))
        got, expect = multiply(g, kernel), multiply_dict(g, kernel)
        assert sorted(got.coeffs) == sorted(expect.coeffs)
        for k, c in expect.coeffs.items():
            assert abs(got.coeffs[k] - c) <= 1e-13


@pytest.mark.parametrize("box, m, seed", [((8,), 4, 1), ((16,), 8, 2),
                                          ((3, 2), 8, 3), ((1,), 1, 4)])
def test_make_fooling_norms_are_bitwise_lp_norm(box, m, seed):
    xi = draw_points(m, len(box), seed)
    inst = make_fooling(xi, box)
    assert inst.norm_q == lp_norm(inst.f, inst.q)
    assert inst.norm_p == lp_norm(inst.f, inst.p)
    assert inst.sup_grid == lp_norm(inst.f, math.inf)


def test_lp_norms_are_bitwise_lp_norm():
    rng = np.random.default_rng(11)
    f = TrigPolynomial(2, {(i, j): complex(*rng.standard_normal(2))
                           for i in range(-3, 2) for j in range(0, 4)})
    # on this degree-3 polynomial the p = 12 grid is finer than the p = 2 one
    ps = (2.0, 12, math.inf, 1.5, 4)
    assert lp_norms(f, ps) == tuple(lp_norm(f, p) for p in ps)
    assert lp_norms(TrigPolynomial(1, {}), (2, math.inf)) == (0.0, 0.0)
    with pytest.raises(ValueError):
        lp_norms(f, (2, 0.5))


def test_import_leaves_scipy_signal_unloaded():
    # the library is numpy only: scipy.signal takes about 0.8 s to import
    # and scipy.linalg about 0.2 s, so no scipy module may load at all
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, womplab; print(sorted(name for name in sys.modules "
            "if name == 'scipy' or name.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
