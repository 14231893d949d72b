"""Both routes of the weak greedy (Gram space on a sampled system's moment
table, and its fallback, a project() call after every pick) against the
reference loop that re-solves the least-squares problem from scratch at
every step, and against each other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womplab.classes import ClassSpec, default_truncation_level, \
    sample_class_function
from womplab.discretization import PointSet, SampledSystem, _entry_bound, \
    build_sampled, draw_points
from womplab.experiments import default_config, schedule_m
from womplab import greedy
from womplab.greedy import STOP_REL_TOL, project, womp
from womplab.recovery import sample_target
from womplab.trig import TrigPolynomial, TrigSystem


def womp_lstsq(h, target, t=1.0, steps=None, selection="argmax"):
    """Reference greedy: the same selection rule, with project() (a fresh
    lstsq) after every step and once more for the final coefficients.
    Returns the fields of a WompTrace as a dict."""
    if steps is None:
        steps = min(h.m, h.size)
    target = np.asarray(target, dtype=complex)
    col_norms = np.linalg.norm(h._matrix, axis=0) / math.sqrt(h.m)
    normalized = h._matrix / col_norms
    norm0 = h.norm(target)
    residual = target.copy()
    selected, res_norms, chosen_ips, max_ips = [], [norm0], [], []
    rank_flag = False
    for _ in range(steps):
        ips = normalized.conj().T @ residual / h.m
        abs_ips = np.abs(ips)
        max_ip = float(abs_ips.max())
        if max_ip <= STOP_REL_TOL * norm0:
            break
        if selection == "argmax":
            pick = int(np.argmax(abs_ips))
        else:
            pick = int(np.argmax(abs_ips >= t * max_ip))
        selected.append(pick)
        proj = project(h, target, selected)
        residual = proj.residual
        rank_flag = rank_flag or proj.rank_deficient
        res_norms.append(h.norm(residual))
        chosen_ips.append(float(abs_ips[pick]))
        max_ips.append(max_ip)
    final = project(h, target, selected)
    return dict(selected=tuple(selected), residual_norms=res_norms,
                coefficients=final.coefficients, chosen_ips=chosen_ips,
                max_ips=max_ips,
                rank_deficient=rank_flag or final.rank_deficient)


def womp_fallback(h, target, t=1.0, steps=None, selection="argmax"):
    """womp's least-squares route, which womp runs only where the Gram
    route refuses."""
    steps = min(h.m, h.size) if steps is None else steps
    weak = t if selection == "adversarial-weak" else 1.0
    return greedy._womp_lstsq(h, np.asarray(target, dtype=complex), t, steps, weak)


def assert_matches_oracle(h, y, run=womp, **kwargs):
    want = womp_lstsq(h, y, **kwargs)
    got = run(h, y, **kwargs)
    assert got.selected == want["selected"]
    assert got.rank_deficient == want["rank_deficient"]
    # relative to the target norm: a residual at roundoff level has no
    # relative accuracy of its own
    scale = max(want["residual_norms"][0], 1e-300)
    for field in ("residual_norms", "chosen_ips", "max_ips"):
        np.testing.assert_allclose(getattr(got, field), want[field],
                                   rtol=1e-10, atol=1e-10 * scale)
    coeff_scale = max(1.0, float(np.abs(want["coefficients"]).max(initial=0)))
    np.testing.assert_allclose(got.coefficients, want["coefficients"],
                               rtol=1e-9, atol=1e-9 * coeff_scale)
    return got


@st.composite
def greedy_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    box = tuple(draw(st.integers(0, 4)) for _ in range(d))
    system = TrigSystem(d, box)
    m = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    sampled = build_sampled(system, draw_points(m, d, seed))
    if draw(st.booleans()):
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    else:
        terms = draw(st.integers(1, system.size))
        cols = rng.choice(system.size, size=terms, replace=False)
        coeff = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
        indices = system.indices()
        f0 = TrigPolynomial(d, {indices[c]: w for c, w in zip(cols, coeff)})
        y = sample_target(f0, sampled)
    # At t of order 1e-15 the weak rule can take a column whose inner
    # product is pure roundoff (the oracle even a selected one, which womp
    # excludes), and at step m the one-dimensional residual ties the
    # frequencies k and -k exactly (the node polynomial prod (z - exp(i x_j))
    # is self-inversive); such picks are decided by roundoff in either
    # implementation.
    t = draw(st.floats(1e-6, 1.0))
    selection = draw(st.sampled_from(["argmax", "adversarial-weak"]))
    steps = draw(st.integers(0, min(m - 1, system.size)))
    return sampled, y, dict(t=t, steps=steps, selection=selection)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(greedy_cases())
def test_womp_matches_lstsq_reference(case):
    h, y, kwargs = case
    assert_matches_oracle(h, y, **kwargs)
    got = assert_matches_oracle(h, y, run=womp_fallback, **kwargs)
    # the fallback's numbers are project()'s on each prefix, bit for bit
    for k in range(got.steps + 1):
        proj = project(h, y, got.selected[:k])
        assert_bitwise(got.residual_norms[k], h.norm(proj.residual))
    assert_bitwise(got.coefficients, proj.coefficients)


def test_womp_matches_reference_at_largest_sweep_cell():
    # the default rate sweep's largest cell: v = 8, m = 14,183, N = 63
    sec = default_config()["rate-sweep"]
    v = 8
    J = default_truncation_level(v)
    system = TrigSystem(1, (2 ** J - 1,))
    m = schedule_m(v, sec["a"])
    assert (m, system.size) == (14_183, 63)
    seed = 100_003 * v
    sampled = build_sampled(system, draw_points(m, 1, seed))
    f0 = sample_class_function(ClassSpec(sec["r"], sec["beta"], J),
                               sec["profile"], seed, dim=1)
    steps = int(math.ceil(sec["c_emp"] * v))
    y = sample_target(f0, sampled)
    got = assert_matches_oracle(sampled, y, steps=steps)
    assert got.steps == steps and not got.rank_deficient
    # womp runs in Gram space, and this cell must not fall back to the
    # least-squares route
    gram = greedy._womp_gram(sampled, y, 1.0, steps, 1.0)
    assert gram is not None
    assert_same_trace(gram, got)


def test_rank_deficient_run_returns_project_coefficients():
    # two of three points 16 ulps apart: columns 0, 1, 2 of box 300, z^-300
    # times (1, z, z^2), have a smallest singular value of about 2e-16,
    # below lstsq's rank cutoff 3 eps sigma_max = 1.6e-15, while the high
    # frequencies still resolve the pair, so the largest inner product at
    # step 3 clears the stopping tolerance and the weak rule at t = 1e-25
    # takes column 2.  The Gram route refuses the run.
    x = np.array([1.0, 1.0 + 16 * np.spacing(1.0), 3.0])
    h = build_sampled(TrigSystem(1, (300,)), PointSet(1, x[:, None]))
    rng = np.random.default_rng(0)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert greedy._womp_gram(h, y, 1e-25, 3, 1e-25) is None
    got = womp(h, y, t=1e-25, selection="adversarial-weak")
    assert got.selected == (0, 1, 2)
    assert got.rank_deficient
    ref = project(h, y, [0, 1, 2])
    assert ref.rank_deficient
    np.testing.assert_array_equal(got.coefficients, ref.coefficients)
    # the dependent column leaves the span, and so the residual, unchanged
    assert got.residual_norms[3] == got.residual_norms[2]


def test_nearly_parallel_columns_keep_the_residual_norms_accurate():
    # 60 points in an arc of width 0.2 make the six selected columns of
    # box 3 nearly parallel (condition ~5e7), and the Gram route hands the
    # run to the least-squares route.  The residual vectors, and with them
    # the inner products, are determined only to ~eps * cond here, so only
    # selection and norms are compared.
    m = 60
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = 1.0 + 0.2 * rng.uniform(0, 1, m)
        h = build_sampled(TrigSystem(1, (3,)), PointSet(1, x[:, None]))
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert greedy._womp_gram(h, y, 1.0, 6, 1.0) is None
        want = womp_lstsq(h, y, steps=6)
        got = womp(h, y, steps=6)
        assert got.selected == want["selected"]
        assert not got.rank_deficient
        np.testing.assert_allclose(got.residual_norms, want["residual_norms"],
                                   rtol=0, atol=1e-10 * want["residual_norms"][0])


def assert_bitwise(got, want):
    a, b = np.asarray(got), np.asarray(want)
    assert a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_same_trace(got, want):
    """Every field of two traces equal, the floats bit for bit."""
    assert got.selected == want.selected
    assert got.rank_deficient == want.rank_deficient
    for field in ("residual_norms", "chosen_ips", "max_ips", "coefficients"):
        assert_bitwise(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("box", [(0,), (1,), (6,), (2, 3), (0, 2), (3, 0),
                                 (1, 2, 1), (2, 0, 1)])
def test_moment_table_entries_match_the_product_gram(box):
    # every entry of A^H A / m that the table gives is within the per-entry
    # bound g of the exact one, and so is h.gram's: they differ by <= 2 g
    d = len(box)
    system = TrigSystem(d, box)
    for m, seed in ((1, 0), (7, 1), (300, 2)):
        h = build_sampled(system, draw_points(m, d, seed))
        row = h.moments()
        rows = np.array([row(p) for p in range(system.size)])
        assert np.abs(rows / m - h.gram).max() <= 2 * _entry_bound(h)
        assert np.all(np.diagonal(rows) == m)  # g(0) = 1 exactly


def coefficient_gap_bound(h, y, selected):
    """Bound on the gap between the two routes' coefficients for the
    selected columns A_S, with n = |S|, M = A_S^H A_S and lam a lower bound
    on lambda_min(M) from h.gram (entries within g, so M's eigenvalues
    within m n g).  _womp_gram's docstring puts its coefficients within
    2 (phi |c| + |d(A^H y)|) / mu of the exact c, with 1 / mu = |W|_F^2
    <= n / lambda_min(R^H R) <= 2 n / lam, phi = n m (g + 4 gamma_(n+1)
    kappa), kappa = sqrt(n m) |W|_F <= n sqrt(2 m / lam) and |d(A^H y)| <=
    sqrt(n m) gamma_m |y|.  lstsq is backward stable, so its gap to
    c is at most kappa(A_S) eps |c| + kappa(A_S)^2 eps |r| / |A_S| with
    eps of the order of m n e; with kappa(A_S)^2 <= n m / lam and
    g >= 2 m e both terms fall under the Gram route's bound.  So twice
    that bound covers the gap; inf where lam <= 0."""
    e = np.finfo(float).eps / 2
    n, m = len(selected), h.m
    if n == 0:
        return 0.0
    g = _entry_bound(h)
    lam = m * (np.linalg.eigvalsh(h.gram[np.ix_(selected, selected)])[0] - n * g)
    if not lam > 0:
        return math.inf
    gamma = (n + 1) * e / (1 - (n + 1) * e)
    phi = n * m * (g + 4 * gamma * n * math.sqrt(2 * m / lam))
    c = project(h, y, selected).coefficients
    d_rhs = math.sqrt(n * m) * m * e / (1 - m * e) * np.linalg.norm(y)
    return 2 * 4 * n * (phi * np.linalg.norm(c) + d_rhs) / lam


@settings(max_examples=300, deadline=None, derandomize=True)
@given(greedy_cases())
def test_gram_route_matches_lstsq_route(case):
    h, y, kwargs = case
    weak = kwargs["t"] if kwargs["selection"] == "adversarial-weak" else 1.0
    gram = greedy._womp_gram(h, y, kwargs["t"], kwargs["steps"], weak)
    lsq = womp_fallback(h, y, **kwargs)
    got = womp(h, y, **kwargs)
    if gram is None:  # fell back: womp is the least-squares route, bit for bit
        assert_same_trace(got, lsq)
        return
    assert_same_trace(got, gram)
    assert gram.selected == lsq.selected
    assert not gram.rank_deficient and not lsq.rank_deficient
    gap = coefficient_gap_bound(h, y, list(gram.selected))
    assert np.abs(gram.coefficients - lsq.coefficients).max(initial=0) <= gap
    # residual norms |y - A_S c| / sqrt(m) of each prefix: the coefficient
    # gap times |A_S| <= sqrt(n m), plus the rounding of two residuals
    e = np.finfo(float).eps / 2
    for k in range(1, gram.steps + 1):
        prefix = list(gram.selected[:k])
        c = project(h, y, prefix).coefficients
        slack = (math.sqrt(k * h.m) * coefficient_gap_bound(h, y, prefix)
                 + 4 * h.m * e * (np.linalg.norm(y) + math.sqrt(k * h.m) * np.linalg.norm(c)))
        assert abs(gram.residual_norms[k] - lsq.residual_norms[k]) <= slack / math.sqrt(h.m)


@pytest.mark.parametrize("selection", ["argmax", "adversarial-weak"])
@pytest.mark.parametrize("gap", [1e-9, 1e-7])
def test_near_coincident_points_fall_back_to_the_lstsq_route_bit_for_bit(selection, gap):
    # pairs of points gap apart leave the later columns an orthogonal part of
    # about gap times their norm: lstsq resolves it (no rank deficiency), the
    # Cholesky factor cannot, so the Gram route hands the run over; at 1e-9
    # the pivot rounds to <= 0, at 1e-7 it stays positive and the bound on
    # 1 / |W|_F^2 decides
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 2 * np.pi, 4)
    pts = PointSet(1, np.concatenate([x, x[:2] + gap])[:, None])
    h = build_sampled(TrigSystem(1, (3,)), pts)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert greedy._womp_gram(h, y, 1e-3, 6, 1e-3 if selection != "argmax" else 1.0) is None
    got = womp(h, y, t=1e-3, selection=selection)
    assert got.steps > 4 and not got.rank_deficient
    assert_same_trace(got, womp_fallback(h, y, t=1e-3, selection=selection))


def test_zero_data_builds_no_moment_table(monkeypatch):
    # the adversary's recovery map sees all-zero samples: the run stops
    # before its first pick, so the table is never built
    h = build_sampled(TrigSystem(2, (3, 3)), draw_points(40, 2, 0))
    built = []
    monkeypatch.setattr(SampledSystem, "moments", lambda h: built.append(h))
    trace = womp(h, np.zeros(40, dtype=complex))
    assert trace.steps == 0 and trace.coefficients.size == 0 and not built
