"""The incremental-QR weak greedy against the reference loop that re-solves
the least-squares problem from scratch at every step."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from womplab.classes import ClassSpec, default_truncation_level, \
    sample_class_function
from womplab.discretization import build_sampled, draw_points
from womplab.experiments import default_config, schedule_m
from womplab.greedy import STOP_REL_TOL, DiscreteHilbert, project, womp
from womplab.recovery import sample_target
from womplab.trig import TrigPolynomial, TrigSystem


def womp_lstsq(h, target, t=1.0, steps=None, selection="argmax"):
    """Reference greedy: the same selection rule, with project() (a fresh
    lstsq) after every step and once more for the final coefficients.
    Returns the fields of a WompTrace as a dict."""
    if steps is None:
        steps = min(h.m, h.size)
    target = np.asarray(target, dtype=complex)
    col_norms = np.linalg.norm(h.matrix, axis=0) / math.sqrt(h.m)
    normalized = h.matrix / col_norms
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


def assert_matches_oracle(h, y, **kwargs):
    want = womp_lstsq(h, y, **kwargs)
    got = womp(h, y, **kwargs)
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


def triangular_factor(matrix, selected, target):
    """womp's R and Q^H y for the selected columns: the same Gram-Schmidt
    with one reorthogonalisation, operation for operation, so the entries
    are bit for bit womp's."""
    m, k = matrix.shape[0], len(selected)
    qh = np.empty((k, m), dtype=complex)
    r = np.zeros((k, k), dtype=complex)
    for rank, pick in enumerate(selected):
        col = matrix[:, pick]
        basis = qh[:rank]
        s1 = basis @ col
        w = col - (s1.conj() @ basis).conj()
        s2 = basis @ w
        w -= (s2.conj() @ basis).conj()
        w_norm = float(np.linalg.norm(w))
        qh[rank] = (w / w_norm).conj()
        r[:rank, rank] = s1 + s2
        r[rank, rank] = w_norm
    return r, qh @ np.asarray(target, dtype=complex)


def assert_solves_as_lapack(h, y, trace):
    """womp's coefficients are bit for bit LAPACK's triangular solve of
    R c = Q^H y (scipy.linalg.solve_triangular, a test-only dependency)."""
    import scipy.linalg

    r, b = triangular_factor(h.matrix, trace.selected, y)
    want = scipy.linalg.solve_triangular(r, b)
    assert np.array_equal(trace.coefficients.view(np.uint64), want.view(np.uint64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 16), st.integers(0, 40), st.integers(0, 8),
       st.floats(0, 12), st.integers(0, 2 ** 32 - 1))
def test_back_substitution_is_bitwise_lapack(rank, extra_rows, extra_cols,
                                             spread, seed):
    # random complex dictionaries whose columns span 10^(+-spread) in
    # scale (womp refuses columns below 1e-15), so R's diagonal is as badly
    # scaled; womp takes rank steps
    rng = np.random.default_rng(seed)
    m, n = rank + extra_rows, rank + extra_cols
    matrix = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    matrix *= 10.0 ** rng.uniform(-spread, spread, n)
    h = DiscreteHilbert(matrix)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    trace = womp(h, y, steps=rank)
    assert not trace.rank_deficient
    assert trace.steps == rank
    assert_solves_as_lapack(h, y, trace)


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
        f0 = TrigPolynomial(d, {system.index_at(int(c)): w
                                for c, w in zip(cols, coeff)})
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
    # womp used to call scipy.linalg.solve_triangular here; the inline back
    # substitution must keep every coefficient bit
    assert_solves_as_lapack(sampled, y, got)


def test_rank_deficient_run_returns_project_coefficients():
    # column 1 equals column 0 up to 1e-20 in its second entry, far below
    # the rank cutoff; with t tiny the weak rule takes it at step 2
    matrix = np.array([[1, 1, 0], [0, 1e-20, 0], [0, 0, 1]], dtype=complex)
    h = DiscreteHilbert(matrix)
    y = np.ones(3, dtype=complex)
    kwargs = dict(t=1e-25, steps=2, selection="adversarial-weak")
    got = assert_matches_oracle(h, y, **kwargs)
    assert got.selected == (0, 1)
    assert got.rank_deficient
    ref = project(h, y, [0, 1])
    assert ref.rank_deficient
    np.testing.assert_array_equal(got.coefficients, ref.coefficients)
    # the dependent column leaves the span, and so the residual, unchanged
    assert got.residual_norms[2] == got.residual_norms[1]


def test_nearly_parallel_columns_keep_the_residual_norms_accurate():
    # six columns within 1e-6 of one another (condition ~1e7): one
    # Gram-Schmidt pass loses orthogonality like eps * cond^2 and the
    # tracked residual norms drift from the reference by ~1e-8; with the
    # reorthogonalisation they agree to ~1e-11.  The residual vectors, and
    # with them the inner products, are themselves determined only to
    # ~eps * cond here, so only selection and norms are compared.
    m = 60
    for seed in range(5):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        cols = [base] + [base + 1e-6 * (rng.standard_normal(m)
                                        + 1j * rng.standard_normal(m))
                         for _ in range(5)]
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h = DiscreteHilbert(np.stack(cols, axis=1))
        want = womp_lstsq(h, y, steps=6)
        got = womp(h, y, steps=6)
        assert got.selected == want["selected"]
        assert not got.rank_deficient
        np.testing.assert_allclose(got.residual_norms, want["residual_norms"],
                                   rtol=0, atol=1e-10 * want["residual_norms"][0])
