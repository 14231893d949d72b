"""Acceptance gate: the nine pinned behavioral criteria, one test each.

The bounds are the module constants (worst Lebesgue ratio 3.0, pipeline
factor 6.0, slope margin 0.35, scaling counts 45/10 out of 50).  Each test
asserts the criterion's pass flag and surfaces the measured numbers in the
assertion message, so a red test shows exactly which bound failed and by
how much.
"""

import pytest

from womplab.acceptance import largest_uncertifiable_m, run_criterion
from womplab.discretization import build_sampled, check_usd, draw_points
from womplab.trig import TrigSystem

def _check(number):
    result = run_criterion(number)
    assert result.passed, f"[{result.number}] {result.name}: {result.detail}"
    return result


def test_criterion_1_fejer_identities():
    _check(1)


def test_criterion_2_exact_grid_discretization():
    _check(2)


def test_criterion_3_greedy_exact_recovery():
    _check(3)


def test_criterion_4_discrete_lebesgue_ratio():
    _check(4)


def test_criterion_5_pipeline_lp_bound():
    _check(5)


def test_criterion_6_random_point_scaling():
    # at least 45/50 certify at the sufficient budget m=222; at most 10/50
    # at the largest m where the rank and Fejer bounds rule out any certificate
    _check(6)


@pytest.mark.parametrize("deg, u, expected", [
    (4, 2, 2),  # Fejer: 12 m < 36
    (6, 2, 3),  # Fejer: 16 m < 52
    (4, 5, 4),  # rank: m < u
    (4, 1, 0),  # one column always certifies
])
def test_largest_uncertifiable_m_is_the_larger_bound(deg, u, expected):
    assert largest_uncertifiable_m(deg, u) == expected


@pytest.mark.parametrize("deg, u", [(4, 2), (6, 2), (4, 5)])
def test_no_certificate_at_or_below_largest_uncertifiable_m(deg, u):
    system = TrigSystem(1, (deg,))
    for m in range(1, largest_uncertifiable_m(deg, u) + 1):
        for s in range(50):
            sampled = build_sampled(system, draw_points(m, 1, 77_000 + s))
            rep = check_usd(sampled, u, 2.0, "two-sided", "exhaustive")
            assert not rep.holds, (m, s, rep.c_low, rep.c_high)


def test_criterion_7_fooling_adversary():
    _check(7)


def test_criterion_8_decay_rate_sweep():
    _check(8)


def test_criterion_9_sparse_norm_ratio():
    _check(9)


def test_run_criterion_rejects_unknown_number():
    with pytest.raises(ValueError):
        run_criterion(10)
