"""Acceptance gate: the nine pinned behavioral criteria, one test each.

The bounds are the module constants (worst Lebesgue ratio 3.0, pipeline
factor 6.0, slope margin 0.35, scaling counts 45/10 out of 50).  Each test
asserts the criterion's pass flag and surfaces the measured numbers in the
assertion message, so a red test shows exactly which bound failed and by
how much.
"""

import pytest

from womplab import acceptance, greedy
from womplab.acceptance import largest_uncertifiable_m, run_all
from womplab.discretization import build_sampled, check_usd, draw_points
from womplab.trig import TrigSystem


def _check(number):
    # no criterion's greedy run leaves Gram space for the least-squares
    # fallback (criteria 4 and 5 share one cached ensemble, counted once)
    fallbacks, fallback = [], greedy._womp_lstsq

    def counted(*args):
        fallbacks.append(args)
        return fallback(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "_womp_lstsq", counted)
        result, = run_all([number])
    assert result.passed, f"[{result.number}] {result.name}: {result.detail}"
    assert not fallbacks, f"[{result.number}] {len(fallbacks)} womp fallbacks"
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


def test_run_all_rejects_unknown_number():
    with pytest.raises(ValueError):
        run_all([10])


def test_exact_cells_are_judged_relative_to_the_target_scale(monkeypatch):
    # one exact cell at scale 2^40: sigma, residual and errors of about
    # 2^-10, rounding level relative to the target (2^-50), but far above
    # an absolute 1e-9
    scale, tiny = 2.0 ** 40, 2.0 ** -10
    cell = {"deg": 4, "u": 3, "v": 1, "m": 300, "seed": 0, "holds": True,
            "scale": scale, "resid_disc": tiny, "sigma_disc": tiny / 2,
            "error": {2.0: tiny, 4.0: tiny},
            "sigma_ref": {2.0: tiny / 2, 4.0: tiny / 2}}
    monkeypatch.setattr(acceptance, "_recovery_ensemble", lambda: [cell])
    ok, detail = acceptance.criterion_lebesgue()
    assert ok, detail
    ok, detail = acceptance.criterion_pipeline()
    assert ok, detail
