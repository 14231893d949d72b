"""Smoothness-class specifications, profiles, and membership checks."""

import math

import numpy as np
import pytest

from womplab.classes import (ClassSpec, PROFILES, default_truncation_level,
                             sample_class_function)
from womplab.trig import TrigPolynomial, dyadic_block


def block_index(k) -> int:
    """Index j of the dyadic sup-norm block containing frequency k."""
    n = max(abs(int(ki)) for ki in np.atleast_1d(k))
    if n == 0:
        return 0
    return int(math.floor(math.log2(n))) + 1


def test_block_index_frozen_values():
    assert block_index((0,)) == 0
    assert block_index((1,)) == 1
    assert block_index((-1,)) == 1
    assert block_index((2,)) == 2
    assert block_index((3,)) == 2
    assert block_index((4,)) == 3
    assert block_index((7,)) == 3
    assert block_index((8,)) == 4
    assert block_index((0, -5)) == 3


def membership_margin(poly: TrigPolynomial, spec: ClassSpec) -> np.ndarray:
    """Per-block slack budget_j - (sum_{k in block j} |a_k|^beta)^(1/beta).

    Returns slacks for blocks j = 0..J.  All slacks nonnegative means the
    polynomial satisfies every budget up to the truncation level.  The
    degree must stay below 2^(J+1) so no mass escapes past the last block
    plus one; content in block J+1 itself is rejected too.
    """
    if poly.degree >= 2 ** (spec.J + 1):
        raise ValueError(
            f"degree {poly.degree} too large for truncation level J={spec.J}"
        )
    mass = np.zeros(spec.J + 2)
    for k, c in poly.coeffs.items():
        mass[block_index(k)] += abs(c) ** spec.beta
    if mass[spec.J + 1] > 0:
        raise ValueError("polynomial has content beyond block J")
    return np.array(
        [spec.budget(j) - mass[j] ** (1.0 / spec.beta) for j in range(spec.J + 1)]
    )


def test_budget_frozen_values():
    spec = ClassSpec(r=2.0, beta=1.0, J=3)
    assert [spec.budget(j) for j in range(4)] == [1.0, 0.25, 0.0625, 0.015625]


def test_class_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec(r=-1.0, beta=1.0, J=2)
    with pytest.raises(ValueError):
        ClassSpec(r=1.0, beta=0.0, J=2)
    with pytest.raises(ValueError):
        ClassSpec(r=1.0, beta=1.0, J=-1)


def test_membership_margin_accepts_budgeted_polynomial():
    spec = ClassSpec(r=1.0, beta=2.0, J=2)
    # one coefficient per block, exactly at budget
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 0.5, (2,): 0.25})
    margins = membership_margin(f, spec)
    np.testing.assert_allclose(margins, 0.0, atol=1e-15)


def test_membership_margin_flags_overshoot():
    spec = ClassSpec(r=1.0, beta=1.0, J=2)
    f = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5})  # block-1 mass 1 > 0.5
    margins = membership_margin(f, spec)
    assert margins[1] == pytest.approx(-0.5, abs=1e-15)


def test_membership_margin_rejects_content_past_truncation():
    spec = ClassSpec(r=1.0, beta=1.0, J=1)
    with pytest.raises(ValueError):
        membership_margin(TrigPolynomial(1, {(3,): 0.1}), spec)
    with pytest.raises(ValueError):
        membership_margin(TrigPolynomial(1, {(4,): 0.1}), spec)


@pytest.mark.parametrize("profile", PROFILES)
def test_profiles_are_members_and_deterministic(profile):
    spec = ClassSpec(r=2.0, beta=1.0, J=3)
    f = sample_class_function(spec, profile, seed=7, dim=1, density=0.4)
    margins = membership_margin(f, spec)
    assert margins.min() >= -1e-12
    g = sample_class_function(spec, profile, seed=7, dim=1, density=0.4)
    assert f.coeffs == g.coeffs
    h = sample_class_function(spec, profile, seed=8, dim=1, density=0.4)
    assert f.coeffs != h.coeffs


def test_saturated_spread_fills_every_block_exactly():
    spec = ClassSpec(r=2.0, beta=1.0, J=3)
    f = sample_class_function(spec, "saturated-spread", seed=0)
    for j in range(spec.J + 1):
        block = dyadic_block(j, 1)
        mass = sum(abs(f.coeffs[k]) for k in block)
        assert set(block) <= set(f.coeffs)
        assert mass == pytest.approx(spec.budget(j), rel=1e-12)


def test_saturated_spread_beta_half_magnitudes():
    # Filling a block of size n with equal magnitudes c costs
    # (n * c^(1/2))^2 = n^2 * c against an l_{1/2} budget, so meeting
    # 2^(-r*j) exactly forces c = 2^(-r*j) / n^2.
    spec = ClassSpec(r=1.0, beta=0.5, J=2)
    f = sample_class_function(spec, "saturated-spread", seed=3)
    for j in range(spec.J + 1):
        block = dyadic_block(j, 1)
        expect = 2.0 ** (-j) / len(block) ** 2
        for k in block:
            assert abs(f.coeffs[k]) == pytest.approx(expect, rel=1e-12)
    margins = membership_margin(f, spec)
    assert np.max(np.abs(margins)) <= 1e-12


def test_single_spike_lives_in_the_deepest_block():
    spec = ClassSpec(r=2.0, beta=1.0, J=4)
    f = sample_class_function(spec, "single-spike", seed=3)
    assert len(f.coeffs) == 1
    (k, c), = f.coeffs.items()
    assert block_index(k) == spec.J
    assert abs(c) == pytest.approx(spec.budget(spec.J), rel=1e-12)


def test_random_support_respects_density_bounds():
    spec = ClassSpec(r=1.0, beta=1.0, J=3)
    f = sample_class_function(spec, "random-support", seed=11, density=0.3)
    for j in range(spec.J + 1):
        block = dyadic_block(j, 1)
        kept = [k for k in block if k in f.coeffs]
        assert 1 <= len(kept) <= len(block)


def test_unknown_profile_raises():
    spec = ClassSpec(r=1.0, beta=1.0, J=1)
    with pytest.raises(ValueError):
        sample_class_function(spec, "bogus", seed=0)
    with pytest.raises(ValueError):
        sample_class_function(spec, "random-support", seed=0, density=0.0)


def test_default_truncation_level_frozen():
    assert default_truncation_level(1) == 2
    assert default_truncation_level(2) == 3
    assert default_truncation_level(6) == 5
    assert default_truncation_level(8) == 5
    with pytest.raises(ValueError):
        default_truncation_level(0)
