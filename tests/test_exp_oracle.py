"""An exact oracle for the complex exponential that `_entry_bound` assumes.

`discretization._entry_bound` takes every computed exp(i phase) of the
sampled matrix to be within 4 ulp of exact in each component: its 8 e
term (e the unit roundoff) is 4 ulp of 1, which bounds 4 ulp of any
component of modulus at most 1.  Here numpy's exponential, formed as
`TrigSystem.evaluate_at` forms it, is compared with cos and sin of the same
double at 120 bits.
"""

import numpy as np
import pytest

from womplab.discretization import _E

ULP_BOUND = 4


def _ulp_errors(mpmath, phases):
    """Each component's error in ulp of its exact value (mpmath's binary
    exponent, so no rounding moves a value across a power of two)."""
    computed = np.exp(1j * phases)
    errors = []
    with mpmath.workprec(120):
        for x, z in zip(phases.tolist(), computed.tolist()):
            for got, exact in ((z.real, mpmath.cos(x)), (z.imag, mpmath.sin(x))):
                ulp = mpmath.ldexp(1, mpmath.frexp(exact)[1] - 53)
                errors.append(float(abs(got - exact) / ulp))
    return np.array(errors)


def test_exponential_is_within_the_entry_bounds_ulps():
    mpmath = pytest.importorskip(
        "mpmath", reason="the oracle needs 120-bit cosines and sines")
    rng = np.random.default_rng(13)
    # 5,900 phases over |phase| <= 2,000 and the doubles nearest to 100
    # multiples of pi / 2, where one component is as small as it gets
    quarter_turns = rng.integers(-1273, 1274, size=100) * (np.pi / 2)
    phases = np.concatenate([rng.uniform(-2000.0, 2000.0, size=5900), quarter_turns])
    phases = phases[phases != 0.0]  # sin(0) = 0 has no ulp
    errors = _ulp_errors(mpmath, phases)
    assert errors.size == 2 * phases.size >= 11_990
    assert errors.max() <= ULP_BOUND
    # what _entry_bound spends on one exponential
    assert ULP_BOUND * np.finfo(float).eps == 8 * _E
