"""Smoothness classes defined by per-block coefficient budgets.

A polynomial belongs to the class with rate r and exponent beta when, for
every dyadic block j, the l_beta norm of its coefficients inside the block
is at most 2^(-r*j).  Instances are generated by saturating those budgets
in a few canonical ways, so they meet every budget by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trig import TrigPolynomial, dyadic_block

PROFILES = ("saturated-spread", "single-spike", "random-support")


@dataclass(frozen=True)
class ClassSpec:
    """Budget parameters: rate r > 0, exponent 0 < beta <= 2, truncation level J."""

    r: float
    beta: float
    J: int

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("r must be positive")
        if not 0 < self.beta <= 2:
            raise ValueError("beta must lie in (0, 2]")
        if self.J < 0:
            raise ValueError("J must be >= 0")

    def budget(self, j: int) -> float:
        """Block-j budget 2^(-r*j)."""
        return float(2.0 ** (-self.r * j))


def _block_lists(spec: ClassSpec, dim: int) -> list:
    """Sorted index lists per block, fixing a deterministic draw order."""
    return [sorted(dyadic_block(j, dim)) for j in range(spec.J + 1)]


def sample_class_function(spec: ClassSpec, profile: str, seed: int, dim: int = 1,
                          density: float = 0.5) -> TrigPolynomial:
    """Draw a class instance with the given coefficient profile.

    Profiles
    --------
    saturated-spread
        Every block is filled completely with equal magnitudes scaled so
        the l_beta budget is met exactly; phases are uniform random.
    single-spike
        One coefficient of magnitude 2^(-r*J) on a random index of the
        deepest block J, random phase.
    random-support
        Each block keeps a random subset of indices (each kept with the
        given density, at least one per block), equal magnitudes scaled to
        saturate the block budget, random phases.

    Magnitudes are deterministic given the support; only phases and support
    choices consume randomness, so a fixed seed fixes the instance.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    if profile == "random-support" and not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    coeffs = {}

    if profile == "single-spike":
        block = _block_lists(spec, dim)[spec.J]
        k = block[int(rng.integers(len(block)))]
        phase = np.exp(2j * np.pi * rng.random())
        coeffs[k] = spec.budget(spec.J) * phase
        return TrigPolynomial(dim, coeffs)

    for j, block in enumerate(_block_lists(spec, dim)):
        if profile == "saturated-spread":
            support = block
        else:
            keep = rng.random(len(block)) < density
            support = [k for k, flag in zip(block, keep) if flag]
            if not support:
                support = [block[int(rng.integers(len(block)))]]
        mag = spec.budget(j) * len(support) ** (-1.0 / spec.beta)
        phases = np.exp(2j * np.pi * rng.random(len(support)))
        for k, ph in zip(support, phases):
            coeffs[k] = mag * ph
    return TrigPolynomial(dim, coeffs)


def default_truncation_level(v: int) -> int:
    """Default J for a sparsity-v experiment: ceil(log2 v) + 2."""
    if v < 1:
        raise ValueError("v must be >= 1")
    return int(np.ceil(np.log2(v))) + 2
