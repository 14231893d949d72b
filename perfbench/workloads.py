"""The three benchmark workloads: inputs from a seed, one timed pass, and
the plain-data summary of each item that the output checks read.

certified  `womplab recover` with an exhaustive L2 certificate and exact
           best v-term references (the criterion 4/5 shape); the batched
           eigensolves of `check_usd` dominate.
sweep      `rate_sweep_compute` on the default rate-sweep section with
           fewer seeds (criterion 8); `womp` and tall evaluation matrices
           dominate, and no certificate or enumeration runs.
adversary  criterion 7's fooling construction with the greedy fed all-zero
           data; grid quadrature, coefficient convolution and the null-space
           SVD dominate.
"""

from __future__ import annotations

import numpy as np

# Library entry points are looked up on their modules at call time, so the
# tracer's wrappers see the calls the workloads make.
from womplab import TrigPolynomial, TrigSystem, draw_points, experiments, recovery

DEFAULT_SEED = 0

CERT_BOXES = ((10,), (2, 1))  # N = 21 with u = 6, and N = 15 with u = 6
CERT_ITEMS_PER_BOX = 6
CERT_M = 600
CERT_V = 2

SWEEP_SEEDS = 5  # per sparsity level; the default section has 20

ADV_BOXES = ((32,), (64,), (96,), (4, 4))
ADV_SEEDS = 5


def _item_seeds(seed: int, stream: int, n: int) -> list:
    """n independent integer seeds for one workload, fixed by the run seed."""
    state = np.random.SeedSequence([seed, stream]).generate_state(n)
    return [int(s) for s in state]


class Certified:
    name = "certified"
    items_per_pass = len(CERT_BOXES) * CERT_ITEMS_PER_BOX

    def make_inputs(self, seed):
        seeds = _item_seeds(seed, 1, self.items_per_pass)
        items = []
        for b, box in enumerate(CERT_BOXES):
            system = TrigSystem(len(box), box)
            for s in seeds[b * CERT_ITEMS_PER_BOX:(b + 1) * CERT_ITEMS_PER_BOX]:
                rng = np.random.default_rng(s + 1)
                coeff = (rng.standard_normal(system.size)
                         + 1j * rng.standard_normal(system.size))
                f0 = TrigPolynomial(system.dim, dict(zip(system.indices(), coeff)))
                items.append((f0, system, draw_points(CERT_M, system.dim, s)))
        return items

    def warm_up(self, items):
        for item in items[::CERT_ITEMS_PER_BOX]:  # one item per system size
            self.run_item(item)

    def run_item(self, item):
        f0, system, pts = item
        return recovery.recover(f0, system, pts, v=CERT_V, c_emp=2.0, certify=True,
                                compute_sigma=True)

    def run_pass(self, items):
        return [_attempt(self.run_item, item) for item in items]

    def summarize(self, outcome):
        return [_summary_or_error(summarize_recovery, o) for o in outcome]


class Sweep:
    name = "sweep"

    def __init__(self):
        self.section = experiments.default_config()["rate-sweep"]
        self.section["seeds"] = SWEEP_SEEDS
        v_count = len(self.section["v_list"].split(","))
        self.items_per_pass = v_count * SWEEP_SEEDS

    def make_inputs(self, seed):
        return _item_seeds(seed, 2, 1)[0]

    def warm_up(self, base_seed):
        # one seed per sparsity level: every cell size once
        experiments.rate_sweep_compute({**self.section, "seeds": 1}, base_seed, threads=1)

    def run_pass(self, base_seed):
        return _attempt(experiments.rate_sweep_compute, self.section, base_seed, threads=1)

    def summarize(self, outcome):
        if isinstance(outcome, Failure):
            return {"cells": [outcome] * self.items_per_pass, "slopes": None}
        cells, fits, _ = outcome
        return {
            "cells": [{"v": c["v"], "seed": c["seed"], "m": c["m"],
                       "selected": list(c["report"].trace.selected),
                       "residual_norms": list(c["report"].trace.residual_norms),
                       "errors": {f"{p:g}": e for p, e in c["errors"].items()}}
                      for c in cells],
            "slopes": {f"{p:g}": fit.slope for p, fit in fits.items()},
        }


class Adversary:
    name = "adversary"
    items_per_pass = len(ADV_BOXES) * ADV_SEEDS

    def make_inputs(self, seed):
        seeds = _item_seeds(seed, 3, self.items_per_pass)
        items = []
        for b, box in enumerate(ADV_BOXES):
            system = TrigSystem(len(box), box)
            for s in seeds[b * ADV_SEEDS:(b + 1) * ADV_SEEDS]:
                items.append((system, draw_points(system.size // 4, system.dim, s)))
        return items

    def warm_up(self, items):
        for item in items[::ADV_SEEDS]:  # one item per box
            self.run_item(item)

    def run_item(self, item):
        system, pts = item
        return recovery.adversary_gap(
            pts, system.box, p=4.0, q=2.0,
            recovery=experiments.zero_data_recovery(system, pts))

    def run_pass(self, items):
        return [_attempt(self.run_item, item) for item in items]

    def summarize(self, outcome):
        return [_summary_or_error(summarize_gap, o) for o in outcome]


WORKLOADS = {w.name: w for w in (Certified, Sweep, Adversary)}


class Failure:
    """An item that raised; counted as failed by the output check."""

    def __init__(self, exc):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Failure({self.message!r})"


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an item that raises is a failed item, not a crash
        return Failure(exc)


def _summary_or_error(summarize, outcome):
    return outcome if isinstance(outcome, Failure) else summarize(outcome)


def summarize_recovery(rep) -> dict:
    cert = rep.certificate
    return {
        "d": rep.d, "N": rep.size, "m": rep.m, "u": rep.u,
        "c_low": cert.c_low, "c_high": cert.c_high,
        "worst_support": list(cert.worst_support), "holds": cert.holds,
        "selected": list(rep.trace.selected),
        "residual_norms": list(rep.trace.residual_norms),
        "error_lp_mu": rep.error_lp_mu,
        "sigma_discrete": rep.sigma_discrete, "sigma_ref": rep.sigma_ref,
    }


def summarize_gap(gap) -> dict:
    inst = gap.instance
    return {
        "box": list(inst.box), "m": inst.pointset.m,
        "vanishing_defect": inst.vanishing_defect,
        "recovery_fooled": gap.recovery_fooled,
        "recovery_errors": list(gap.recovery_errors),
        "norm_p": inst.norm_p,
    }
