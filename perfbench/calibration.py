"""A fixed calibration kernel that measures how fast the host runs right now.

The shared 2-vCPU x86-64 VM the benchmark was built on has stretches of
minutes in which all code runs 1.2 to 1.7 times slower, and a 33 s run
cannot average them out.  The kernel below runs after every timed pass.  It
uses numpy and plain Python only, never womplab, so a change to the library
cannot move it.  Its parts mirror the workloads' hot spots: least squares on
a tall complex matrix (`womp`), batched Hermitian eigensolves (`check_usd`),
a Python dict convolution (`multiply`), complex exponentials on a tall grid
(`evaluate_at`) and one large polynomial evaluation (`lp_norm` through
`TrigPolynomial.eval`).  A run's pass seconds over its kernel seconds is its
pass cost in host-speed units, which a slow stretch moves far less than the
pass time itself.
"""

import time

import numpy as np

# The kernel's time on that VM outside its slow stretches; it scales
# host-speed units back to seconds.  Re-measure it if the kernel changes.
REFERENCE_S = 0.31


def _inputs():
    """The kernel's inputs, fixed by one seed.  They are made afresh for each
    run and every array stays below 2 MB, so the kernel holds no memory
    between runs and does not raise the run's peak RSS."""
    rng = np.random.default_rng(20240126)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h = cplx(1000, 6, 6)
    return {
        "a": cplx(2000, 40), "b": cplx(2000),
        "h": h + h.conj().transpose(0, 2, 1),
        "poly": {i: complex(c) for i, c in zip(range(-60, 61), rng.standard_normal(121))},
        "x": rng.random((3, 1000, 1)), "k": np.arange(-30, 31, dtype=float).reshape(-1, 1),
        # a degree-192 polynomial on 32 blocks of 256 points
        "grid": 2 * np.pi * rng.random((32, 256, 1)),
        "freqs": np.arange(-192, 193, dtype=float).reshape(-1, 1), "coeffs": cplx(385),
    }


def run() -> float:
    """Run the kernel once; return its seconds, input generation excluded."""
    inp = _inputs()
    start = time.perf_counter()
    for _ in range(32):
        np.linalg.lstsq(inp["a"], inp["b"], rcond=None)
    for _ in range(12):
        np.linalg.eigvalsh(inp["h"])
    for _ in range(8):
        out = {}
        for i, ci in inp["poly"].items():
            for j, cj in inp["poly"].items():
                out[i + j] = out.get(i + j, 0) + ci * cj
    for _ in range(8):
        for block in inp["x"]:
            np.exp(2j * np.pi * (block @ inp["k"].T)).sum()
    for block in inp["grid"]:
        np.exp(1j * (block @ inp["freqs"].T)) @ inp["coeffs"]
    return time.perf_counter() - start
