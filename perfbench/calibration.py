"""Machine-speed calibration: a fixed kernel timed around every measured step.

A shared host changes speed by up to 2x over seconds to minutes (turbo
headroom, neighbours on the same cores), and that drift moves every timing the
same way. So every timed pass and set-up probe is bracketed by runs of a fixed
kernel that uses no otfdm code and no benchmark input, and its time is scaled
by REFERENCE_S / (mean of the two kernel times around it). The result is the
time the step would take on a machine that runs the kernel in REFERENCE_S
seconds. A change to otfdm moves the scaled times in full; a change in the
machine's speed moves the kernel too and cancels out.

The kernel mixes what the workloads do: small-array FFTs, complex arithmetic,
transcendentals and convolutions in numpy, and a scalar Python loop.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine the baseline was recorded on (2-vCPU
# x86-64 VM, numpy 2.4, Python 3.11). It only sets the scale of the results.
REFERENCE_S = 0.028

_REPEATS = 150
_rng = np.random.default_rng(20240901)
_X = _rng.standard_normal(512) + 1j * _rng.standard_normal(512)
_TAPS = _rng.standard_normal(24) + 1j * _rng.standard_normal(24)


def kernel() -> complex:
    """The fixed work; returns a value so none of it can be skipped."""
    acc = 0j
    for _ in range(_REPEATS):
        y = np.fft.ifft(np.fft.fft(_X) * np.exp(1j * np.angle(_X)))
        z = np.convolve(y, _TAPS)
        acc += np.sum(np.abs(z) ** 2)
        for j in range(600):
            acc = acc * 0.999 + j
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speed:
    """Scales timings to REFERENCE_S kernel speed.

    Call `scale` right after each timed step; it runs the kernel, and the
    kernel run before the step is the previous call's (or the constructor's).
    """

    def __init__(self):
        kernel_seconds()  # warm-up: numpy's FFT plans and code paths
        self.kernel_s = [kernel_seconds()]

    def scale(self, seconds: float | None) -> float | None:
        self.kernel_s.append(kernel_seconds())
        if seconds is None:
            return None
        return seconds * REFERENCE_S / (0.5 * (self.kernel_s[-2]
                                               + self.kernel_s[-1]))
