"""Complex transform and statistics kernel shared by the whole library.

Conventions, fixed once here so power bookkeeping is consistent everywhere:
the forward DFT is unnormalized and the inverse carries the 1/size factor
(numpy's convention). Transform lengths are arbitrary, not just powers of
two, since allocation sizes like 2400 are first class.
"""

from __future__ import annotations

import math

import numpy as np

# Bound of every library cache: each holds values that depend only on a
# frozen key (scheme, layout, grid, delay profile), a few KiB to a few tens
# of KiB per entry.
CACHE_SIZE = 32

__all__ = ["dft", "cyclic_fold", "ccdf", "evm_db",
           "power_ratio_db", "SeededRng"]


def _as_complex_vec(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D sample vector, got shape {x.shape}")
    return x


def dft(x) -> np.ndarray:
    """Forward (unnormalized) DFT of a complex vector."""
    x = _as_complex_vec(x)
    if x.size == 0:
        raise ValueError("dft: zero-length input")
    return np.fft.fft(x)


def cyclic_fold(x, length: int, offset: int = 0) -> np.ndarray:
    """Alias a sequence onto a cyclic grid of `length` bins.

    x[..., j] is added into bin (j - offset) % length of its own row, in
    ascending j, starting from zero; leading axes are independent rows.
    This is the one implementation of spectrum folding, so every fold in the
    library sums its contributions in the same order.
    """
    x = np.asarray(x)
    out = np.zeros(x.shape[:-1] + (length,), dtype=x.dtype)
    bins = (np.arange(x.shape[-1]) - offset) % length
    # one flat scatter: row r's bins sit at r*length + bin, and the flat
    # order visits each row's samples in ascending j
    rows = np.arange(out.size // length)[:, None] * length
    np.add.at(out.reshape(-1), (rows + bins).ravel(), x.reshape(-1))
    return out


def ccdf(values, grid) -> list[tuple[float, float]]:
    """Complementary CDF of `values` over ascending thresholds `grid`.

    Returns (threshold, Pr[value > threshold]) pairs; the probabilities are
    monotone non-increasing along the grid. One sort serves every
    threshold (`_ccdf_of_sorted`).
    """
    return _ccdf_of_sorted(np.sort(np.asarray(values, dtype=float).ravel()), grid)


def _ccdf_of_sorted(values: np.ndarray, grid) -> list[tuple[float, float]]:
    """`ccdf` of values already sorted ascending, so a caller that also
    reads quantiles off them sorts once: the count above t is n minus the
    insertion point right of t. NaNs sort last, so the last value shows
    whether there are any."""
    grid = np.asarray(grid, dtype=float)
    if values.size == 0 or grid.size == 0:
        raise ValueError("ccdf: values and grid must be non-empty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("ccdf: grid must be sorted ascending")
    if np.isnan(values[-1]):
        raise ValueError("ccdf: values contain NaN")
    n = values.size
    above = n - np.searchsorted(values, grid, side="right")
    return [(float(t), float(k / n)) for t, k in zip(grid, above.tolist())]


def evm_db(estimate, reference) -> float:
    """Error vector magnitude in dB: residual power over reference power."""
    est = np.asarray(estimate, dtype=np.complex128)
    ref = np.asarray(reference, dtype=np.complex128)
    if est.shape != ref.shape:
        raise ValueError("evm_db: shape mismatch")
    return power_ratio_db(np.sum(np.abs(est - ref) ** 2), np.sum(np.abs(ref) ** 2))


def power_ratio_db(error_power, reference_power) -> float:
    """10*log10(error_power / reference_power), the one EVM-to-dB step: zero
    error gives -inf; a zero reference or a non-finite (NaN) power raises."""
    num, den = float(error_power), float(reference_power)
    if not (math.isfinite(num) and math.isfinite(den) and den > 0.0):
        raise ValueError("power_ratio_db: needs finite powers and a nonzero "
                         f"reference; got error {num}, reference {den}")
    if num == 0.0:
        return float("-inf")
    return 10.0 * math.log10(num / den)


class SeededRng:
    """Reproducible random stream keyed by (seed, stream_id).

    Two instances built from the same key emit identical draws regardless of
    process or thread schedule. Instances hold state and must not be shared
    across workers; give each worker its own stream_id.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.default_rng(ss)

    def bits(self, count: int) -> np.ndarray:
        return self._gen.integers(0, 2, size=count, dtype=np.int64)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def complex_normal(self, size, variance: float = 1.0) -> np.ndarray:
        """Circularly symmetric complex Gaussian samples of given variance:
        the real parts are drawn first, then the imaginary parts."""
        scale = np.sqrt(variance / 2.0)
        re = self._gen.standard_normal(size)
        im = self._gen.standard_normal(size)
        out = np.empty(re.shape, dtype=np.complex128)
        np.multiply(re, scale, out=out.real)
        np.multiply(im, scale, out=out.imag)
        return out

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream_id={self.stream_id})"
