"""Independent reference implementations used as test oracles.

Everything here is deliberately written from definitions (direct summation,
decision-region integration, quadrature) rather than reusing library code, so
the tests check the fast paths against slow but obviously-correct math.
"""

import math

import numpy as np


def dft_direct(x, inverse=False):
    """O(n^2) summation DFT; forward unnormalized, inverse with 1/n."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    sign = 1j if inverse else -1j
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        acc = 0.0 + 0.0j
        for m in range(n):
            acc += x[m] * np.exp(sign * 2.0 * np.pi * k * m / n)
        out[k] = acc
    return out / n if inverse else out


def extend_and_shape_direct(x_t, weights, excess):
    """Direct recomputation of precode + cyclic extension + shaping."""
    x_t = np.asarray(x_t, dtype=np.complex128)
    m = x_t.size
    spectrum = dft_direct(x_t)
    out = np.empty(m + 2 * excess, dtype=np.complex128)
    for j in range(m + 2 * excess):
        k_ext = j - excess
        out[j] = weights[j] * spectrum[k_ext % m]
    return out


def fold_direct(demapped, weights, alloc_size, excess):
    """Direct triple-sum spectrum fold over the aliases of each output bin."""
    y = np.asarray(demapped, dtype=np.complex128)
    out = np.zeros(alloc_size, dtype=np.complex128)
    for k in range(alloc_size):
        for p in (-1, 0, 1):
            j = k + p * alloc_size + excess
            if 0 <= j < y.size:
                out[k] += np.conj(weights[j]) * y[j]
    return out


def cyclic_fold_direct(x, length, offset=0):
    """Alias x onto `length` cyclic bins one element at a time, in ascending
    index order: x[j] lands in bin (j - offset) mod length."""
    x = np.asarray(x)
    out = np.zeros(length, dtype=x.dtype)
    for j in range(x.size):
        out[(j - offset) % length] += x[j]
    return out


def fold_composite_direct(weights, alloc_size, excess, channel_bins):
    """True folded composite response: sum of |w|^2 H over each bin's aliases."""
    out = np.zeros(alloc_size, dtype=np.complex128)
    for k in range(alloc_size):
        for p in (-1, 0, 1):
            j = k + p * alloc_size + excess
            if 0 <= j < weights.size:
                out[k] += abs(weights[j]) ** 2 * channel_bins[j]
    return out


def jakes_direct(powers, num_samples, doppler_hz, sample_rate_hz, rng,
                 num_sinusoids=32):
    """Per-tap sum-of-sinusoids Rayleigh gains with one complex exponential per
    (sinusoid, sample). Tap after tap it draws the phases, then (at nonzero
    Doppler) the arrival angles; a zero Doppler holds one constant gain."""
    rows = []
    for p in powers:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=num_sinusoids)
        if doppler_hz == 0.0:
            g = np.sum(np.exp(1j * phases)) / np.sqrt(num_sinusoids)
            rows.append(np.sqrt(p) * np.full(num_samples, g, dtype=np.complex128))
            continue
        angles = rng.uniform(0.0, 2.0 * np.pi, size=num_sinusoids)
        t = np.arange(num_samples) / sample_rate_hz
        arg = 2.0 * np.pi * doppler_hz * np.outer(np.cos(angles), t) + phases[:, None]
        rows.append(np.sqrt(p) * np.sum(np.exp(1j * arg), axis=0)
                    / np.sqrt(num_sinusoids))
    return np.stack(rows)


def hst_phase_direct(cfg, t):
    """Closed-form HST carrier phase at one time t, in Python floats:
    2*pi*fd_max/v * (d(0) - d(t)), d(u) the distance to the site at u."""
    def dist(u):
        return float(np.hypot(cfg.dmin_m, cfg.ds_m / 2.0 - cfg.speed_ms * u))

    return 2.0 * np.pi * cfg.max_doppler_hz / cfg.speed_ms * (dist(0.0) - dist(t))


def maxlog_demap_direct(rx, points, labels, noise_var):
    """Brute-force max-log demapper over the full constellation.

    points[i] carries the bit row labels[i]. Per received sample: hard bits
    of the nearest point, and per bit (min distance over points with a zero
    minus min distance over points with a one) / noise_var. Both outputs
    are flattened sample by sample.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    bps = labels.shape[1]
    bits = np.empty((rx.size, bps), dtype=np.int64)
    llr = np.empty((rx.size, bps))
    for n, r in enumerate(rx):
        d = np.abs(r - points) ** 2
        bits[n] = labels[np.argmin(d)]
        for b in range(bps):
            ones = labels[:, b] == 1
            llr[n, b] = (d[~ones].min() - d[ones].min()) / noise_var
    return bits.ravel(), llr.ravel()


def qfunc(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _gray_pam_levels(bits_per_axis):
    """(levels, bit patterns) for the Gray PAM axis used by square QAM."""
    count = 2**bits_per_axis
    patterns = [
        [(i >> (bits_per_axis - 1 - c)) & 1 for c in range(bits_per_axis)]
        for i in range(count)
    ]
    levels = []
    for bits in patterns:
        acc = 0
        idx = 0
        for b in bits:
            acc ^= b
            idx = 2 * idx + acc
        levels.append(2 * idx - (count - 1))
    return np.array(levels, dtype=float), np.array(patterns, dtype=int)


def qam_ber_exact(bits_per_symbol, noise_var):
    """Exact Gray square-QAM bit error rate in complex noise of the given
    variance, for a unit-average-power constellation, via decision-region
    integration on each PAM axis."""
    per_axis = bits_per_symbol // 2
    levels, patterns = _gray_pam_levels(per_axis)
    scale = math.sqrt(2.0 * (4**per_axis - 1) / 3.0)
    pts = np.sort(levels) / scale
    order = np.argsort(levels)
    pat_sorted = patterns[order]
    bounds = (pts[:-1] + pts[1:]) / 2.0
    sigma = math.sqrt(noise_var / 2.0)

    total = 0.0
    count = len(pts)
    for i, x in enumerate(pts):
        # probability of deciding each region given x was sent
        upper = np.concatenate([bounds, [np.inf]])
        lower = np.concatenate([[-np.inf], bounds])
        for j in range(count):
            lo = 1.0 if lower[j] == -np.inf else qfunc((lower[j] - x) / sigma)
            hi = 0.0 if upper[j] == np.inf else qfunc((upper[j] - x) / sigma)
            p_region = lo - hi
            nbit_err = int(np.sum(pat_sorted[i] != pat_sorted[j]))
            total += p_region * nbit_err
    # average over equiprobable levels and per-axis bits; both axes identical
    return total / (count * per_axis)


def bessel_j0(x):
    """J0 via midpoint quadrature of its integral representation."""
    phi = (np.arange(4000) + 0.5) * (np.pi / 4000)
    return float(np.mean(np.cos(x * np.sin(phi))))
