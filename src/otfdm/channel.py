"""Propagation impairments: TDL-C multipath fading, high-speed-train Doppler,
AWGN. A realization holds only the propagation draw, and `apply_channel` only
propagates: the receiver noise is the caller's to add, on its own rng stream,
so trials can run concurrently, each with its own stream.

Which arrays a realization may share: the AWGN and HST realizations are run
constants (`numerics.shared`), one read-only realization per key that every
trial reads. A TDL-C realization's gains are a new, writable array of its
caller's (its delay kernels are a shared, read-only run constant), and so
are a custom realization's kernels and gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import SeededRng, shared

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelRealization",
    "HstConfig",
    "tdlc_realization",
    "hst_realization",
    "flat_realization",
    "custom_realization",
    "apply_channel",
]

SPEED_OF_LIGHT = 299_792_458.0

# TDL-C (NLOS) normalized power-delay profile from the standard channel-model
# tables: (delay normalized to the span, tap power in dB).
_TDLC_PROFILE = np.array(
    [
        (0.0000, -4.4),
        (0.2099, -1.2),
        (0.2219, -3.5),
        (0.2329, -5.2),
        (0.2176, -2.5),
        (0.6366, 0.0),
        (0.6448, -2.2),
        (0.6560, -3.9),
        (0.6584, -7.4),
        (0.7935, -7.1),
        (0.8213, -10.7),
        (0.9336, -11.1),
        (1.2285, -5.1),
        (1.3083, -6.8),
        (2.1704, -8.7),
        (2.7105, -13.2),
        (4.2589, -13.9),
        (4.6003, -13.9),
        (5.4902, -15.8),
        (5.6077, -17.1),
        (6.3065, -16.0),
        (6.6374, -15.7),
        (7.0427, -21.6),
        (8.6523, -22.8),
    ]
)

# The profile's tap powers, linear and normalized to sum one; read-only.
_TDLC_POWERS = 10.0 ** (_TDLC_PROFILE[:, 1] / 10.0)
_TDLC_POWERS /= _TDLC_POWERS.sum()
_TDLC_POWERS.flags.writeable = False

# Half-width of the windowed-sinc kernel realizing fractional tap delays.
_INTERP_HALFWIDTH = 16

# Sinusoids summed per Rayleigh tap (classical Doppler spectrum).
NUM_SINUSOIDS = 32


def _max_doppler_hz(speed_kmh: float, fc_ghz: float) -> float:
    """Largest Doppler shift (speed / c) * fc of a terminal at speed_kmh."""
    return (speed_kmh / 3.6) / SPEED_OF_LIGHT * fc_ghz * 1e9


def _delay_kernel(delay: float, length: int) -> np.ndarray:
    """Unit-energy kernel placing a tap at a (possibly fractional) delay.

    Integer delays resolve to an exact one-sample kernel; fractional delays
    use a Hann-windowed sinc, clipped to [0, length) to stay causal and
    renormalized so the tap keeps its assigned power.
    """
    kernel = np.zeros(length)
    nearest = int(round(delay))
    if abs(delay - nearest) < 1e-9:
        kernel[nearest] = 1.0
        return kernel
    n = np.arange(length, dtype=np.float64)
    arg = n - delay
    window = np.zeros(length)
    span = np.abs(arg) <= _INTERP_HALFWIDTH
    window[span] = 0.5 * (1.0 + np.cos(np.pi * arg[span] / _INTERP_HALFWIDTH))
    kernel = np.sinc(arg) * window
    return kernel / np.sqrt(np.sum(kernel**2))


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One channel draw: per-tap delayed kernels and gain trajectories.

    kernels has shape (num_taps, ir_len); gains has shape (num_taps,
    num_samples) for time-varying channels or (num_taps, 1) for static ones.
    A one-sample realization (flat AWGN, HST) is one tap of kernel 1.0, so
    applying it only scales the signal by its gains. Realizations compare
    and hash by identity, as draws, not by value.
    """

    kernels: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        if self.ir_len == 1 and self.kernels.tolist() != [[1.0]]:
            raise ValueError("ChannelRealization: a one-sample realization "
                             "must be one tap of kernel 1.0")

    @property
    def ir_len(self) -> int:
        return self.kernels.shape[1]

    @property
    def is_static(self) -> bool:
        return self.gains.shape[1] == 1

    def impulse_response(self, sample_index: int = 0) -> np.ndarray:
        """Realized discrete impulse response at one output instant."""
        col = 0 if self.is_static else min(sample_index, self.gains.shape[1] - 1)
        return self.gains[:, col] @ self.kernels


@shared
def _tdlc_kernels(delay_spread_ns: float, sample_rate_hz: float) -> np.ndarray:
    """Read-only (num_taps, ir_len) delay kernels of the TDL-C taps.

    They depend only on the delay spread and the sample rate, so each pair is
    built once, on first use, and shared by every realization.
    """
    delays_s = _TDLC_PROFILE[:, 0] / _TDLC_PROFILE[:, 0].max() * delay_spread_ns * 1e-9
    delays = delays_s * sample_rate_hz
    ir_len = int(np.ceil(delays.max())) + _INTERP_HALFWIDTH + 1
    return np.stack([_delay_kernel(d, ir_len) for d in delays])


def _phasor(theta: np.ndarray) -> np.ndarray:
    """exp(1j * theta), written as cos and sin straight into the real and
    imaginary parts (the same values, without the complex exponential)."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


# Taylor terms of exp(i*x) are kept until the remainder x^(m+1)/(m+1)! of the
# series over a block falls below this.
_SERIES_TOL = 2.0**-60

# i^m for m mod 4, exact.
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _series_order(x: float) -> int:
    """Smallest order m with x^(m+1)/(m+1)! < _SERIES_TOL, so that the Taylor
    polynomial of exp(i*theta) of order m errs by less than _SERIES_TOL for
    every |theta| <= x."""
    order, term = 0, x
    while term >= _SERIES_TOL:
        order += 1
        term *= x / (order + 1)
    return order


@shared
def _offset_powers(order: int, block: int) -> np.ndarray:
    """Read-only (order + 1, block) table of d_b^m / m!, d_b = b - (block -
    1) / 2 the offset of sample b from its block's centre."""
    offsets = np.arange(block) - (block - 1) / 2.0
    table = np.ones((order + 1, block))
    for m in range(1, order + 1):
        table[m] = table[m - 1] * offsets / m
    return table


def _rayleigh_tap_gains(
    powers: np.ndarray,
    num_samples: int,
    doppler_hz: float,
    sample_rate_hz: float,
    rng: SeededRng,
) -> np.ndarray:
    """(num_taps, num_samples) Rayleigh gain trajectories, classical Doppler
    spectrum, tap t with mean power powers[t].

    Each tap is a sum of sinusoids exp(i(w_k n / fs + phi_k)) with random
    phases and arrival angles, drawn tap after tap (phases, then angles); a
    zero Doppler draws phases only and holds one constant complex gain.

    A time-varying sum is evaluated without trigonometry per sample. The
    trajectory is cut into blocks of B = max(1, min(n, floor(1 / w_max)))
    samples, w_max = 2 pi f_d / fs, so no sinusoid turns by more than 0.5
    rad between a block's centre and its edge. Each sinusoid's phasor is
    exact at every block centre; inside the block exp(i w_k d / fs), d the
    offset from the centre, is its Taylor polynomial of the lowest order
    whose remainder x^(m+1)/(m+1)! over the block stays below 2^-60. Two
    small matmuls contract it: the centre phasors times the real (w_k / fs)^m
    table, times i^m, then that times the cached table of d^m / m!, as real
    products on interleaved floats. On a grid of 30-900 km/h, 7 and 100 GHz,
    28.8-72 Ms/s and 1-2568 samples (one block up to 48) it agrees with the
    direct per-sample formula (`tests/oracles.py:jakes_direct`, same draws)
    within 3.8e-15 absolute.
    """
    taps = powers.size
    amp = np.sqrt(powers)[:, None]
    if doppler_hz == 0.0:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(taps, NUM_SINUSOIDS))
        g = np.sum(_phasor(phases), axis=1) / np.sqrt(NUM_SINUSOIDS)
        return np.repeat(amp * g[:, None], num_samples, axis=1)
    draws = rng.uniform(0.0, 2.0 * np.pi, size=(taps, 2, NUM_SINUSOIDS))
    phases, angles = draws[:, 0, :], draws[:, 1, :]
    w = 2.0 * np.pi * doppler_hz * np.cos(angles)
    w_max = 2.0 * np.pi * abs(doppler_hz) / sample_rate_hz
    block = max(1, min(num_samples, int(1.0 / w_max)))
    blocks = -(-num_samples // block)
    order = _series_order(w_max * (block - 1) / 2.0)
    centres = (block * np.arange(blocks) + (block - 1) / 2.0) / sample_rate_hz
    phasors = _phasor(w[:, :, None] * centres + phases[:, :, None])
    # coef[m, t, k] = amp[t] / sqrt(K) * (w[t, k] / fs)^m; the 1/m! is in
    # the offset table
    coef = np.empty((order + 1, taps, NUM_SINUSOIDS))
    coef[0] = amp / np.sqrt(NUM_SINUSOIDS)
    step = w / sample_rate_hz
    for m in range(1, order + 1):
        np.multiply(coef[m - 1], step, out=coef[m])
    # (taps, order + 1, blocks) series coefficients: a real product with the
    # phasors' interleaved (real, imaginary) parts, then times i^m
    series = np.matmul(coef.transpose(1, 0, 2), phasors.view(np.float64))
    series = series.view(np.complex128)
    series *= _I_POWERS[np.arange(order + 1) % 4, None]
    # per (tap, block): offset powers (block, order + 1) times the
    # coefficients as (order + 1, 2) interleaved floats
    series = np.ascontiguousarray(series.transpose(0, 2, 1))
    g = np.matmul(_offset_powers(order, block).T,
                  series.view(np.float64).reshape(taps * blocks, order + 1, 2))
    g = g.reshape(taps, 2 * blocks * block).view(np.complex128)
    if blocks * block == num_samples:
        return g
    return np.ascontiguousarray(g[:, :num_samples])


def tdlc_realization(
    delay_spread_ns: float,
    speed_kmh: float,
    fc_ghz: float,
    sample_rate_hz: float,
    rng: SeededRng,
    num_samples: int = 1,
) -> ChannelRealization:
    """TDL-C fading draw with the profile span scaled to delay_spread_ns.

    Per-tap Rayleigh processes follow the classical Doppler spectrum with
    maximum shift (speed/c) * fc. Average total tap power is one.
    """
    if delay_spread_ns <= 0:
        raise ValueError("tdlc_realization: delay_spread_ns must be > 0")
    kernels = _tdlc_kernels(delay_spread_ns, sample_rate_hz)

    span = num_samples if (speed_kmh > 0 and num_samples > 1) else 1
    doppler = _max_doppler_hz(speed_kmh, fc_ghz) if span > 1 else 0.0
    gains = _rayleigh_tap_gains(_TDLC_POWERS, span, doppler, sample_rate_hz, rng)
    return ChannelRealization(kernels=kernels, gains=gains)


@dataclass(frozen=True)
class HstConfig:
    """Straight-track geometry: the terminal passes a site at perpendicular
    distance dmin_m, with ds_m the along-track span between direction flips."""

    ds_m: float = 300.0
    dmin_m: float = 2.0
    speed_kmh: float = 500.0
    fc_ghz: float = 7.0

    def __post_init__(self):
        if min(self.ds_m, self.dmin_m, self.speed_kmh, self.fc_ghz) <= 0:
            raise ValueError("HstConfig: all parameters must be positive")

    @property
    def speed_ms(self) -> float:
        return self.speed_kmh / 3.6

    @property
    def max_doppler_hz(self) -> float:
        return _max_doppler_hz(self.speed_kmh, self.fc_ghz)

    def phase_rad(self, t):
        """Accumulated carrier phase 2*pi * integral of the Doppler shift,
        evaluated in closed form; t may be a scalar or an array of times."""
        def dist(u):
            return np.hypot(self.dmin_m, self.ds_m / 2.0 - self.speed_ms * u)

        scale = 2.0 * np.pi * self.max_doppler_hz / self.speed_ms
        phase = scale * (dist(0.0) - dist(np.asarray(t, dtype=np.float64)))
        return float(phase) if phase.ndim == 0 else phase


@shared
def hst_realization(
    cfg: HstConfig,
    t0: float,
    duration: float,
    num_samples: int,
) -> ChannelRealization:
    """Single unit-gain path whose phase tracks the geometry-driven Doppler
    over [t0, t0 + duration]. It draws nothing, so it is a run constant: one
    read-only realization serves every trial that starts at t0."""
    if num_samples < 1:
        raise ValueError("hst_realization: num_samples must be >= 1")
    t = t0 + np.arange(num_samples) * (duration / num_samples)
    phases = cfg.phase_rad(t) - cfg.phase_rad(t0)
    return ChannelRealization(
        kernels=np.ones((1, 1)),
        gains=_phasor(phases)[None, :],
    )


@shared
def flat_realization() -> ChannelRealization:
    """Single unit-gain tap: one read-only realization that every trial shares."""
    return ChannelRealization(
        kernels=np.ones((1, 1)),
        gains=np.ones((1, 1), dtype=np.complex128),
    )


def custom_realization(taps: list[tuple[float, complex]]) -> ChannelRealization:
    """Static channel from explicit (delay_samples, gain) pairs."""
    if not taps:
        raise ValueError("custom_realization: need at least one tap")
    delays = np.array([d for d, _ in taps], dtype=float)
    if np.any(delays < 0):
        raise ValueError("custom_realization: delays must be >= 0")
    gains = np.array([[g] for _, g in taps], dtype=np.complex128)
    frac = np.any(np.abs(delays - np.round(delays)) > 1e-9)
    ir_len = int(np.ceil(delays.max())) + (_INTERP_HALFWIDTH + 1 if frac else 1)
    if ir_len == 1:
        # every tap at delay 0: the same channel is one tap of their sum
        return ChannelRealization(kernels=np.ones((1, 1)),
                                  gains=gains.sum(axis=0, keepdims=True))
    kernels = np.stack([_delay_kernel(d, ir_len) for d in delays])
    return ChannelRealization(kernels=kernels, gains=gains)


# Output samples per tile of the tap-sum product. One tile's window copy is
# ir_len * 2 * 128 floats, 108 KiB for the 54-sample kernels of a 1000 ns
# TDL-C profile at 36 Ms/s, and its product taps * 2 * 128 floats, 48 KiB
# for that profile's 24 taps. Per tap sum of a 1284-sample realization of
# that profile (2 vCPUs, numpy 2.4.6, best of 7 x 200): one product over the
# whole window took 1210-1290 us at OpenBLAS's default two threads and
# 320-450 us at one; tiles of 128 written into one taps x samples array took
# 260-370 us at either count, and weighted and summed in their own buffer
# 276-283 us at two threads and 322-349 us at one. Tiles of 64 took 420-510
# us, and tiles of 256 were no faster than 128.
_TILE = 128


def _weight(gains: np.ndarray, block: np.ndarray, lo: int) -> None:
    """Multiply block (taps, samples), every tap's samples from lo on, in
    place by its gains, the last one held past the end of the trajectory."""
    span = min(max(gains.shape[1] - lo, 0), block.shape[1])
    np.multiply(gains[:, lo : lo + span], block[:, :span], out=block[:, :span])
    if span < block.shape[1]:
        np.multiply(gains[:, -1:], block[:, span:], out=block[:, span:])


def _tap_sum(x: np.ndarray, kernels: np.ndarray,
             gains: np.ndarray) -> np.ndarray:
    """sum_t gains[t] * (x convolved with kernels[t]), the last gain held over
    the convolution tail.

    All taps are convolved at once by a real matrix product: row j of the
    sliding window holds the zero-padded signal shifted by j, as interleaved
    (real, imaginary) floats, so the reversed real kernels times the window
    are the complex convolutions of every tap. The product runs tile by tile
    over _TILE output samples: each tile's window is copied once (ir_len * 2
    * _TILE floats), its product goes into one (taps, 2 * _TILE) buffer reused
    by every tile, is weighted by its gain columns there and summed over taps
    straight into its samples of the result, so no taps x samples array is
    built. Every output is the same length-ir_len dot product as in one
    product over the whole window, times the same gain, with taps summed in
    the same order. Within 1e-13 relative of one np.convolve per tap.
    """
    ir_len = kernels.shape[1]
    out_len = x.size + ir_len - 1
    padded = np.zeros(x.size + 2 * (ir_len - 1), dtype=np.complex128)
    padded[ir_len - 1 : ir_len - 1 + x.size] = x
    window = sliding_window_view(padded.view(np.float64), 2 * out_len)[::2]
    reversed_kernels = np.ascontiguousarray(kernels[:, ::-1])
    buf = np.empty((kernels.shape[0], 2 * _TILE))
    y = np.empty(out_len, dtype=np.complex128)
    flat = y.view(np.float64)
    for lo in range(0, out_len, _TILE):
        cols = slice(2 * lo, 2 * min(lo + _TILE, out_len))
        tile = buf[:, : cols.stop - cols.start]
        np.matmul(reversed_kernels, np.ascontiguousarray(window[:, cols]),
                  out=tile)
        _weight(gains, tile.view(np.complex128), lo)
        # summed as floats: a one-sample tile summed as complex would reduce
        # its taps pairwise, not in order
        np.add.reduce(tile, axis=0, out=flat[cols])
    return y


def apply_channel(signal, ch: ChannelRealization, out=None) -> np.ndarray:
    """Time-varying linear convolution with the realized taps: propagation
    only, the receiver noise is the caller's to add.

    Output length is the signal length plus the impulse-response span so the
    full convolution tail is kept. One-sample channels (flat AWGN, HST) scale
    the signal by their gains in one pass; they also take stacked rows, each
    as the 1-D call, and `out`, which may be the signal. Longer ones refuse
    both.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if x.size == 0:
        raise ValueError("apply_channel: empty signal")
    if ch.ir_len == 1:
        # the gains, the last held past the end of the trajectory, times the
        # signal: gains first, as numpy's complex product is not symmetric
        # to the bit, and varying gains a row at a time, as numpy gives a
        # broadcast operand of a stack a ~128 KiB buffer, one more heap
        # block for glibc to trim and refault
        g, n = ch.gains[0], x.shape[-1]
        if 1 < g.size != n:
            g = g[np.minimum(np.arange(n), g.size - 1)]
        y = np.empty_like(x) if out is None else out
        for row, dest in zip(x, y) if x.ndim == 2 and g.size > 1 else [(x, y)]:
            np.multiply(g, row, out=dest)
        return y
    if x.ndim > 1 or out is not None:
        raise ValueError("apply_channel: a stacked signal or out= needs a "
                         f"one-sample channel, not {ch.ir_len} samples long")
    if ch.is_static:
        # impulse_response() is a new, writeable array: np.convolve is
        # several times slower on a read-only kernel
        return np.convolve(x, ch.impulse_response())
    return _tap_sum(x, ch.kernels, ch.gains)
