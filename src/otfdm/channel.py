"""Propagation impairments: TDL-C multipath fading, high-speed-train Doppler,
AWGN. Realizations are immutable; applying one to a signal is a pure function
so trials can run concurrently, each with its own rng stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import SeededRng

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


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw: per-tap delayed kernels and gain trajectories.

    kernels has shape (num_taps, ir_len); gains has shape (num_taps,
    num_samples) for time-varying channels or (num_taps, 1) for static ones.
    noise_variance is the complex AWGN power added per output sample.
    """

    kernels: np.ndarray
    gains: np.ndarray
    noise_variance: float

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

    def frequency_response(self, fft_size: int, sample_index: int = 0) -> np.ndarray:
        """fft_size-point response of the realized impulse response."""
        return np.fft.fft(self.impulse_response(sample_index), fft_size)


@functools.lru_cache(maxsize=32)
def _tdlc_kernels(delay_spread_ns: float, sample_rate_hz: float) -> np.ndarray:
    """Read-only (num_taps, ir_len) delay kernels of the TDL-C taps.

    They depend only on the delay spread and the sample rate, so each pair is
    built once, on first use, and shared by every realization.
    """
    delays_s = _TDLC_PROFILE[:, 0] / _TDLC_PROFILE[:, 0].max() * delay_spread_ns * 1e-9
    delays = delays_s * sample_rate_hz
    ir_len = int(np.ceil(delays.max())) + _INTERP_HALFWIDTH + 1
    kernels = np.stack([_delay_kernel(d, ir_len) for d in delays])
    kernels.flags.writeable = False
    return kernels


def _phasor(theta: np.ndarray) -> np.ndarray:
    """exp(1j * theta), written as cos and sin straight into the real and
    imaginary parts (the same values, without the complex exponential)."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _rayleigh_tap_gains(
    powers: np.ndarray,
    num_samples: int,
    doppler_hz: float,
    sample_rate_hz: float,
    rng: SeededRng,
) -> np.ndarray:
    """(num_taps, num_samples) Rayleigh gain trajectories, classical Doppler
    spectrum, tap t with mean power powers[t].

    Each tap is a sum of sinusoids with random phases and arrival angles,
    drawn tap after tap (phases, then angles); a zero Doppler draws phases
    only and holds one constant complex gain. The time-varying sum
    exp(i(w_k n / fs + phi_k)) is evaluated with the sample index split as
    n = B*a + b, B = ceil(sqrt(num_samples)): the product of a coarse table
    over a (carrying phi_k) and a fine table over b, contracted over the
    sinusoids k with one matmul, costs about 2*sqrt(num_samples) complex
    exponentials per sinusoid instead of num_samples.
    """
    taps = powers.size
    amp = np.sqrt(powers)[:, None]
    if doppler_hz == 0.0:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(taps, NUM_SINUSOIDS))
        g = np.sum(np.exp(1j * phases), axis=1) / np.sqrt(NUM_SINUSOIDS)
        return np.repeat(amp * g[:, None], num_samples, axis=1)
    draws = rng.uniform(0.0, 2.0 * np.pi, size=(taps, 2, NUM_SINUSOIDS))
    phases, angles = draws[:, 0, :], draws[:, 1, :]
    w = 2.0 * np.pi * doppler_hz * np.cos(angles)
    block = int(np.ceil(np.sqrt(num_samples)))
    rows = -(-num_samples // block)
    t_coarse = block * np.arange(rows) / sample_rate_hz
    t_fine = np.arange(block) / sample_rate_hz
    coarse = _phasor(t_coarse[None, :, None] * w[:, None, :] + phases[:, None, :])
    fine = _phasor(w[:, :, None] * t_fine[None, None, :])
    g = np.matmul(coarse, fine).reshape(taps, rows * block)
    # scale the real and imaginary parts as reals: the same values as the
    # complex g / sqrt(NUM_SINUSOIDS) * amp, without complex arithmetic
    out = np.empty((taps, num_samples), dtype=np.complex128)
    flat = out.view(np.float64)
    np.multiply(g.view(np.float64)[:, : 2 * num_samples],
                1.0 / np.sqrt(NUM_SINUSOIDS), out=flat)
    flat *= amp
    return out


def tdlc_realization(
    delay_spread_ns: float,
    speed_kmh: float,
    fc_ghz: float,
    sample_rate_hz: float,
    rng: SeededRng,
    num_samples: int = 1,
    noise_variance: float = 0.0,
) -> ChannelRealization:
    """TDL-C fading draw with the profile span scaled to delay_spread_ns.

    Per-tap Rayleigh processes follow the classical Doppler spectrum with
    maximum shift (speed/c) * fc. Average total tap power is one.
    """
    if delay_spread_ns <= 0:
        raise ValueError("tdlc_realization: delay_spread_ns must be > 0")
    powers = 10.0 ** (_TDLC_PROFILE[:, 1] / 10.0)
    powers /= powers.sum()
    kernels = _tdlc_kernels(delay_spread_ns, sample_rate_hz)

    span = num_samples if (speed_kmh > 0 and num_samples > 1) else 1
    doppler = _max_doppler_hz(speed_kmh, fc_ghz) if span > 1 else 0.0
    gains = _rayleigh_tap_gains(powers, span, doppler, sample_rate_hz, rng)
    return ChannelRealization(
        kernels=kernels,
        gains=gains,
        noise_variance=float(noise_variance),
    )


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

    def cos_theta(self, t: float) -> float:
        """Direction cosine toward the site at absolute time t (t=0 puts the
        terminal ds/2 before the closest-approach point)."""
        x = self.ds_m / 2.0 - self.speed_ms * t
        return x / np.hypot(self.dmin_m, x)

    def doppler_hz(self, t: float) -> float:
        return self.max_doppler_hz * self.cos_theta(t)

    def phase_rad(self, t):
        """Accumulated carrier phase 2*pi * integral of the Doppler shift,
        evaluated in closed form; t may be a scalar or an array of times."""
        def dist(u):
            return np.hypot(self.dmin_m, self.ds_m / 2.0 - self.speed_ms * u)

        scale = 2.0 * np.pi * self.max_doppler_hz / self.speed_ms
        phase = scale * (dist(0.0) - dist(np.asarray(t, dtype=np.float64)))
        return float(phase) if phase.ndim == 0 else phase


def hst_realization(
    cfg: HstConfig,
    t0: float,
    duration: float,
    num_samples: int,
    noise_variance: float = 0.0,
) -> ChannelRealization:
    """Single unit-gain path whose phase tracks the geometry-driven Doppler
    over [t0, t0 + duration]. It draws nothing, so one read-only realization
    serves every trial that starts at t0."""
    if num_samples < 1:
        raise ValueError("hst_realization: num_samples must be >= 1")
    t = t0 + np.arange(num_samples) * (duration / max(num_samples, 1))
    phases = cfg.phase_rad(t) - cfg.phase_rad(t0)
    return _shared(ChannelRealization(
        kernels=np.ones((1, 1)),
        gains=_phasor(phases)[None, :],
        noise_variance=float(noise_variance),
    ))


def flat_realization(noise_variance: float = 0.0) -> ChannelRealization:
    """Single unit-gain tap, read-only so that trials can share it."""
    return _shared(ChannelRealization(
        kernels=np.ones((1, 1)),
        gains=np.ones((1, 1), dtype=np.complex128),
        noise_variance=float(noise_variance),
    ))


def _shared(ch: ChannelRealization) -> ChannelRealization:
    """Freeze the arrays of a realization that several trials share."""
    ch.kernels.flags.writeable = False
    ch.gains.flags.writeable = False
    return ch


def custom_realization(
    taps: list[tuple[float, complex]],
    noise_variance: float = 0.0,
) -> ChannelRealization:
    """Static channel from explicit (delay_samples, gain) pairs."""
    if not taps:
        raise ValueError("custom_realization: need at least one tap")
    delays = np.array([d for d, _ in taps], dtype=float)
    if np.any(delays < 0):
        raise ValueError("custom_realization: delays must be >= 0")
    gains = np.array([[g] for _, g in taps], dtype=np.complex128)
    frac = np.any(np.abs(delays - np.round(delays)) > 1e-9)
    ir_len = int(np.ceil(delays.max())) + (_INTERP_HALFWIDTH + 1 if frac else 1)
    kernels = np.stack([_delay_kernel(d, ir_len) for d in delays])
    return ChannelRealization(
        kernels=kernels,
        gains=gains,
        noise_variance=float(noise_variance),
    )


def _tap_sum(x: np.ndarray, kernels: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """sum_t gains[t] * (x convolved with kernels[t]), the last gain held over
    the convolution tail.

    All taps are convolved at once by one real matrix product: row j of the
    sliding window holds the zero-padded signal shifted by j, as interleaved
    (real, imaginary) floats, so the reversed real kernels times the window
    are the complex convolutions of every tap. Within 1e-13 relative of one
    np.convolve per tap; the window is about ir_len * 2 * out_len floats.
    One-sample kernels (HST) only scale the signal, with no window built.
    """
    ir_len = kernels.shape[1]
    out_len = x.size + ir_len - 1
    if ir_len == 1:
        conv = kernels * x
    else:
        padded = np.zeros(x.size + 2 * (ir_len - 1), dtype=np.complex128)
        padded[ir_len - 1 : ir_len - 1 + x.size] = x
        window = sliding_window_view(padded.view(np.float64), 2 * out_len)[::2]
        conv = (np.ascontiguousarray(kernels[:, ::-1])
                @ np.ascontiguousarray(window)).view(np.complex128)
    span = min(gains.shape[1], out_len)
    np.multiply(gains[:, :span], conv[:, :span], out=conv[:, :span])
    np.multiply(gains[:, -1:], conv[:, span:], out=conv[:, span:])
    return conv.sum(axis=0)


def apply_channel(signal, ch: ChannelRealization, rng: SeededRng) -> np.ndarray:
    """Time-varying linear convolution with the realized taps, plus AWGN.

    Output length is the signal length plus the impulse-response span so the
    full convolution tail is kept.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if x.size == 0:
        raise ValueError("apply_channel: empty signal")
    out_len = x.size + ch.ir_len - 1
    if ch.is_static:
        # impulse_response() is a new, writeable array: np.convolve is
        # several times slower on a read-only kernel
        y = np.convolve(x, ch.impulse_response())
    else:
        y = _tap_sum(x, ch.kernels, ch.gains)
    if ch.noise_variance > 0.0:
        y += rng.complex_normal(out_len, ch.noise_variance)
    return y
