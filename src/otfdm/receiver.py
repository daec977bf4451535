"""Receive chain for one symbol: front end, matched filter with spectrum
folding, self-contained channel estimation from the embedded RS, MMSE
equalization, tail-pilot phase correction, hard-decision demapping.

Every stage takes and returns plain arrays, works on the last axis and
takes any leading axes as independent symbols (trials), so a stack of T
received symbols runs through the chain in one call per stage; row t of the
result is exactly what the 1-D call on row t returns.

The estimator divides the received RS spectrum by the known part of the
composite response (reference sequence times the folded squared shaping
gain). For fold-flat filters the folded gain is identically one and the
chain reduces to a plain least-squares division by the RS spectrum; tap
filters null subcarriers outright, which is why the division must be
regularized (`ridge`) to stay solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import cyclic_fold
from .sequences import FrameLayout, ModScheme, ShapingFilter, modulate
from .transmitter import WaveformGrid

__all__ = [
    "SingularReference",
    "DegenerateEqualizer",
    "EstimatorConfig",
    "front_end",
    "fold_spectrum",
    "check_reference",
    "estimate_channel",
    "mmse_equalize",
    "ars_phase_correct",
    "hard_bits",
    "dump_diagnostics",
]


class SingularReference(ValueError):
    """Unregularized LS with a reference spectrum that has a null."""


class DegenerateEqualizer(ValueError):
    """Zero noise variance with a zero channel estimate on some subcarrier."""


# Cyclic pre-cursor samples the estimator window keeps, beyond window_len,
# for fractional-delay leakage.
PRE_MARGIN = 2


@dataclass(frozen=True)
class EstimatorConfig:
    """Channel-estimator knobs.

    window_len samples of the impulse response are retained (rectangular
    window), plus PRE_MARGIN cyclic pre-cursor samples. ridge is the LS
    regularization added to the squared reference magnitude.
    """

    window_len: int
    ridge: float = 0.0

    def __post_init__(self):
        if self.window_len < 1:
            raise ValueError("EstimatorConfig: window_len must be >= 1")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError("EstimatorConfig: ridge must be finite and >= 0, "
                             f"got {self.ridge!r}")


def front_end(rx, grid: WaveformGrid) -> np.ndarray:
    """Strip the symbol CP, transform, and demap the extended block.

    The fixed alloc/fft scale undoes the transmit normalization, so a clean
    loopback returns exactly the shaped block that was mapped.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    need = grid.fft_size + grid.cp_len
    if rx.ndim == 0 or rx.shape[-1] < need:
        raise ValueError(
            f"front_end: need at least {need} samples, got {rx.shape[-1:]}"
        )
    body = rx[..., grid.cp_len : grid.cp_len + grid.fft_size]
    spectrum = np.fft.fft(body)
    return spectrum[..., grid.mapped_bins()] * (grid.alloc_size / grid.fft_size)


def fold_spectrum(demapped, filt: ShapingFilter) -> np.ndarray:
    """Matched-filter the extended block and alias it to the allocation size,
    the symbol-rate spectrum with the allocation length on its last axis.

    Each output bin k accumulates w*y over the extended positions congruent
    to k modulo the allocation; out-of-range aliases contribute nothing.
    """
    y = np.asarray(demapped, dtype=np.complex128)
    m, g = filt.alloc_size, filt.excess
    if y.ndim == 0 or y.shape[-1] != m + 2 * g:
        raise ValueError(
            f"fold_spectrum: block length {y.shape[-1:]} != extended size "
            f"{m + 2 * g}"
        )
    return cyclic_fold(filt.weights * y, m, g)


def _reference_gain(composite: np.ndarray, rs_len: int) -> np.ndarray:
    """Known composite gain (the folded squared filter response) resampled
    onto the RS-length grid through an rs_len-point cyclic lens;
    identically one for fold-flat filters."""
    impulse = np.fft.ifft(composite)
    return np.fft.fft(cyclic_fold(impulse, rs_len))


def _row_floor(power: np.ndarray, scale: float) -> np.ndarray:
    """Per-symbol null threshold scale * max(row max, 1), broadcastable
    against `power`."""
    return scale * np.maximum(power.max(axis=-1, keepdims=True), 1.0)


def _reference(rs_core, layout: FrameLayout, composite: np.ndarray,
               est: EstimatorConfig) -> tuple:
    """(spectrum, power) of the known RS reference: the reference spectrum
    times the folded filter gain, and its squared magnitude. Without ridge,
    a null in the spectrum raises SingularReference."""
    rs_core = np.asarray(rs_core, dtype=np.complex128)
    l_r = layout.rs_len
    if rs_core.ndim == 0 or rs_core.shape[-1] != l_r or l_r < 1:
        raise ValueError(
            f"estimate_channel: rs core length {rs_core.shape[-1:]} != {l_r}"
        )
    if est.window_len > l_r:
        raise ValueError("estimate_channel: window_len exceeds the RS core length")
    spectrum = np.fft.fft(rs_core) * _reference_gain(composite, l_r)
    power = np.abs(spectrum) ** 2
    if est.ridge == 0.0 and np.any(power <= _row_floor(power, 1e-12)):
        raise SingularReference(
            "estimate_channel: reference spectrum has a null; "
            "set ridge > 0 to regularize"
        )
    return spectrum, power


def check_reference(rs_core, layout: FrameLayout, filt: ShapingFilter,
                    est: EstimatorConfig) -> None:
    """Raise what `estimate_channel` would raise about this RS core, layout,
    filter and estimator, before any symbol is received: SingularReference
    for a null in an unregularized reference spectrum, ValueError for a core
    or window that does not fit the layout."""
    _reference(rs_core, layout, filt.folded_square(), est)


def estimate_channel(folded, filt: ShapingFilter, layout: FrameLayout,
                     rs_core, est: EstimatorConfig) -> np.ndarray:
    """Alloc-length composite frequency response of each folded symbol
    (`fold_spectrum` with `filt`), estimated from its embedded RS.

    Reconstruct the time symbol, extract the protected RS core, divide its
    spectrum by the known reference (regularized by `ridge`), window the
    resulting impulse response, and re-expand to the allocation grid.
    rs_core holds the RS core of each folded symbol.
    """
    folded = np.asarray(folded, dtype=np.complex128)
    m = folded.shape[-1]
    l_r = layout.rs_len
    if layout.total_len != m or filt.alloc_size != m:
        raise ValueError("estimate_channel: layout or filter does not match "
                         "the folded symbol")
    composite = filt.folded_square()
    ref_spectrum, denom = _reference(rs_core, layout, composite, est)

    time_symbol = np.fft.ifft(folded)
    start = layout.rs_core_start
    rs_spectrum = np.fft.fft(time_symbol[..., start : start + l_r])
    impulse = np.fft.ifft(rs_spectrum * np.conj(ref_spectrum) / (denom + est.ridge))

    # rectangular window, cyclically embedded: causal taps at the front,
    # pre-cursor taps at the tail
    margin = min(PRE_MARGIN, l_r - est.window_len)
    padded = np.zeros(impulse.shape[:-1] + (m,), dtype=np.complex128)
    padded[..., : est.window_len] = impulse[..., : est.window_len]
    if margin > 0:
        padded[..., m - margin :] = impulse[..., l_r - margin :]
    return np.fft.fft(padded) * composite


def mmse_equalize(folded, response, noise_var: float) -> np.ndarray:
    """Per-subcarrier MMSE equalization of each folded symbol with its
    frequency response (estimated, or known to an oracle receiver), and
    return to the time domain: the equalized time symbol.

    noise_var is the noise-to-signal power ratio per folded subcarrier
    (inverse linear SNR); zero gives the zero-forcing limit and requires a
    null-free response.
    """
    if not (math.isfinite(noise_var) and noise_var >= 0):
        raise ValueError("mmse_equalize: noise_var must be finite and >= 0, "
                         f"got {noise_var!r}")
    h = np.asarray(response, dtype=np.complex128)
    if h.ndim == 0 or h.shape[-1] != np.shape(folded)[-1]:
        raise ValueError("mmse_equalize: response length != folded symbol length")
    power = np.abs(h) ** 2
    if noise_var == 0.0 and np.any(power <= _row_floor(power, 1e-24)):
        raise DegenerateEqualizer(
            "mmse_equalize: zero response with zero noise variance"
        )
    return np.fft.ifft(np.conj(h) / (power + noise_var) * folded)


def ars_phase_correct(equalized, ars_ref, layout: FrameLayout) -> tuple:
    """Estimate the per-sample phase increment from the tail pilots and
    derotate the data segment: (time, phase_step) of each equalized time
    symbol, phase_step a float for one symbol and one step per symbol for a
    stack.

    The phase reference sits at the end of the RS core, so pilot sample n
    carries phase (n + rs_cs + data_len) * step and data sample n carries
    (n + rs_cs) * step. Unambiguous while |step| * alloc stays below pi.
    """
    ars_ref = np.asarray(ars_ref, dtype=np.complex128)
    if layout.ars_len < 1:
        raise ValueError("ars_phase_correct: layout has no ARS allocation")
    if ars_ref.ndim == 0 or ars_ref.shape[-1] != layout.ars_len:
        raise ValueError("ars_phase_correct: reference length != layout ars_len")
    time = np.array(equalized, dtype=np.complex128)
    if time.ndim == 0 or time.shape[-1] != layout.total_len:
        raise ValueError("ars_phase_correct: equalized length != layout size")

    n = np.arange(layout.ars_len)
    positions = n + layout.rs_cs + layout.data_len
    angles = np.angle(time[..., layout.ars_start :] * np.conj(ars_ref))
    step = np.mean(angles / positions, axis=-1)
    if step.ndim == 0:
        step = float(step)

    lo, hi = layout.data_start, layout.ars_start
    rot = np.exp(-1j * (np.arange(layout.data_len) + layout.rs_cs)
                 * np.expand_dims(step, -1))
    time[..., lo:hi] = time[..., lo:hi] * rot
    return time, step


def _nearest_level(r: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Index of the level nearest to each finite r in squared distance, the
    lowest index on ties: what a scan of every level's (r - level)**2
    returns for |r| < 2**40, and the outer level on r's side beyond.

    Only the two levels that bracket r can be nearest, so only their
    distances are compared. r is first clipped to one level step beyond the
    outer levels, which keeps the nearest level and keeps huge r from
    rounding its two distances into a tie.
    """
    # the levels are evenly spaced, so r's bracket is one floor away; off by
    # one only where r is within rounding of a level, which both brackets hold
    order = np.argsort(levels)
    low, step = levels[order[0]], np.ptp(levels) / (levels.size - 1)
    r = np.clip(r, low - step, levels[order[-1]] + step)
    j = np.clip(np.floor((r - low) / step), 0, levels.size - 2).astype(np.intp)
    lo, hi = order[j], order[j + 1]
    first, last = np.minimum(lo, hi), np.maximum(lo, hi)
    return np.where((r - levels[last]) ** 2 < (r - levels[first]) ** 2, last, first)


def _received(symbols) -> np.ndarray:
    rx = np.asarray(symbols, dtype=np.complex128)
    if rx.ndim == 0 or rx.size == 0:
        raise ValueError("hard_bits: empty input")
    if not np.all(np.isfinite(rx)):
        raise ValueError("hard_bits: non-finite received symbol (NaN or inf)")
    return rx


def _pi2_bpsk_distances(rx: np.ndarray) -> np.ndarray:
    """Squared distances of the de-rotated symbols to the two BPSK points."""
    rot = np.where(np.arange(rx.shape[-1]) % 2 == 1, 1j, 1.0 + 0j)
    ref = np.array([(1 + 1j) / np.sqrt(2.0), -(1 + 1j) / np.sqrt(2.0)])
    return np.abs((rx * np.conj(rot))[..., None] - ref) ** 2


def _qam_axes(rx: np.ndarray, scheme: ModScheme) -> tuple:
    """(labels, ((0, rx.real, I levels), (1, rx.imag, Q levels))) of square QAM.

    The squared distance splits into I and Q parts, so each bit needs only
    the Gray-PAM levels of its own axis (even bit positions ride on I, odd
    ones on Q); labels[k] holds the bits of level k. Sending every per-axis
    label on both axes reads those levels off `modulate`.
    """
    half = scheme.bits_per_symbol // 2
    labels = (np.arange(2**half)[:, None] >> np.arange(half - 1, -1, -1)) & 1
    points = modulate(np.repeat(labels, 2, axis=1).ravel(), scheme)
    return labels, ((0, rx.real, points.real), (1, rx.imag, points.imag))


def hard_bits(symbols, scheme: ModScheme) -> np.ndarray:
    """Minimum-distance hard bits, the symbols' bits in order along the last
    axis: the labels of the nearest constellation point."""
    rx = _received(symbols)
    if scheme.name == "PI2_BPSK":
        d = _pi2_bpsk_distances(rx)
        return (d[..., 1] < d[..., 0]).astype(np.int64)
    labels, axes = _qam_axes(rx, scheme)
    half = labels.shape[1]
    bits = np.empty(rx.shape + (2 * half,), dtype=np.int64)
    for axis, r, levels in axes:
        nearest = _nearest_level(r, levels)
        for c in range(half):
            bits[..., axis + 2 * c] = labels[:, c][nearest]
    return bits.reshape(rx.shape[:-1] + (-1,))


# Leading values of each array that the diagnostics dump prints.
DIAGNOSTIC_ITEMS = 8


def dump_diagnostics(demapped, folded, response, equalized, phase_step: float,
                     layout: FrameLayout) -> str:
    """Structured text snapshot of the receive chain for one symbol of
    `layout`: the `front_end` output, its `fold_spectrum`, the response the
    equalizer used, the equalized (or derotated) time symbol and the ARS
    phase step."""

    def fmt(name, vec):
        vec = np.asarray(vec)
        head = ", ".join(f"{z.real:+.5f}{z.imag:+.5f}j"
                         for z in vec.ravel()[:DIAGNOSTIC_ITEMS])
        more = ", ..." if vec.size > DIAGNOSTIC_ITEMS else ""
        return f"{name}[{vec.size}]: {head}{more}"

    lo = layout.rs_core_start
    lines = [fmt("demapped", demapped), fmt("folded", folded),
             fmt("channel_estimate", response),
             fmt("eq_rs_core", equalized[..., lo : lo + layout.rs_len]),
             fmt("eq_data", equalized[..., layout.data_start : layout.ars_start])]
    if layout.ars_len:
        lines.append(fmt("eq_ars", equalized[..., layout.ars_start :]))
    lines.append(f"phase_step: {phase_step:+.3e} rad/sample")
    return "\n".join(lines)
