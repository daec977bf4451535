"""Receive chain for one symbol: front end, matched filter with spectrum
folding, self-contained channel estimation from the embedded RS, MMSE
equalization, tail-pilot phase correction, demodulation.

Every stage works on the last axis and takes any leading axes as
independent symbols (trials), so a stack of T received symbols runs
through the chain in one call per stage; row t of the result is exactly
what the 1-D call on row t returns.

The estimator divides the received RS spectrum by the known part of the
composite response (reference sequence times the folded squared shaping
gain). For fold-flat filters the folded gain is identically one and the
chain reduces to a plain least-squares division by the RS spectrum; tap
filters null subcarriers outright, which is why the division must be
regularized (`ridge`) to stay solvable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .numerics import cyclic_fold
from .sequences import ONE_SIDED_CP, FrameLayout, ModScheme, ShapingFilter, modulate
from .transmitter import WaveformGrid

__all__ = [
    "SingularReference",
    "DegenerateEqualizer",
    "FoldedSymbol",
    "EstimatorConfig",
    "ChannelEstimate",
    "EqualizedSymbol",
    "front_end",
    "fold_spectrum",
    "check_reference",
    "estimate_channel",
    "genie_estimate",
    "mmse_equalize",
    "ars_phase_correct",
    "hard_bits",
    "demodulate",
    "dump_diagnostics",
]


class SingularReference(ValueError):
    """Unregularized LS with a reference spectrum that has a null."""


class DegenerateEqualizer(ValueError):
    """Zero noise variance with a zero channel estimate on some subcarrier."""


@dataclass(frozen=True)
class FoldedSymbol:
    """Symbol-rate spectrum after matched filtering and folding.

    folded has the allocation length on its last axis; the demapped
    extended block and the filter that produced the fold are kept for
    diagnostics and estimation.
    """

    folded: np.ndarray
    demapped: np.ndarray
    filt: ShapingFilter

    @property
    def alloc_size(self) -> int:
        return self.folded.shape[-1]


# Cyclic pre-cursor samples the estimator window keeps, beyond window_len,
# for fractional-delay leakage.
PRE_MARGIN = 2


@dataclass(frozen=True)
class EstimatorConfig:
    """Channel-estimator knobs.

    window_len samples of the impulse response are retained (rectangular
    window), plus PRE_MARGIN cyclic pre-cursor samples. ridge is the LS
    regularization added to the squared reference magnitude. rs_offset
    picks the extraction point inside the prefix for one-sided layouts
    (None -> middle of the prefix).
    """

    window_len: int
    ridge: float = 0.0
    rs_offset: int | None = None

    def __post_init__(self):
        if self.window_len < 1:
            raise ValueError("EstimatorConfig: window_len must be >= 1")
        if self.ridge < 0:
            raise ValueError("EstimatorConfig: ridge must be >= 0")


@dataclass(frozen=True)
class ChannelEstimate:
    """Alloc-length frequency response estimate plus the intermediates
    (RS-length arrays), one row per symbol."""

    response: np.ndarray
    rs_ls: np.ndarray
    rs_impulse: np.ndarray
    rs_windowed: np.ndarray
    layout: FrameLayout


@dataclass(frozen=True)
class EqualizedSymbol:
    """Equalized spectrum and time symbol, split into layout segments along
    the last axis. phase_step is a float for one symbol and holds one step
    per symbol for a stack."""

    spectrum: np.ndarray
    time: np.ndarray
    layout: FrameLayout
    phase_step: float | np.ndarray = 0.0

    @property
    def rs_core(self) -> np.ndarray:
        lo = self.layout.rs_core_start
        return self.time[..., lo : lo + self.layout.rs_len]

    @property
    def data(self) -> np.ndarray:
        return self.time[..., self.layout.data_start : self.layout.ars_start]

    @property
    def ars(self) -> np.ndarray:
        return self.time[..., self.layout.ars_start :]


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


def fold_spectrum(demapped, filt: ShapingFilter) -> FoldedSymbol:
    """Matched-filter the extended block and alias it to the allocation size.

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
    folded = cyclic_fold(filt.weights * y, m, g)
    return FoldedSymbol(folded=folded, demapped=y, filt=filt)


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
    """(start, spectrum, power) of the known RS reference: where the rs_len
    received RS samples are read, the reference spectrum times the folded
    filter gain, and its squared magnitude. One-sided layouts read inside the
    prefix, so the reference is the core shifted cyclically to match.
    Without ridge, a null in the spectrum raises SingularReference."""
    rs_core = np.asarray(rs_core, dtype=np.complex128)
    l_r = layout.rs_len
    if rs_core.ndim == 0 or rs_core.shape[-1] != l_r or l_r < 1:
        raise ValueError(
            f"estimate_channel: rs core length {rs_core.shape[-1:]} != {l_r}"
        )
    if est.window_len > l_r:
        raise ValueError("estimate_channel: window_len exceeds the RS core length")
    if layout.variant == ONE_SIDED_CP:
        start = layout.rs_cp // 2 if est.rs_offset is None else est.rs_offset
        if not 0 <= start <= layout.rs_cp:
            raise ValueError("estimate_channel: rs_offset outside the RS prefix")
        rs_core = np.roll(rs_core, -start, axis=-1)
    else:
        start = layout.rs_core_start
    spectrum = np.fft.fft(rs_core) * _reference_gain(composite, l_r)
    power = np.abs(spectrum) ** 2
    if est.ridge == 0.0 and np.any(power <= _row_floor(power, 1e-12)):
        raise SingularReference(
            "estimate_channel: reference spectrum has a null; "
            "set ridge > 0 to regularize"
        )
    return start, spectrum, power


def check_reference(rs_core, layout: FrameLayout, filt: ShapingFilter,
                    est: EstimatorConfig) -> None:
    """Raise what `estimate_channel` would raise about this RS core, layout,
    filter and estimator, before any symbol is received: SingularReference
    for a null in an unregularized reference spectrum, ValueError for a core
    or window that does not fit the layout."""
    _reference(rs_core, layout, filt.folded_square(), est)


def estimate_channel(
    folded: FoldedSymbol,
    layout: FrameLayout,
    rs_core,
    est: EstimatorConfig,
) -> ChannelEstimate:
    """Estimate the composite folded channel from the embedded RS.

    Reconstruct the time symbol, extract the protected RS core, divide its
    spectrum by the known reference (regularized by `ridge`), window the
    resulting impulse response, and re-expand to the allocation grid.
    rs_core holds the RS core of each folded symbol.
    """
    m = folded.alloc_size
    l_r = layout.rs_len
    if layout.total_len != m:
        raise ValueError("estimate_channel: layout does not match the folded symbol")
    composite = folded.filt.folded_square()
    start, ref_spectrum, denom = _reference(rs_core, layout, composite, est)

    time_symbol = np.fft.ifft(folded.folded)
    rs_spectrum = np.fft.fft(time_symbol[..., start : start + l_r])
    ls = rs_spectrum * np.conj(ref_spectrum) / (denom + est.ridge)

    impulse = np.fft.ifft(ls)
    margin = min(PRE_MARGIN, l_r - est.window_len)
    mask = np.zeros(l_r)
    mask[: est.window_len] = 1.0
    if margin > 0:
        mask[l_r - margin :] = 1.0
    windowed = impulse * mask

    # cyclic embedding: causal taps at the front, pre-cursor taps at the tail
    padded = np.zeros(windowed.shape[:-1] + (m,), dtype=np.complex128)
    padded[..., : est.window_len] = windowed[..., : est.window_len]
    if margin > 0:
        padded[..., m - margin :] = windowed[..., l_r - margin :]
    response = np.fft.fft(padded) * composite

    return ChannelEstimate(
        response=response,
        rs_ls=ls,
        rs_impulse=impulse,
        rs_windowed=windowed,
        layout=layout,
    )


def genie_estimate(response, layout: FrameLayout) -> ChannelEstimate:
    """Wrap a known frequency response as an estimate (oracle receivers)."""
    response = np.asarray(response, dtype=np.complex128)
    if response.ndim == 0 or response.shape[-1] != layout.total_len:
        raise ValueError("genie_estimate: response length != layout size")
    empty = np.zeros(response.shape[:-1] + (layout.rs_len,), dtype=np.complex128)
    return ChannelEstimate(
        response=response,
        rs_ls=empty,
        rs_impulse=empty,
        rs_windowed=empty,
        layout=layout,
    )


def mmse_equalize(
    folded: FoldedSymbol, est: ChannelEstimate, noise_var: float
) -> EqualizedSymbol:
    """Per-subcarrier MMSE equalization and return to the time domain.

    noise_var is the noise-to-signal power ratio per folded subcarrier
    (inverse linear SNR); zero gives the zero-forcing limit and requires a
    null-free estimate.
    """
    if noise_var < 0:
        raise ValueError("mmse_equalize: noise_var must be >= 0")
    h = est.response
    if h.shape[-1] != folded.alloc_size:
        raise ValueError("mmse_equalize: estimate length != folded symbol length")
    power = np.abs(h) ** 2
    if noise_var == 0.0 and np.any(power <= _row_floor(power, 1e-24)):
        raise DegenerateEqualizer(
            "mmse_equalize: zero estimate with zero noise variance"
        )
    weights = np.conj(h) / (power + noise_var)
    spectrum = weights * folded.folded
    time = np.fft.ifft(spectrum)
    return EqualizedSymbol(spectrum=spectrum, time=time, layout=est.layout)


def ars_phase_correct(
    eq: EqualizedSymbol, ars_ref, layout: FrameLayout
) -> EqualizedSymbol:
    """Estimate the per-sample phase increment from the tail pilots and
    derotate the data segment.

    The phase reference sits at the end of the RS core, so pilot sample n
    carries phase (n + rs_cs + data_len) * step and data sample n carries
    (n + rs_cs) * step. Unambiguous while |step| * alloc stays below pi.
    """
    ars_ref = np.asarray(ars_ref, dtype=np.complex128)
    if layout.ars_len < 1:
        raise ValueError("ars_phase_correct: layout has no ARS allocation")
    if ars_ref.ndim == 0 or ars_ref.shape[-1] != layout.ars_len:
        raise ValueError("ars_phase_correct: reference length != layout ars_len")
    if eq.layout != layout:
        raise ValueError("ars_phase_correct: layout mismatch with equalized symbol")

    n = np.arange(layout.ars_len)
    positions = n + layout.rs_cs + layout.data_len
    angles = np.angle(eq.ars * np.conj(ars_ref))
    step = np.mean(angles / positions, axis=-1)
    if step.ndim == 0:
        step = float(step)

    time = eq.time.copy()
    lo, hi = layout.data_start, layout.ars_start
    rot = np.exp(-1j * (np.arange(layout.data_len) + layout.rs_cs)
                 * np.expand_dims(step, -1))
    time[..., lo:hi] = time[..., lo:hi] * rot
    return replace(eq, time=time, phase_step=step)


def _nearest_level(r: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Index of the level nearest to each r in squared distance, the lowest
    index on ties: what a scan of every level's (r - level)**2 returns.

    Only the two levels that bracket r can be nearest, so only their
    distances are compared. Beyond |r| = 2**40, or for NaN, rounding can tie
    farther levels too, and such inputs take the scan.
    """
    if not np.all(np.abs(r) < 2.0**40):
        d = [(r - level) ** 2 for level in levels]
        best, nearest = d[0], np.zeros(r.shape, dtype=np.intp)
        for k in range(1, len(d)):
            closer = d[k] < best
            best = np.where(closer, d[k], best)
            nearest = np.where(closer, k, nearest)
        return nearest
    # the levels are evenly spaced, so r's bracket is one floor away; off by
    # one only where r is within rounding of a level, which both brackets hold
    order = np.argsort(levels)
    low, step = levels[order[0]], np.ptp(levels) / (levels.size - 1)
    j = np.clip(np.floor((r - low) / step), 0, levels.size - 2).astype(np.intp)
    lo, hi = order[j], order[j + 1]
    first, last = np.minimum(lo, hi), np.maximum(lo, hi)
    return np.where((r - levels[last]) ** 2 < (r - levels[first]) ** 2, last, first)


def _received(symbols) -> np.ndarray:
    rx = np.asarray(symbols, dtype=np.complex128)
    if rx.ndim == 0 or rx.size == 0:
        raise ValueError("demodulate: empty input")
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


def demodulate(symbols, scheme: ModScheme, noise_var: float):
    """Minimum-distance hard bits plus max-log soft metrics.

    Returns (bits, metrics), each with the symbols' bits in order along the
    last axis; bits are those of `hard_bits`, and metrics are log-likelihood
    ratios scaled by the noise variance, positive where the hard decision is
    a one.
    """
    bits = hard_bits(symbols, scheme)
    rx = _received(symbols)
    scale = max(float(noise_var), 1e-12)
    if scheme.name == "PI2_BPSK":
        d = _pi2_bpsk_distances(rx)
        return bits, (d[..., 0] - d[..., 1]) / scale
    # each bit's metric compares the nearest levels of its axis labelled 0
    # and 1; distances are kept one array per level, so every minimum is an
    # elementwise one
    labels, axes = _qam_axes(rx, scheme)
    half = labels.shape[1]
    llr = np.empty(rx.shape + (2 * half,))
    for axis, r, levels in axes:
        d = [(r - level) ** 2 for level in levels]
        for c in range(half):
            ones = labels[:, c] == 1
            zero = reduce(np.minimum, (d[k] for k in np.flatnonzero(~ones)))
            one = reduce(np.minimum, (d[k] for k in np.flatnonzero(ones)))
            llr[..., axis + 2 * c] = (zero - one) / scale
    return bits, llr.reshape(bits.shape)


# Leading values of each array that the diagnostics dump prints.
DIAGNOSTIC_ITEMS = 8


def dump_diagnostics(
    folded: FoldedSymbol, est: ChannelEstimate, eq: EqualizedSymbol
) -> str:
    """Structured text snapshot of the receive chain for one symbol."""

    def fmt(name, vec):
        vec = np.asarray(vec)
        head = ", ".join(f"{z.real:+.5f}{z.imag:+.5f}j"
                         for z in vec.ravel()[:DIAGNOSTIC_ITEMS])
        more = ", ..." if vec.size > DIAGNOSTIC_ITEMS else ""
        return f"{name}[{vec.size}]: {head}{more}"

    lines = [fmt("demapped", folded.demapped), fmt("folded", folded.folded),
             fmt("channel_estimate", est.response), fmt("eq_rs_core", eq.rs_core),
             fmt("eq_data", eq.data)]
    if eq.layout.ars_len:
        lines.append(fmt("eq_ars", eq.ars))
    lines.append(f"phase_step: {eq.phase_step:+.3e} rad/sample")
    return "\n".join(lines)
