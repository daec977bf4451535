"""Monte-Carlo experiment engine: PAPR CCDF, channel-estimation MSE, uncoded
BER/EVM, and effective-pulse tail decay, all reproducible from (config, seed).

PAPR statistics follow the instantaneous-power convention: the CCDF pools
per-sample power, normalized by the symbol mean, over all trial symbols of
the >= 4x-oversampled body. Quantile gains against the separate-RS
DFT-s-OFDM baseline are read at the 1% exceedance point. The pooled power
is never held: a streaming `CcdfCounter` per waveform counts each chunk
against the thresholds and keeps only the top 1% tail the quantile reads,
so memory grows with that tail, not with the pool (1e4 QPSK/240 trials:
367 -> 45 MiB peak RSS), and every value equals the pooled sort's bit for
bit.

Per-subcarrier SNR convention: the target SNR fixes the ratio of demapped
per-subcarrier signal power to noise power; the equalizer receives the
inverse linear SNR as its noise variance.

Trials run in chunks of contiguous trial indices. Each trial sends its
frame (one or more symbols back to back) through one channel realization on
its own `SeededRng(seed, trial)` stream; the receiver then runs once per
chunk on the stacked received frames, and per-trial results are pooled in
trial order, so the records do not depend on the chunking or `n_workers`.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelRealization,
    HstConfig,
    apply_channel,
    flat_realization,
    hst_realization,
    tdlc_realization,
)
from .numerics import CcdfCounter, SeededRng, cyclic_fold, power_ratio_db
from .receiver import (
    EstimatorConfig,
    ars_phase_correct,
    check_reference,
    estimate_channel,
    fold_spectrum,
    front_end,
    hard_bits,
    mmse_equalize,
)
from .sequences import (
    MOD_SCHEMES,
    FrameLayout,
    ShapingFilter,
    make_rs_core,
    make_sqrc_filter,
    make_taps_filter,
)
from .transmitter import WaveformGrid, effective_pulse, generate_otfdm

__all__ = [
    "ModProfile",
    "MOD_PROFILES",
    "layout_for",
    "grid_for",
    "filter_for",
    "window_for",
    "ExperimentConfig",
    "MetricRecord",
    "run_papr",
    "run_mse",
    "run_ber",
    "run_pulse_decay",
    "run_overhead",
    "pulse_tail_fraction",
    "transmit_frame",
    "RUNNERS",
    "sweep",
    "write_csv",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class ModProfile:
    """Per-modulation RS budget and extension factor at a reference
    allocation; desk-scale layouts are proportional rescalings of this."""

    rs_len: int
    rs_cp: int
    rs_cs: int
    window_len: int
    extension_pct: float
    ref_alloc: int


MOD_PROFILES = {
    "PI2_BPSK": ModProfile(72, 56, 18, 36, 0.0, 2976),
    "QPSK": ModProfile(84, 63, 21, 63, 0.0, 3120),
    "QAM16": ModProfile(108, 81, 27, 108, 0.0, 3084),
    "QAM64": ModProfile(120, 90, 30, 120, 5.0, 3120),
    "QAM256": ModProfile(132, 108, 34, 132, 5.0, 3228),
}

# pi/2-BPSK needs even segment sizes so the alternating rotation stays
# perpendicular across the RS/data junctions and the prefix copy stays cyclic.
ROUNDING_RULE = "nearest-int (nearest-even for PI2_BPSK)"


def _round_count(x: float, even: bool) -> int:
    if even:
        return max(2 * int(round(x / 2.0)), 0)
    return max(int(round(x)), 0)


def layout_for(
    scheme_name: str,
    alloc_size: int,
    ars_len: int = 0,
    rs_overhead_pct: float | None = None,
) -> FrameLayout:
    """Scale the modulation profile onto an allocation of alloc_size samples.

    rs_overhead_pct overrides the profile's RS share while keeping its
    core/prefix/suffix proportions.
    """
    prof = MOD_PROFILES[scheme_name]
    even = scheme_name == "PI2_BPSK"
    block = prof.rs_len + prof.rs_cp + prof.rs_cs
    if rs_overhead_pct is None:
        ratio = alloc_size / prof.ref_alloc
    else:
        if rs_overhead_pct == 0.0:
            return FrameLayout(0, 0, 0, alloc_size - ars_len, ars_len)
        ratio = rs_overhead_pct / 100.0 * alloc_size / block
    rs_len = max(_round_count(prof.rs_len * ratio, even), 2 if even else 1)
    rs_cp = min(_round_count(prof.rs_cp * ratio, even), rs_len)
    rs_cs = min(_round_count(prof.rs_cs * ratio, even), rs_len)
    data_len = alloc_size - (rs_len + rs_cp + rs_cs) - ars_len
    if data_len < 1:
        raise ValueError("layout_for: allocation too small for the RS budget")
    return FrameLayout(
        rs_len=rs_len, rs_cp=rs_cp, rs_cs=rs_cs, data_len=data_len, ars_len=ars_len
    )


def window_for(scheme_name: str, layout: FrameLayout) -> int:
    """Estimator window scaled like the profile's, clamped to the RS core."""
    prof = MOD_PROFILES[scheme_name]
    wl = int(round(prof.window_len / prof.rs_len * layout.rs_len))
    return min(max(wl, 1), layout.rs_len)


# Least factor by which the fft grid oversamples the extended block.
OVERSAMPLE = 4.0


def grid_for(alloc_size: int, excess: int, scs_khz: float = 30.0) -> WaveformGrid:
    """Desk-scale grid: fft size is the smallest multiple of the allocation
    that oversamples the extended block by OVERSAMPLE, so symbol-spaced lags
    stay on the sample grid."""
    mult = max(int(math.ceil(OVERSAMPLE * (alloc_size + 2 * excess) / alloc_size)), 1)
    fft_size = mult * alloc_size
    cp_len = int(round(0.07 * fft_size))
    return WaveformGrid(
        alloc_size=alloc_size,
        excess=excess,
        fft_size=fft_size,
        cp_len=cp_len,
        scs_khz=scs_khz,
    )


FILTER_KINDS = ("SQRC", "NONE", "TAPS2", "TAPS3")
# RS share of run_mse's extension sweep when rs_overhead_pct is unset.
MSE_RS_PCT = 8.0
CHANNELS = ("AWGN", "TDLC", "HST")

# ExperimentConfig's typed fields: sweep axes, counts, reals (rs_overhead_pct
# may also be None) and flags.
SWEEP_FIELDS = ("snr_db", "gamma_sweep_pct", "rs_sweep_pct")
COUNT_FIELDS = ("alloc_size", "trials", "seed", "tail_periods", "n_workers")
REAL_FIELDS = ("extension_pct", "rs_overhead_pct", "ars_pct", "scs_khz",
               "delay_spread_ns", "speed_kmh", "fc_ghz", "ridge")
BOOL_FIELDS = ("ars_correction", "genie_channel", "compare_baseline")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def filter_for(kind: str, alloc_size: int, extension_pct: float) -> ShapingFilter:
    """SQRC with the requested extension, a 2/3-tap magnitude filter, or the
    rectangular (no shaping) filter."""
    if kind == "SQRC":
        excess = int(round(alloc_size * extension_pct / 200.0))
        return make_sqrc_filter(alloc_size, excess)
    if kind == "NONE":
        return replace(make_sqrc_filter(alloc_size, 0), kind="NONE")
    if kind == "TAPS2":
        return make_taps_filter([1.0, -1.0], alloc_size)
    if kind == "TAPS3":
        return make_taps_filter([-0.28, 1.0, -0.28], alloc_size)
    raise ValueError(f"filter_for: unknown kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: waveform, channel, sweep axes, trial budget."""

    scheme: str = "QPSK"
    alloc_size: int = 240
    extension_pct: float = 5.0
    filter_kind: str = "SQRC"
    rs_overhead_pct: float | None = None
    ars_pct: float = 0.0
    ars_correction: bool = True
    scs_khz: float = 30.0
    channel: str = "AWGN"  # one of CHANNELS
    delay_spread_ns: float = 1000.0
    speed_kmh: float = 0.0
    fc_ghz: float = 7.0
    snr_db: tuple = (30.0,)
    trials: int = 1000
    seed: int = 1
    genie_channel: bool = False
    ridge: float = 0.0
    gamma_sweep_pct: tuple = (0.0, 5.0, 10.0)
    rs_sweep_pct: tuple = (5.0, 8.0, 12.0)
    tail_periods: int = 4
    compare_baseline: bool = False
    n_workers: int = 1

    def __post_init__(self):
        for name in SWEEP_FIELDS:
            values = getattr(self, name)
            if not (isinstance(values, (tuple, list)) and all(map(_is_real, values))):
                raise ValueError(f"ExperimentConfig: {name} must be a tuple or "
                                 "list of real numbers")
        for name in COUNT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"ExperimentConfig: {name} must be an integer")
        for name in REAL_FIELDS:
            value = getattr(self, name)
            if not ((_is_real(value) and math.isfinite(value))
                    or (name == "rs_overhead_pct" and value is None)):
                raise ValueError(f"ExperimentConfig: {name} must be a finite "
                                 "real number")
        for name in BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"ExperimentConfig: {name} must be true or false")
        if not isinstance(self.scheme, str) or self.scheme not in MOD_SCHEMES:
            raise ValueError(f"ExperimentConfig: unknown scheme {self.scheme!r}")
        if self.channel not in CHANNELS:
            raise ValueError(f"ExperimentConfig: unknown channel {self.channel!r}; "
                             f"use one of {', '.join(CHANNELS)} (AWGN with "
                             "snr_db=inf is the noiseless link)")
        if self.filter_kind not in FILTER_KINDS:
            raise ValueError(
                f"ExperimentConfig: unknown filter_kind {self.filter_kind!r}"
            )
        if self.trials < 1:
            raise ValueError("ExperimentConfig: trials must be >= 1")
        if self.seed < 0:
            raise ValueError("ExperimentConfig: seed must be >= 0")
        if self.alloc_size < 8:
            raise ValueError("ExperimentConfig: alloc_size too small")
        if self.speed_kmh < 0:
            raise ValueError("ExperimentConfig: speed_kmh must be >= 0")
        if self.channel == "HST" and self.speed_kmh <= 0:
            raise ValueError("ExperimentConfig: HST needs speed_kmh > 0")
        if self.delay_spread_ns <= 0:
            raise ValueError("ExperimentConfig: delay_spread_ns must be > 0")
        if self.fc_ghz <= 0:
            raise ValueError("ExperimentConfig: fc_ghz must be > 0")
        if self.scs_khz <= 0:
            raise ValueError("ExperimentConfig: scs_khz must be > 0")
        if self.ridge < 0:
            raise ValueError("ExperimentConfig: ridge must be >= 0")
        if self.tail_periods < 0:
            raise ValueError("ExperimentConfig: tail_periods must be >= 0")
        if self.n_workers < 1:
            raise ValueError("ExperimentConfig: n_workers must be >= 1")
        if not self.snr_db:
            raise ValueError("ExperimentConfig: snr_db needs at least one SNR")
        if any(math.isnan(v) or v == -math.inf for v in self.snr_db):
            raise ValueError("ExperimentConfig: snr_db contains NaN or -inf")
        for name, values in (("extension_pct", (self.extension_pct,)),
                             ("gamma_sweep_pct", self.gamma_sweep_pct)):
            if any(not 0.0 <= v <= 100.0 for v in values):
                raise ValueError(f"ExperimentConfig: {name} must be in [0, 100]")
        rs_fixed = () if self.rs_overhead_pct is None else (self.rs_overhead_pct,)
        for name, values in (("ars_pct", (self.ars_pct,)),
                             ("rs_overhead_pct", rs_fixed),
                             ("rs_sweep_pct", self.rs_sweep_pct)):
            if any(not 0.0 <= v < 100.0 for v in values):
                raise ValueError(f"ExperimentConfig: {name} must be in [0, 100)")
        # every layout a runner builds, so that an impossible one fails here
        # and not after the earlier configs of a sweep have run
        rs_shares = [("rs_overhead_pct", self.rs_overhead_pct)]
        if self.rs_overhead_pct is None:
            rs_shares.append(("run_mse's fixed RS share", MSE_RS_PCT))
        rs_shares += [(f"rs_sweep_pct[{i}]", v)
                      for i, v in enumerate(self.rs_sweep_pct)]
        for name, rs_pct in rs_shares:
            try:
                layout_for(self.scheme, self.alloc_size, self.ars_len(), rs_pct)
            except ValueError as err:
                raise ValueError(f"ExperimentConfig: {name} = {rs_pct} with "
                                 f"ars_pct = {self.ars_pct}: {err}") from None

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def ars_len(self) -> int:
        even = self.scheme == "PI2_BPSK"
        return _round_count(self.alloc_size * self.ars_pct / 100.0, even)

    def resolve(self, extension_pct: float | None = None,
                rs_overhead_pct: float | None = None):
        """Concrete (scheme, layout, filter, grid) for this config."""
        ext = self.extension_pct if extension_pct is None else extension_pct
        rs_pct = self.rs_overhead_pct if rs_overhead_pct is None else rs_overhead_pct
        scheme = MOD_SCHEMES[self.scheme]
        layout = layout_for(self.scheme, self.alloc_size, self.ars_len(), rs_pct)
        filt = filter_for(self.filter_kind, self.alloc_size, ext)
        grid = grid_for(self.alloc_size, filt.excess, self.scs_khz)
        return scheme, layout, filt, grid


@dataclass(frozen=True)
class MetricRecord:
    """One measured point; identical (config, seed) reproduce it exactly."""

    metric: str
    config_digest: str
    iv_name: str
    iv_value: float
    value: float
    trials: int
    seed: int
    scheme: str = ""
    gamma_pct: float = 0.0
    rs_overhead_pct: float = 0.0
    scs_khz: float = 30.0
    speed_kmh: float = 0.0
    snr_db: float = float("nan")
    warning: str | None = None
    note: str = ""


CSV_COLUMNS = (
    "metric",
    "scheme",
    "gamma_pct",
    "rs_overhead_pct",
    "scs_khz",
    "speed_kmh",
    "snr_db",
    "value",
    "trials",
    "seed",
)


def _record(cfg: ExperimentConfig, digest: str, layout: FrameLayout,
            metric: str, iv_name: str, iv_value: float, value: float,
            gamma_pct: float | None = None, snr_db: float = float("nan"),
            warning: str | None = None, note: str = "") -> MetricRecord:
    return MetricRecord(
        metric=metric,
        config_digest=digest,
        iv_name=iv_name,
        iv_value=float(iv_value),
        value=float(value),
        trials=cfg.trials,
        seed=cfg.seed,
        scheme=cfg.scheme,
        gamma_pct=cfg.extension_pct if gamma_pct is None else gamma_pct,
        rs_overhead_pct=100.0 * layout.rs_block_len / cfg.alloc_size,
        scs_khz=cfg.scs_khz,
        speed_kmh=cfg.speed_kmh,
        snr_db=snr_db,
        warning=warning,
        note=note or f"layout rounding: {ROUNDING_RULE}",
    )


# Most trials one receiver call carries. Per-call overhead is spread over the
# chunk while its stacked intermediates stay a few hundred kB, which keeps a
# run's peak memory near that of one trial at a time.
CHUNK_TRIALS = 16


# Most chunks each worker thread has in flight: submitted and not yet read.
# Finished chunks wait for the reader only this far, so a threaded run's
# memory does not grow with the trial count.
CHUNKS_IN_FLIGHT_PER_WORKER = 2


def _chunk_results(work, trials: int, n_workers: int):
    """Yield `work(range)` over contiguous ranges of trial indices, in trial
    order. Threads take whole chunks, at most CHUNKS_IN_FLIGHT_PER_WORKER
    per thread ahead of the reader; closing the generator early cancels the
    chunks not yet started."""
    size = min(CHUNK_TRIALS, -(-trials // n_workers))
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    if n_workers <= 1:
        yield from map(work, chunks)
        return
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        pending = deque()
        try:
            for chunk in chunks:
                if len(pending) == CHUNKS_IN_FLIGHT_PER_WORKER * n_workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(work, chunk))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _map_chunks(work, trials: int, n_workers: int) -> tuple:
    """`_chunk_results` of a `work` that returns a tuple of arrays with one
    leading row per trial, concatenated in trial order, column by column."""
    return tuple(np.concatenate(col)
                 for col in zip(*_chunk_results(work, trials, n_workers)))


def _data_bits(rng: SeededRng, layout: FrameLayout, scheme) -> np.ndarray:
    return rng.bits(layout.data_len * scheme.bits_per_symbol)


def transmit_frame(frame, scheme, rng: SeededRng) -> list:
    """[(data bits, time samples, RS core, data symbols, ARS symbols), ...]
    of a frame of (layout, filter, grid) symbols, in order on `rng`: each
    draws its data bits (if any), then is generated (`generate_otfdm`)."""
    out = []
    for layout, filt, grid in frame:
        bits = _data_bits(rng, layout, scheme)
        out.append((bits, *generate_otfdm(bits, scheme, layout, filt, grid, rng)))
    return out


def _dfts_baseline(cfg: ExperimentConfig) -> tuple:
    """The separate-RS DFT-s-OFDM baseline frame: a full-allocation RS
    symbol, then an all-data symbol, both unshaped on the zero-excess grid."""
    m = cfg.alloc_size
    filt = filter_for("NONE", m, 0.0)
    grid = grid_for(m, 0, cfg.scs_khz)
    return ((FrameLayout(m, 0, 0, 0, 0), filt, grid),
            (FrameLayout(0, 0, 0, m, 0), filt, grid))


# --------------------------------------------------------------------------
# PAPR
# --------------------------------------------------------------------------

PAPR_CCDF_GRID_DB = tuple(np.arange(0.0, 12.25, 0.25))
# Exceedance probability at which PAPR quantiles and gains are read.
PAPR_CCDF_POINT = 0.01


def _normalized_sample_power(bodies) -> np.ndarray:
    """Per-sample power of each body, normalized by that body's mean."""
    p = np.abs(bodies) ** 2
    return p / p.mean(axis=-1, keepdims=True)


def run_papr(cfg: ExperimentConfig) -> list[MetricRecord]:
    """Instantaneous-power CCDF for the configured waveform and the
    separate-RS DFT-s-OFDM baseline, plus the quantile gain at the 1%
    exceedance point (PAPR_CCDF_POINT)."""
    scheme, layout, filt, grid = cfg.resolve()
    frame = ((layout, filt, grid), _dfts_baseline(cfg)[1])
    record = partial(_record, cfg, cfg.digest())
    notes = []
    if cfg.trials < 10_000:
        notes.append(f"trials={cfg.trials} below 1e4; "
                     f"{PAPR_CCDF_POINT:.0%} point is noisy")
    if cfg.channel != "AWGN" or cfg.speed_kmh != 0:
        notes.append(f"PAPR is a transmit-only metric; channel={cfg.channel} and "
                     f"speed_kmh={cfg.speed_kmh} were ignored")
    warning = "; ".join(notes) or None

    gamma_pct = 200.0 * filt.excess / cfg.alloc_size

    def chunk(trials: range):
        sent = (transmit_frame(frame, scheme, SeededRng(cfg.seed, trial))
                for trial in trials)
        # each symbol's body: its time samples after its own grid's prefix
        bodies = [[time[g.cp_len :] for (*_, g), (_, time, *_) in zip(frame, s)]
                  for s in sent]
        return tuple(_normalized_sample_power(np.stack(col))
                     for col in zip(*bodies))

    # one counter per waveform, each over its own body size; chunks are
    # counted as they arrive, so the pooled power is never held
    grid_lin = 10.0 ** (np.asarray(PAPR_CCDF_GRID_DB) / 10.0)
    shaped, plain = (CcdfCounter(grid_lin, cfg.trials * g.fft_size,
                                 1.0 - PAPR_CCDF_POINT) for _, _, g in frame)
    for p_shaped, p_plain in _chunk_results(chunk, cfg.trials, cfg.n_workers):
        shaped.add(p_shaped)
        plain.add(p_plain)

    records = []
    for thr_db, (_, p_shaped), (_, p_plain) in zip(PAPR_CCDF_GRID_DB,
                                                   shaped.ccdf(), plain.ccdf()):
        records.append(record(layout, "papr_ccdf", "papr_db", thr_db,
                              p_shaped, gamma_pct=gamma_pct, warning=warning))
        records.append(record(layout, "papr_ccdf_baseline", "papr_db", thr_db,
                              p_plain, gamma_pct=gamma_pct, warning=warning))

    note = (f"per-sample power CCDF on a {grid.fft_size}-point body "
            f"(>=4x oversampling of alloc {cfg.alloc_size}); "
            f"layout rounding: {ROUNDING_RULE}")
    q_shaped, q_plain = (float(10.0 * np.log10(c.quantile()))
                         for c in (shaped, plain))
    records.append(record(layout, "papr_db_at_ccdf", "ccdf_point",
                          PAPR_CCDF_POINT, q_shaped, gamma_pct=gamma_pct,
                          warning=warning, note=note))
    records.append(record(layout, "papr_db_at_ccdf_baseline", "ccdf_point",
                          PAPR_CCDF_POINT, q_plain, gamma_pct=gamma_pct,
                          warning=warning, note=note))
    records.append(record(layout, "papr_gain_db", "ccdf_point",
                          PAPR_CCDF_POINT, q_plain - q_shaped, gamma_pct=gamma_pct,
                          warning=warning, note=note))
    return records


# --------------------------------------------------------------------------
# channel-estimation MSE
# --------------------------------------------------------------------------

def _make_channel(cfg: ExperimentConfig, grid: WaveformGrid, rng: SeededRng,
                  num_samples: int) -> ChannelRealization:
    """The config's channel on one trial's stream `rng`. Only TDL-C draws
    from it; the AWGN and HST channels (every HST trial starts at t0 = 0) are
    the same read-only realization for every trial."""
    if cfg.channel == "AWGN":
        return flat_realization()
    if cfg.channel == "TDLC":
        return tdlc_realization(cfg.delay_spread_ns, cfg.speed_kmh, cfg.fc_ghz,
                                grid.sample_rate_hz, rng, num_samples=num_samples)
    if cfg.channel == "HST":
        hst = HstConfig(speed_kmh=cfg.speed_kmh, fc_ghz=cfg.fc_ghz)
        return hst_realization(hst, t0=0.0,
                               duration=num_samples / grid.sample_rate_hz,
                               num_samples=num_samples)
    raise ValueError(f"unknown channel model {cfg.channel!r}")


def _composite_truth(impulse: np.ndarray, grid: WaveformGrid,
                     filt: ShapingFilter) -> np.ndarray:
    """Oracle folded composite of each realized impulse response on the last
    axis: squared shaping gain times the channel response, aliased to the
    allocation grid. Row t of a stack equals the 1-D call on row t."""
    h_bins = np.fft.fft(impulse, grid.fft_size)[..., grid.mapped_bins()]
    return cyclic_fold((filt.weights**2) * h_bins, grid.alloc_size, grid.excess)


def _noise_vars(grid: WaveformGrid, snr_db: float) -> tuple[float, float]:
    """(time-domain noise variance, per-subcarrier noise-to-signal ratio);
    an infinite SNR is the noiseless link."""
    if snr_db == math.inf:
        return 0.0, 0.0
    inv_snr = 10.0 ** (-snr_db / 10.0)
    time_var = inv_snr * grid.fft_size / grid.alloc_size
    return time_var, inv_snr


class _Sent(NamedTuple):
    """Transmit side of a chunk: one row per trial, frame symbols concatenated."""

    bits: np.ndarray
    rx: np.ndarray
    rs_core: np.ndarray
    data_symbols: np.ndarray
    ars_symbols: np.ndarray
    truth: np.ndarray | None


def _send(cfg: ExperimentConfig, scheme, frame, time_var: float,
          trials: range, with_truth: bool) -> _Sent:
    """Send a chunk one trial at a time, each on its own stream: the frame's
    symbols (`transmit_frame`), one channel realization on the first
    symbol's grid applied to them all with AWGN of variance `time_var`,
    then (with `with_truth`) the oracle folded composite mid first symbol,
    for the whole chunk at once. TDL-C fading is drawn per trial; the other
    channels draw nothing, so one realization and its composite serve the
    whole chunk. Only what the receiver reads is kept: each trial joins its
    frame's fields, and each field is stacked over the chunk once."""
    _, filt, grid = frame[0]
    mid = grid.cp_len + grid.fft_size // 2
    ch = None
    rows, impulses = [], []
    for trial in trials:
        rng = SeededRng(cfg.seed, trial)
        bits, tx, rs_core, data, ars = map(
            _join, zip(*transmit_frame(frame, scheme, rng)))
        if ch is None or cfg.channel == "TDLC":
            ch = _make_channel(cfg, grid, rng, num_samples=tx.size)
            if with_truth:
                impulses.append(ch.impulse_response(mid))
        rows.append((bits, apply_channel(tx, ch, rng, time_var), rs_core, data,
                     ars))
    truth = None
    if with_truth:
        truth = _composite_truth(np.stack(impulses), grid, filt)
        truth = np.repeat(truth, len(rows) // len(impulses), axis=0)
    return _Sent(*map(np.stack, zip(*rows)), truth)


def _join(parts) -> np.ndarray:
    """Concatenate along the last axis, without copying a single part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _estimator(cfg: ExperimentConfig, scheme, layout: FrameLayout,
               filt: ShapingFilter,
               rs_field: str = "rs_overhead_pct") -> EstimatorConfig:
    """The RS estimator of a layout, checked before any trial. A layout
    without RS (`rs_field`, the config entry that set its RS share, is 0) is
    refused. A pi/2-BPSK RS is drawn per symbol and any draw can have a
    spectral null, so without ridge it is refused. Every other RS is fixed:
    an unregularized one with a null raises SingularReference here, not
    mid-run."""
    if layout.rs_len == 0:
        raise ValueError(f"{rs_field} = 0 gives a layout without RS, which "
                         "leaves nothing to estimate the channel from")
    est_cfg = EstimatorConfig(window_len=window_for(cfg.scheme, layout),
                              ridge=cfg.ridge)
    if scheme.name != "PI2_BPSK":
        check_reference(make_rs_core(layout.rs_len, scheme), layout, filt, est_cfg)
    elif cfg.ridge == 0:
        raise ValueError("PI2_BPSK RS spectra are drawn per symbol and can have "
                         "nulls; set ridge > 0")
    return est_cfg


def _mse_point(cfg: ExperimentConfig, scheme, layout: FrameLayout,
               filt: ShapingFilter, grid: WaveformGrid,
               est_cfg: EstimatorConfig, snr_db: float) -> float:
    time_var, _ = _noise_vars(grid, snr_db)

    def chunk(trials: range):
        sent = _send(cfg, scheme, ((layout, filt, grid),), time_var, trials,
                     with_truth=True)
        folded = fold_spectrum(front_end(sent.rx, grid), filt)
        response = estimate_channel(folded, filt, layout, sent.rs_core, est_cfg)
        return (np.mean(np.abs(response - sent.truth) ** 2, axis=-1),)

    (per_trial,) = _map_chunks(chunk, cfg.trials, cfg.n_workers)
    return float(np.mean(per_trial))


def run_mse(cfg: ExperimentConfig) -> list[MetricRecord]:
    """Estimate-vs-truth MSE swept over the extension factor at fixed RS
    overhead, then over the RS overhead at fixed extension, at the config's
    single SNR."""
    if len(cfg.snr_db) != 1:
        raise ValueError(f"run_mse: needs exactly one SNR, got {len(cfg.snr_db)}")
    if not cfg.gamma_sweep_pct and not cfg.rs_sweep_pct:
        raise ValueError("run_mse: gamma_sweep_pct and rs_sweep_pct are both empty")
    snr_db = cfg.snr_db[0]
    rs_fixed = MSE_RS_PCT if cfg.rs_overhead_pct is None else cfg.rs_overhead_pct
    # (iv name, iv value, extension, RS share, config entry of the RS share)
    points = ([("gamma_pct", ext, ext, rs_fixed, "rs_overhead_pct")
               for ext in cfg.gamma_sweep_pct]
              + [("rs_overhead_pct", rs, cfg.extension_pct, rs, f"rs_sweep_pct[{i}]")
                 for i, rs in enumerate(cfg.rs_sweep_pct)])
    # resolve and check every point before the first trial
    resolved = [cfg.resolve(extension_pct=ext, rs_overhead_pct=rs_pct)
                for _, _, ext, rs_pct, _ in points]
    estimators = [_estimator(cfg, scheme, layout, filt, rs_field)
                  for (scheme, layout, filt, _), (*_, rs_field) in zip(resolved,
                                                                       points)]
    record = partial(_record, cfg, cfg.digest())
    records = []
    for (iv_name, iv_value, ext, _, _), point, est_cfg in zip(points, resolved,
                                                               estimators):
        mse = _mse_point(cfg, *point, est_cfg, snr_db)
        records.append(record(point[1], "chan_mse", iv_name, iv_value, mse,
                              gamma_pct=ext, snr_db=snr_db))
    return records


# --------------------------------------------------------------------------
# BER / EVM
# --------------------------------------------------------------------------

def _mmse_bias(response, inv_snr: float) -> np.ndarray:
    """Mean constellation shrink per symbol of the MMSE equalizer that used
    `response`, removed before minimum-distance demapping (unbiased-MMSE
    convention)."""
    power = np.abs(response) ** 2
    return np.maximum(np.mean(power / (power + inv_snr), axis=-1), 1e-6)


def _data_errors(data, response, inv_snr: float, scheme, bits: np.ndarray,
                 sent: np.ndarray) -> tuple:
    """Per-trial (bit_errors, bits, error_power, reference_power) of the
    equalized data segments of a chunk, unbiased and demapped."""
    data = data / _mmse_bias(response, inv_snr)[:, None]
    hard = hard_bits(data, scheme)
    return (np.count_nonzero(hard != bits, axis=-1),
            np.full(len(bits), bits.shape[-1]),
            np.sum(np.abs(data - sent) ** 2, axis=-1),
            np.sum(np.abs(sent) ** 2, axis=-1))


def _otfdm_chunk(cfg, scheme, layout, filt, grid, est_cfg, snr_db, trials):
    """End-to-end OTFDM symbols of one chunk of trials."""
    time_var, inv_snr = _noise_vars(grid, snr_db)
    sent = _send(cfg, scheme, ((layout, filt, grid),), time_var, trials,
                 with_truth=cfg.genie_channel)
    folded = fold_spectrum(front_end(sent.rx, grid), filt)
    if cfg.genie_channel:
        response = sent.truth
    else:
        response = estimate_channel(folded, filt, layout, sent.rs_core, est_cfg)
    time = mmse_equalize(folded, response, inv_snr)
    if layout.ars_len and cfg.ars_correction:
        time, _ = ars_phase_correct(time, sent.ars_symbols, layout)
    return _data_errors(time[:, layout.data_start : layout.ars_start], response,
                        inv_snr, scheme, sent.bits, sent.data_symbols)


def _dfts_baseline_chunk(cfg, scheme, frame, snr_db, trials):
    """Two-symbol DFT-s-OFDM reference (`_dfts_baseline`): the LS estimate
    from the RS symbol is reused, unchanged, on the following data symbol,
    which is all data."""
    (_, filt, grid), _ = frame
    time_var, inv_snr = _noise_vars(grid, snr_db)
    sent = _send(cfg, scheme, frame, time_var, trials, with_truth=False)
    half = grid.fft_size + grid.cp_len
    y_rs = fold_spectrum(front_end(sent.rx[:, :half], grid), filt)
    y_data = fold_spectrum(front_end(sent.rx[:, half:], grid), filt)
    response = y_rs / np.fft.fft(sent.rs_core)
    return _data_errors(mmse_equalize(y_data, response, inv_snr), response,
                        inv_snr, scheme, sent.bits, sent.data_symbols)


def run_ber(cfg: ExperimentConfig) -> list[MetricRecord]:
    """Uncoded BER and pooled EVM versus SNR; optionally also for the
    two-symbol DFT-s-OFDM baseline with matched resources."""
    if cfg.scheme == "PI2_BPSK" and cfg.compare_baseline:
        raise ValueError("run_ber: the baseline's random PI2_BPSK RS can have "
                         "exact nulls and is divided without ridge; drop "
                         "compare_baseline")
    scheme, layout, filt, grid = cfg.resolve()
    est_cfg = None if cfg.genie_channel else _estimator(cfg, scheme, layout, filt)
    baseline = _dfts_baseline(cfg) if cfg.compare_baseline else None
    record = partial(_record, cfg, cfg.digest())
    records = []
    for snr_db in cfg.snr_db:
        runs = [("", lambda t: _otfdm_chunk(cfg, scheme, layout, filt, grid,
                                            est_cfg, snr_db, t))]
        if baseline:
            runs.append(("_baseline", lambda t: _dfts_baseline_chunk(
                cfg, scheme, baseline, snr_db, t)))
        for suffix, chunk in runs:
            # per-trial rows summed as Python numbers, in trial order
            errors, bits, err_pow, ref_pow = (
                sum(col.tolist())
                for col in _map_chunks(chunk, cfg.trials, cfg.n_workers))
            values = (("ber", errors / bits),
                      ("evm_db", power_ratio_db(err_pow, ref_pow)))
            records += [record(layout, metric + suffix, "snr_db", snr_db, value,
                               snr_db=snr_db) for metric, value in values]
    return records


# --------------------------------------------------------------------------
# effective-pulse tail decay
# --------------------------------------------------------------------------

def pulse_tail_fraction(alloc_size: int, extension_pct: float,
                        tail_periods: int) -> float:
    """Fraction of effective-pulse energy outside +-tail_periods symbol
    periods around the peak (0 once the window spans the whole pulse)."""
    if tail_periods < 0:
        raise ValueError("pulse_tail_fraction: tail_periods must be >= 0")
    filt = filter_for("SQRC", alloc_size, extension_pct)
    grid = grid_for(alloc_size, filt.excess)
    half = tail_periods * grid.fft_size // alloc_size
    if 2 * half + 1 >= grid.fft_size:
        return 0.0
    energy = np.abs(effective_pulse(filt, grid)) ** 2
    peak = int(np.argmax(energy))
    lo, hi = peak - half, peak + half + 1
    inside = energy[max(lo, 0) : hi].sum()
    if lo < 0:
        inside += energy[lo:].sum()
    if hi > energy.size:
        inside += energy[: hi - energy.size].sum()
    return float(1.0 - inside / energy.sum())


def run_pulse_decay(cfg: ExperimentConfig) -> list[MetricRecord]:
    """Tail-energy fraction of the transmit pulse per extension factor."""
    if not cfg.gamma_sweep_pct:
        raise ValueError("run_pulse_decay: empty extension sweep")
    layout = layout_for(cfg.scheme, cfg.alloc_size, cfg.ars_len(),
                        cfg.rs_overhead_pct)
    warning = None
    if cfg.filter_kind != "SQRC":
        warning = (f"pulse decay uses the SQRC filter; "
                   f"filter_kind={cfg.filter_kind} was ignored")
    record = partial(_record, cfg, cfg.digest())
    records = []
    for ext in cfg.gamma_sweep_pct:
        frac = pulse_tail_fraction(cfg.alloc_size, ext, cfg.tail_periods)
        records.append(record(layout, "pulse_tail_energy", "gamma_pct",
                              ext, frac, gamma_pct=ext, warning=warning))
    return records


# --------------------------------------------------------------------------
# overheads and the sweep driver
# --------------------------------------------------------------------------

def run_overhead(cfg: ExperimentConfig) -> list[MetricRecord]:
    """Total overhead (RS block share plus extension) for the resolved layout."""
    _, layout, filt, _ = cfg.resolve()
    gamma_pct = 200.0 * filt.excess / cfg.alloc_size
    pct = 100.0 * layout.rs_block_len / cfg.alloc_size + gamma_pct
    return [_record(cfg, cfg.digest(), layout, "overhead_pct", "alloc_size",
                    cfg.alloc_size, pct, gamma_pct=gamma_pct)]


RUNNERS = {
    "papr": run_papr,
    "mse": run_mse,
    "ber": run_ber,
    "pulse": run_pulse_decay,
    "overhead": run_overhead,
}


def sweep(configs, metrics, out_path=None) -> list[MetricRecord]:
    """Run the named metrics for every config; given a path, write the
    records there as one deterministic CSV.

    Row order follows the config list, then the metric order given, then each
    runner's own record order; reruns with identical inputs are byte-identical.
    """
    if not configs:
        raise ValueError("sweep: empty config list")
    for name in metrics:
        if name not in RUNNERS:
            raise ValueError(f"sweep: unknown metric {name!r}")
    records: list[MetricRecord] = []
    for cfg in configs:
        for name in metrics:
            records.extend(RUNNERS[name](cfg))
    if out_path is not None:
        write_csv(records, out_path)
    return records


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.10g}"
    return str(value)


def write_csv(records: list[MetricRecord], path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS))
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"write_csv: cannot write {path}: {exc}") from exc
