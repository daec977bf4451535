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

Trials run in chunks of contiguous trial indices, in one thread. Each
trial sends its frame (one or more symbols back to back) through one channel
realization on its own `SeededRng(seed, trial)` stream into its rows of a
`_workspace` that the runner call owns; the receiver then runs once per
chunk on those rows, and per-trial results are pooled in trial order, so
the records do not depend on the chunking.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
import sys
from dataclasses import Field, asdict, dataclass, field, fields, replace
from functools import cache, cached_property, partial, wraps
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelRealization,
    HstConfig,
    _max_doppler_hz,
    apply_channel,
    flat_realization,
    hst_realization,
    tdlc_realization,
)
from .numerics import CcdfCounter, SeededRng, cyclic_fold, power_ratio_db, shared
from .receiver import (
    DegenerateEqualizer,
    EstimatorConfig,
    ars_phase_correct,
    check_equalizer,
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
    make_sqrc_filter,
    make_taps_filter,
)
from .transmitter import (WaveformGrid, _fixed_references, effective_pulse,
                          generate_otfdm)

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


@shared
def layout_for(scheme_name: str, alloc_size: int, ars_len: int = 0,
               rs_overhead_pct: float | None = None) -> FrameLayout:
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
    return FrameLayout(rs_len=rs_len, rs_cp=rs_cp, rs_cs=rs_cs,
                       data_len=data_len, ars_len=ars_len)


def window_for(scheme_name: str, layout: FrameLayout) -> int:
    """Estimator window scaled like the profile's, clamped to the RS core."""
    prof = MOD_PROFILES[scheme_name]
    wl = int(round(prof.window_len / prof.rs_len * layout.rs_len))
    return min(max(wl, 1), layout.rs_len)


# Least factor by which the fft grid oversamples the extended block.
OVERSAMPLE = 4.0


@shared
def grid_for(alloc_size: int, excess: int, scs_khz: float = 30.0) -> WaveformGrid:
    """Desk-scale grid: fft size is the smallest multiple of the allocation
    that oversamples the extended block by OVERSAMPLE, so symbol-spaced lags
    stay on the sample grid."""
    mult = max(int(math.ceil(OVERSAMPLE * (alloc_size + 2 * excess) / alloc_size)), 1)
    fft_size = mult * alloc_size
    cp_len = int(round(0.07 * fft_size))
    return WaveformGrid(alloc_size=alloc_size, excess=excess, fft_size=fft_size,
                        cp_len=cp_len, scs_khz=scs_khz)


FILTER_KINDS = ("SQRC", "NONE", "TAPS2", "TAPS3")
# RS share of run_mse's extension sweep when rs_overhead_pct is unset.
MSE_RS_PCT = 8.0
CHANNELS = ("AWGN", "TDLC", "HST")


def _is_real(value) -> bool:
    """A real number other than a bool; an int only within the float range,
    so that it converts to a float."""
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        return False
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# What a config field of each annotated kind (other than str) must hold.
KINDS = {"tuple": "a tuple or list of real numbers", "int": "an integer",
         "bool": "true or false", "float": "a finite real number",
         "float | None": "a finite real number or None"}
# The bounds a config field may declare in its metadata, each as
# {comparison: bound}; its value, or each entry of a tuple, must compare true.
BOUNDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _entries(name: str, values: tuple) -> list:
    """(config entry, value) of each entry of the tuple field `name`."""
    return [(f"{name}[{i}]", v) for i, v in enumerate(values)]


def _stored(f: Field, value):
    """`value` as config field `f` stores it, by its annotation, within the
    bounds its metadata declares; a value of another kind, a str not in the
    field's `names` table, or a number past a bound raises, naming it."""
    kind = f.type
    if kind == "str":
        if not (isinstance(value, str) and value in f.metadata["names"]):
            hint = f" ({f.metadata['hint']})" if "hint" in f.metadata else ""
            raise ValueError(f"ExperimentConfig: unknown {f.name} {value!r}; use "
                             f"one of {', '.join(f.metadata['names'])}{hint}")
        value = str(value)
    elif (kind == "tuple" and isinstance(value, (tuple, list))
          and all(map(_is_real, value))):
        value = tuple(map(float, value))
    elif (kind == "int" and isinstance(value, numbers.Integral)
          and not isinstance(value, bool)):
        value = int(value)
    elif (kind == "bool" and isinstance(value, bool)
          or kind == "float | None" and value is None):
        pass
    elif kind.startswith("float") and _is_real(value) and math.isfinite(value):
        value = float(value)
    else:
        raise ValueError(f"ExperimentConfig: {f.name} must be {KINDS[kind]}")
    for name, v in _entries(f.name, value) if kind == "tuple" else [(f.name, value)]:
        for op, bound in f.metadata.items():
            if op in BOUNDS and v is not None and not BOUNDS[op](v, bound):
                raise ValueError(f"ExperimentConfig: {name} = {v} must be {op} "
                                 f"{bound}")
    return value


@shared
def filter_for(kind: str, alloc_size: int, extension_pct: float) -> ShapingFilter:
    """SQRC with the requested extension, a 2/3-tap magnitude filter, or the
    rectangular (no shaping) filter; a run constant, so that one argument
    tuple gives one filter, and the receiver's gains of it are built once."""
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

    scheme: str = field(default="QPSK", metadata={"names": MOD_SCHEMES})
    alloc_size: int = field(default=240, metadata={">=": 8})
    extension_pct: float = field(default=5.0, metadata={">=": 0.0, "<=": 100.0})
    filter_kind: str = field(default="SQRC", metadata={"names": FILTER_KINDS})
    rs_overhead_pct: float | None = field(default=None,
                                          metadata={">=": 0.0, "<": 100.0})
    ars_pct: float = field(default=0.0, metadata={">=": 0.0, "<": 100.0})
    ars_correction: bool = True
    scs_khz: float = field(default=30.0, metadata={">": 0.0})
    channel: str = field(default="AWGN", metadata={
        "names": CHANNELS, "hint": "AWGN with snr_db=inf is the noiseless link"})
    delay_spread_ns: float = field(default=1000.0, metadata={">": 0.0})
    speed_kmh: float = field(default=0.0, metadata={">=": 0.0})
    fc_ghz: float = field(default=7.0, metadata={">": 0.0})
    # > -inf refuses NaN and -inf; inf is the noiseless link
    snr_db: tuple = field(default=(30.0,), metadata={">": -math.inf})
    trials: int = field(default=1000, metadata={">=": 1})
    seed: int = field(default=1, metadata={">=": 0})
    genie_channel: bool = False
    ridge: float = field(default=0.0, metadata={">=": 0.0})
    gamma_sweep_pct: tuple = field(default=(0.0, 5.0, 10.0),
                                   metadata={">=": 0.0, "<=": 100.0})
    rs_sweep_pct: tuple = field(default=(5.0, 8.0, 12.0),
                                metadata={">=": 0.0, "<": 100.0})
    tail_periods: int = field(default=4, metadata={">=": 0})
    compare_baseline: bool = False
    # trials run in one thread; kept for the digests, so only 1 is valid
    n_workers: int = field(default=1, metadata={">=": 1, "<=": 1})

    def __post_init__(self):
        # each field as its annotated kind, so that a config given lists or
        # ints equals, hashes and digests like the tuple and float one
        for f in fields(self):
            object.__setattr__(self, f.name, _stored(f, getattr(self, f.name)))
        if not self.snr_db:
            raise ValueError("ExperimentConfig: snr_db needs at least one SNR")
        if self.channel == "HST" and self.speed_kmh <= 0:
            raise ValueError("ExperimentConfig: HST needs speed_kmh > 0")
        # every layout and SQRC filter a runner builds, so that an impossible
        # one fails here and not after the earlier configs of a sweep have run
        for name, rs_pct in (("rs_overhead_pct", self.rs_overhead_pct),
                             *self._mse_rs_shares()):
            try:
                layout_for(self.scheme, self.alloc_size, self.ars_len(), rs_pct)
            except ValueError as err:
                raise ValueError(f"ExperimentConfig: {name} = {rs_pct} with "
                                 f"ars_pct = {self.ars_pct}: {err}") from None
        for name, ext in (("extension_pct", self.extension_pct),
                          *_entries("gamma_sweep_pct", self.gamma_sweep_pct)):
            try:
                filter_for("SQRC", self.alloc_size, ext)
            except ValueError as err:
                raise ValueError(f"ExperimentConfig: {name} = {ext} with "
                                 f"alloc_size = {self.alloc_size}: {err}") from None

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        """`digest`, computed on first use and kept on the instance."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def ars_len(self) -> int:
        even = self.scheme == "PI2_BPSK"
        return _round_count(self.alloc_size * self.ars_pct / 100.0, even)

    def _mse_rs_shares(self) -> list:
        """(config entry, RS share) of each layout that run_mse builds."""
        fixed = ("run_mse's fixed RS share", MSE_RS_PCT)
        if self.rs_overhead_pct is not None:
            fixed = ("rs_overhead_pct", self.rs_overhead_pct)
        return [fixed, *_entries("rs_sweep_pct", self.rs_sweep_pct)]

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
            filt: ShapingFilter, metric: str, iv_name: str, iv_value: float,
            value: float, snr_db: float = float("nan"),
            warning: str | None = None, note: str = "") -> MetricRecord:
    """A record of a point, with the realized shares of its OTFDM symbol."""
    return MetricRecord(
        metric=metric,
        config_digest=digest,
        iv_name=iv_name,
        iv_value=float(iv_value),
        value=float(value),
        trials=cfg.trials,
        seed=cfg.seed,
        scheme=cfg.scheme,
        gamma_pct=200.0 * filt.excess / cfg.alloc_size,
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


def _chunks(trials: int):
    """Contiguous ranges of at most CHUNK_TRIALS trial indices, in order."""
    return (range(lo, min(lo + CHUNK_TRIALS, trials))
            for lo in range(0, trials, CHUNK_TRIALS))


def _map_chunks(work, trials: int) -> tuple:
    """`work(range)` over `_chunks(trials)`, a tuple of arrays with a row per
    trial each time, concatenated in trial order, column by column."""
    return tuple(np.concatenate(col) for col in zip(*map(work, _chunks(trials))))


def _workspace(trials: int):
    """The arrays the chunks of one trial loop write into: `space(name, row
    shape, dtype)` is one array of `min(CHUNK_TRIALS, trials)` rows, made on
    first use, so a warm chunk allocates none. The next chunk overwrites a
    chunk's rows, so nothing a chunk returns may alias them."""
    rows = min(CHUNK_TRIALS, trials)
    return cache(lambda name, shape, dtype: np.empty((rows, *shape), dtype))


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


def _joined(*warnings) -> str | None:
    """The warnings given, other than empty ones, as one; None if none."""
    return "; ".join(filter(None, warnings)) or None


# Fields never reported as ignored: the run controls, and the sweep axes of
# single runners, so that a sweep of many metrics does not warn on each row.
UNREPORTED = frozenset({"trials", "seed", "n_workers", "gamma_sweep_pct",
                        "rs_sweep_pct", "tail_periods"})


def _if(condition: bool, *names: str) -> set:
    """The field names given if `condition` holds, else none."""
    return set(names) if condition else set()


def _waveform_reads(cfg: ExperimentConfig) -> set:
    """The fields of the OTFDM symbol; only SQRC has an extension."""
    return ({"scheme", "alloc_size", "filter_kind", "rs_overhead_pct", "ars_pct"}
            | _if(cfg.filter_kind == "SQRC", "extension_pct"))


def _link_reads(cfg: ExperimentConfig) -> set:
    """The symbol's fields, then the channel's and the estimator's."""
    return (_waveform_reads(cfg) | {"channel", "snr_db", "ridge"}
            | _if(cfg.channel != "AWGN", "scs_khz", "speed_kmh")
            | _if(cfg.channel != "AWGN" and cfg.speed_kmh > 0, "fc_ghz")
            | _if(cfg.channel == "TDLC", "delay_spread_ns"))


def _runner(reads):
    """The runner of a plan, which checks a config and resolves what it
    needs without running a trial, then returns the trial loop; `reads(cfg)`
    names the fields the records depend on. The runner calls both; `sweep`
    calls `runner.plan` on every pair first. Every record warns of each
    field off its default that neither `reads(cfg)` nor UNREPORTED holds."""
    def decorate(plan):
        @wraps(plan)
        def checked(cfg: ExperimentConfig):
            run_trials = plan(cfg)
            read = reads(cfg) | UNREPORTED
            ignored = ", ".join(f"{f.name}={getattr(cfg, f.name)}"
                                for f in fields(cfg) if f.name not in read
                                and getattr(cfg, f.name) != f.default)
            if not ignored:
                return run_trials
            note = f"{plan.__name__} ignored {ignored}"
            return lambda: [replace(r, warning=_joined(r.warning, note))
                            for r in run_trials()]

        runner = wraps(plan)(lambda cfg: checked(cfg)())
        runner.plan = checked
        return runner

    return decorate


# --------------------------------------------------------------------------
# PAPR
# --------------------------------------------------------------------------

PAPR_CCDF_GRID_DB = tuple(np.arange(0.0, 12.25, 0.25))
# Exceedance probability at which PAPR quantiles and gains are read.
PAPR_CCDF_POINT = 0.01


def _normalized_sample_power(bodies, out) -> np.ndarray:
    """Per-sample power of each body over its mean, written into `out`."""
    p = np.square(np.abs(bodies, out=out), out=out)
    return np.divide(p, p.mean(axis=-1, keepdims=True), out=p)


@_runner(_waveform_reads)
def run_papr(cfg: ExperimentConfig):
    """Instantaneous-power CCDF for the configured waveform and the
    separate-RS DFT-s-OFDM baseline, plus the quantile gain at the 1%
    exceedance point (PAPR_CCDF_POINT)."""
    scheme, layout, filt, grid = cfg.resolve()
    frame = ((layout, filt, grid), _dfts_baseline(cfg)[1])
    warning = (f"trials={cfg.trials} below 1e4; {PAPR_CCDF_POINT:.0%} point "
               "is noisy" if cfg.trials < 10_000 else None)
    record = partial(_record, cfg, cfg.digest(), layout, filt, warning=warning)

    def run_trials() -> list[MetricRecord]:
        # one counter per waveform, each over its own body size; a chunk is
        # counted (`add` sorts a copy) before the next overwrites its rows
        grid_lin = 10.0 ** (np.asarray(PAPR_CCDF_GRID_DB) / 10.0)
        counters = [CcdfCounter(grid_lin, cfg.trials * g.fft_size,
                                1.0 - PAPR_CCDF_POINT) for _, _, g in frame]
        space = _workspace(cfg.trials)
        for trials in _chunks(cfg.trials):
            bodies = [space(f"body{i}", (g.fft_size,), complex)[: len(trials)]
                      for i, (*_, g) in enumerate(frame)]
            for row, trial in enumerate(trials):
                sent = transmit_frame(frame, scheme, SeededRng(cfg.seed, trial))
                # each symbol's body: its time samples after its grid's prefix
                for body, (*_, g), (_, time, *_) in zip(bodies, frame, sent):
                    body[row] = time[g.cp_len :]
            for counter, body in zip(counters, bodies):
                counter.add(_normalized_sample_power(
                    body, space("power", body.shape[1:], float)[: len(trials)]))
        shaped, plain = counters
        records = [record(metric, "papr_db", thr_db, p)
                   for thr_db, (_, p_shaped), (_, p_plain) in zip(
                       PAPR_CCDF_GRID_DB, shaped.ccdf(), plain.ccdf())
                   for metric, p in (("papr_ccdf", p_shaped),
                                     ("papr_ccdf_baseline", p_plain))]
        note = (f"per-sample power CCDF on a {grid.fft_size}-point body "
                f"(>=4x oversampling of alloc {cfg.alloc_size}); "
                f"layout rounding: {ROUNDING_RULE}")
        q_shaped, q_plain = (float(10.0 * np.log10(c.quantile()))
                             for c in (shaped, plain))
        return records + [
            record(metric, "ccdf_point", PAPR_CCDF_POINT, q, note=note)
            for metric, q in (("papr_db_at_ccdf", q_shaped),
                              ("papr_db_at_ccdf_baseline", q_plain),
                              ("papr_gain_db", q_plain - q_shaped))]

    return run_trials


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
    # HST, the one channel of CHANNELS left
    hst = HstConfig(speed_kmh=cfg.speed_kmh, fc_ghz=cfg.fc_ghz)
    return hst_realization(hst, t0=0.0, duration=num_samples / grid.sample_rate_hz,
                           num_samples=num_samples)


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
          space, trials: range, with_truth: bool = False) -> _Sent:
    """Send a chunk through one channel realization per trial, on the first
    symbol's grid, with AWGN of variance `time_var`. Per trial, on its own
    stream, only the draws, into its rows of `space`: the frame
    (`transmit_frame`), and on TDL-C the fading, applied with its noise.
    AWGN and HST draw nothing: one call propagates all rows in place, and
    then each trial's stream draws its noise onto its row. `with_truth` adds
    the oracle folded composite mid first symbol. The next chunk overwrites
    `space`: return arrays computed from it."""
    _, filt, grid = frame[0]
    mid = grid.cp_len + grid.fft_size // 2
    count, per_trial = len(trials), cfg.channel == "TDLC"
    impulses, streams = [], []
    for row, trial in enumerate(trials):
        rng = SeededRng(cfg.seed, trial)
        symbols = transmit_frame(frame, scheme, rng)
        if row == 0 or per_trial:
            ch = _make_channel(cfg, grid, rng, sum(s[1].size for s in symbols))
            if with_truth:
                impulses.append(ch.impulse_response(mid))
        if row == 0:
            # a row per field over the frame, the sent frame at the head of
            # the received one's, and the columns of each symbol's non-empty
            # fields in them: (view, symbol, field)
            ends = np.cumsum([[f.shape[-1] for f in s] for s in symbols], 0)
            n = ends[-1][1]
            rows = [space(name, (end + (ch.ir_len - 1) * (name == "rx"),),
                          np.result_type(*parts))[:count]
                    for name, end, parts in zip(("bits", "rx", "rs", "data",
                                                 "ars"), ends[-1], zip(*symbols))]
            columns = [(r[:, e - f.shape[-1] : e], i, k)
                       for i, (s, es) in enumerate(zip(symbols, ends))
                       for k, (r, f, e) in enumerate(zip(rows, s, es))
                       if f.shape[-1]]
            rx = rows[1]
        for view, i, k in columns:
            view[row] = symbols[i][k]
        if per_trial:
            rx[row] = apply_channel(rx[row, :n], ch, rng, time_var)
        else:
            streams.append(rng)
    if not per_trial:
        apply_channel(rx, ch, out=rx)
        # y + n, as the 1-D call adds them, a row at a time: a chunk of noise
        # would be one more chunk-sized array to allocate and fault in
        noise = np.empty(n, dtype=complex)
        for y, rng in zip(rx, streams if time_var else ()):
            y += rng.complex_normal(n, time_var, out=noise)
    truth = None
    if with_truth:
        truth = _composite_truth(np.stack(impulses), grid, filt)
        truth = np.repeat(truth, count // len(impulses), axis=0)
    return _Sent(*rows, truth)


def _front_end(rx: np.ndarray, grid: WaveformGrid, space) -> np.ndarray:
    """`front_end` of a chunk's rows, its FFT written into `space`."""
    out = space("spectrum", (grid.fft_size,), complex)[: len(rx)]
    return front_end(rx, grid, out=out)


@shared
def _estimator(scheme, layout: FrameLayout, filt: ShapingFilter, ridge: float,
               rs_field: str = "rs_overhead_pct") -> EstimatorConfig:
    """The RS estimator of a layout, checked before any trial, once per key;
    a refused key raises on every call. A layout without RS (`rs_field`, the
    config entry that set its RS share, is 0) is refused. A pi/2-BPSK RS is
    drawn per symbol and any draw can have a spectral null, so without ridge
    it is refused. Every other RS is the layout's fixed one: an
    unregularized one with a null raises SingularReference, not mid-run."""
    if layout.rs_len == 0:
        raise ValueError(f"{rs_field} = 0 gives a layout without RS, which "
                         "leaves nothing to estimate the channel from")
    est_cfg = EstimatorConfig(window_len=window_for(scheme.name, layout),
                              ridge=ridge)
    if scheme.name != "PI2_BPSK":
        check_reference(_fixed_references(layout, scheme)[0], layout, filt,
                        est_cfg)
    elif ridge == 0:
        raise ValueError("PI2_BPSK RS spectra are drawn per symbol and can have "
                         "nulls; set ridge > 0")
    return est_cfg


def _mse_point(cfg: ExperimentConfig, scheme, layout: FrameLayout,
               filt: ShapingFilter, grid: WaveformGrid,
               est_cfg: EstimatorConfig, snr_db: float) -> float:
    # a workspace per point: the points differ in layout and grid, so one
    # per runner call would hold every point's arrays to its end
    time_var, _ = _noise_vars(grid, snr_db)
    space = _workspace(cfg.trials)

    def chunk(trials: range):
        sent = _send(cfg, scheme, ((layout, filt, grid),), time_var, space,
                     trials, with_truth=True)
        folded = fold_spectrum(_front_end(sent.rx, grid, space), filt)
        response = estimate_channel(folded, filt, layout, sent.rs_core, est_cfg)
        return (np.mean(np.abs(response - sent.truth) ** 2, axis=-1),)

    (per_trial,) = _map_chunks(chunk, cfg.trials)
    return float(np.mean(per_trial))


# the fixed RS share is read by extension points, the extension by RS points
@_runner(lambda cfg: _link_reads(cfg)
         - _if(not cfg.gamma_sweep_pct, "rs_overhead_pct")
         - _if(not cfg.rs_sweep_pct, "extension_pct"))
def run_mse(cfg: ExperimentConfig):
    """Estimate-vs-truth MSE swept over the extension factor at fixed RS
    overhead, then over the RS overhead at fixed extension, at the config's
    single SNR."""
    if len(cfg.snr_db) != 1:
        raise ValueError(f"run_mse: needs exactly one SNR, got {len(cfg.snr_db)}")
    if not cfg.gamma_sweep_pct and not cfg.rs_sweep_pct:
        raise ValueError("run_mse: gamma_sweep_pct and rs_sweep_pct are both empty")
    for name, ext in _entries("gamma_sweep_pct", cfg.gamma_sweep_pct):
        if ext != 0 and cfg.filter_kind != "SQRC":
            raise ValueError(f"run_mse: {name} = {ext} needs filter_kind SQRC; "
                             f"filter_kind {cfg.filter_kind} has no extension")
    snr_db = cfg.snr_db[0]
    (fixed_field, rs_fixed), *rs_sweep = cfg._mse_rs_shares()
    # (iv name, iv value, extension, RS share, config entry of the RS share)
    points = ([("gamma_pct", ext, ext, rs_fixed, fixed_field)
               for ext in cfg.gamma_sweep_pct]
              + [("rs_overhead_pct", rs, cfg.extension_pct, rs, rs_field)
                 for rs_field, rs in rs_sweep])
    # resolve and check every point before the first trial
    resolved = [cfg.resolve(extension_pct=ext, rs_overhead_pct=rs_pct)
                for _, _, ext, rs_pct, _ in points]
    estimators = [_estimator(scheme, layout, filt, cfg.ridge, rs_field)
                  for (scheme, layout, filt, _), (*_, rs_field) in zip(resolved,
                                                                       points)]
    record = partial(_record, cfg, cfg.digest())

    def run_trials() -> list[MetricRecord]:
        return [record(*point[1:3], "chan_mse", iv_name, iv_value,
                       _mse_point(cfg, *point, est_cfg, snr_db), snr_db=snr_db)
                for (iv_name, iv_value, *_), point, est_cfg
                in zip(points, resolved, estimators)]

    return run_trials


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


def _otfdm_chunk(cfg, scheme, layout, filt, grid, est_cfg, snr_db, space,
                 trials):
    """End-to-end OTFDM symbols of one chunk of trials."""
    time_var, inv_snr = _noise_vars(grid, snr_db)
    sent = _send(cfg, scheme, ((layout, filt, grid),), time_var, space, trials,
                 with_truth=cfg.genie_channel)
    folded = fold_spectrum(_front_end(sent.rx, grid, space), filt)
    if cfg.genie_channel:
        response = sent.truth
    else:
        response = estimate_channel(folded, filt, layout, sent.rs_core, est_cfg)
    time = mmse_equalize(folded, response, inv_snr)
    if layout.ars_len and cfg.ars_correction:
        time, _ = ars_phase_correct(time, sent.ars_symbols, layout)
    return _data_errors(time[:, layout.data_start : layout.ars_start], response,
                        inv_snr, scheme, sent.bits, sent.data_symbols)


def _dfts_baseline_chunk(cfg, scheme, frame, snr_db, space, trials):
    """Two-symbol DFT-s-OFDM reference (`_dfts_baseline`): the LS estimate
    from the RS symbol is reused, unchanged, on the following data symbol,
    which is all data."""
    (_, filt, grid), _ = frame
    time_var, inv_snr = _noise_vars(grid, snr_db)
    sent = _send(cfg, scheme, frame, time_var, space, trials)
    half = grid.fft_size + grid.cp_len
    y_rs = fold_spectrum(_front_end(sent.rx[:, :half], grid, space), filt)
    y_data = fold_spectrum(_front_end(sent.rx[:, half:], grid, space), filt)
    response = y_rs / np.fft.fft(sent.rs_core)
    return _data_errors(mmse_equalize(y_data, response, inv_snr), response,
                        inv_snr, scheme, sent.bits, sent.data_symbols)


def _ars_warning(cfg: ExperimentConfig) -> str | None:
    """Warning for a corrected ARS run whose worst per-symbol Doppler phase
    2*pi*f_d,max/scs reaches pi/2: `ars_phase_correct`'s step is ambiguous
    beyond pi per symbol, and a noisy estimate aliases before that."""
    if not (cfg.ars_pct > 0 and cfg.ars_correction and cfg.channel != "AWGN"):
        return None
    phase = (2.0 * math.pi * _max_doppler_hz(cfg.speed_kmh, cfg.fc_ghz)
             / (cfg.scs_khz * 1e3))
    if phase < math.pi / 2:
        return None
    return ("ARS phase may alias: worst per-symbol Doppler phase "
            f"2*pi*f_d/scs = {phase:.2f} rad reaches pi/2 (ambiguous at pi)")


@_runner(lambda cfg: (_link_reads(cfg) - _if(cfg.genie_channel, "ridge"))
         | {"genie_channel", "compare_baseline"}
         | _if(cfg.ars_pct > 0, "ars_correction"))
def run_ber(cfg: ExperimentConfig):
    """Uncoded BER and pooled EVM versus SNR; optionally also for the
    two-symbol DFT-s-OFDM baseline with matched resources."""
    if cfg.scheme == "PI2_BPSK" and cfg.compare_baseline:
        raise ValueError("run_ber: the baseline's random PI2_BPSK RS can have "
                         "exact nulls and is divided without ridge; drop "
                         "compare_baseline")
    scheme, layout, filt, grid = cfg.resolve()
    est_cfg = None if cfg.genie_channel else _estimator(scheme, layout, filt, cfg.ridge)
    if math.inf in cfg.snr_db:
        # every response, estimated or genie, carries the filter's folded
        # gain, so a null in it fails the noiseless point for certain
        try:
            check_equalizer(filt.folded_square(), 0.0)
        except DegenerateEqualizer as err:
            raise DegenerateEqualizer(f"run_ber: filter_kind {cfg.filter_kind} "
                                      "nulls a subcarrier, which snr_db=inf "
                                      f"cannot equalize: {err}") from None
    baseline = _dfts_baseline(cfg) if cfg.compare_baseline else None
    record = partial(_record, cfg, cfg.digest(), layout, filt)
    ars_warning = _ars_warning(cfg)

    def run_trials() -> list[MetricRecord]:
        records = []
        # the OTFDM and baseline frames keep separate workspace arrays
        space = _workspace(cfg.trials)
        for snr_db in cfg.snr_db:
            # the baseline carries no ARS, so only OTFDM records take the
            # ARS warning
            runs = [("", ars_warning, partial(_otfdm_chunk, cfg, scheme, layout,
                                              filt, grid, est_cfg, snr_db, space))]
            if baseline:
                runs.append(("_baseline", None, partial(
                    _dfts_baseline_chunk, cfg, scheme, baseline, snr_db, space)))
            for suffix, warning, chunk in runs:
                # per-trial rows summed as Python numbers, in trial order
                errors, bits, err_pow, ref_pow = (
                    sum(col.tolist()) for col in _map_chunks(chunk, cfg.trials))
                values = (("ber", errors / bits),
                          ("evm_db", power_ratio_db(err_pow, ref_pow)))
                records += [record(metric + suffix, "snr_db", snr_db, value,
                                   snr_db=snr_db, warning=warning)
                            for metric, value in values]
        return records

    return run_trials


# --------------------------------------------------------------------------
# effective-pulse tail decay
# --------------------------------------------------------------------------

def pulse_tail_fraction(alloc_size: int, extension_pct: float,
                        tail_periods: int) -> float:
    """Fraction of effective-pulse energy outside +-tail_periods symbol
    periods around the peak (0 once the window spans the whole pulse)."""
    return _tail_fraction(filter_for("SQRC", alloc_size, extension_pct), tail_periods)


def _tail_fraction(filt: ShapingFilter, tail_periods: int) -> float:
    """`pulse_tail_fraction` of the pulse that `filt` shapes."""
    if tail_periods < 0:
        raise ValueError("pulse_tail_fraction: tail_periods must be >= 0")
    grid = grid_for(filt.alloc_size, filt.excess)
    half = tail_periods * grid.fft_size // filt.alloc_size
    if 2 * half + 1 >= grid.fft_size:
        return 0.0
    energy = np.abs(effective_pulse(filt, grid)) ** 2
    # `effective_pulse` centres its peak, where the real non-negative weights
    # add in phase, and 2 * half + 1 < fft_size keeps the window inside
    peak = grid.fft_size // 2
    inside = energy[peak - half : peak + half + 1].sum()
    return float(1.0 - inside / energy.sum())


# the pulse is the SQRC one of each swept extension, whatever the filter
@_runner(lambda cfg: {"alloc_size"})
def run_pulse_decay(cfg: ExperimentConfig):
    """Tail-energy fraction of the transmit pulse per extension factor."""
    if not cfg.gamma_sweep_pct:
        raise ValueError("run_pulse_decay: empty extension sweep")
    layout = layout_for(cfg.scheme, cfg.alloc_size, cfg.ars_len(),
                        cfg.rs_overhead_pct)
    record = partial(_record, cfg, cfg.digest(), layout)

    def run_trials() -> list[MetricRecord]:
        return [record(filt, "pulse_tail_energy", "gamma_pct", ext,
                       _tail_fraction(filt, cfg.tail_periods))
                for ext in cfg.gamma_sweep_pct
                for filt in [filter_for("SQRC", cfg.alloc_size, ext)]]

    return run_trials


# --------------------------------------------------------------------------
# overheads and the sweep driver
# --------------------------------------------------------------------------

@_runner(lambda cfg: _waveform_reads(cfg) - {"ars_pct"})
def run_overhead(cfg: ExperimentConfig):
    """Total overhead (RS block share plus extension) for the resolved layout."""
    _, layout, filt, _ = cfg.resolve()
    # the overhead is the sum of the record's two realized shares
    shares = _record(cfg, cfg.digest(), layout, filt, "overhead_pct",
                     "alloc_size", cfg.alloc_size, math.nan)
    records = [replace(shares, value=shares.rs_overhead_pct + shares.gamma_pct)]
    return lambda: records


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
    Every (config, metric) pair is checked before the first trial runs; a
    refused pair raises the runner's error, prefixed with the config's index
    and the metric.
    """
    if not configs:
        raise ValueError("sweep: empty config list")
    for name in metrics:
        if name not in RUNNERS:
            raise ValueError(f"sweep: unknown metric {name!r}")
    loops = []
    for index, cfg in enumerate(configs):
        for name in metrics:
            try:
                loops.append(RUNNERS[name].plan(cfg))
            except ValueError as err:
                raise type(err)(f"config entry {index}, metric {name}: "
                                f"{err}") from err
    records = [record for run_trials in loops for record in run_trials()]
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
