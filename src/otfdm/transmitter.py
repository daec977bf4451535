"""Waveform synthesis: multiplex, DFT precode, extend, shape, map, modulate.

Each stage is a public function, so any intermediate is recomputed from the
arrays `generate_otfdm` returns. Power is normalized once, at the OFDM
modulation stage, with a fixed deterministic scale so the whole pipeline
stays linear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng, dft, shared
from .sequences import (
    ZC_ROOT,
    FrameLayout,
    ModScheme,
    ShapingFilter,
    build_rs_block,
    make_rs_core,
    modulate,
)

__all__ = [
    "WaveformGrid",
    "multiplex_symbol",
    "precode_extend_shape",
    "map_and_modulate",
    "effective_pulse",
    "generate_otfdm",
    "write_waveform",
]


@dataclass(frozen=True)
class WaveformGrid:
    """Subcarrier budget of one symbol.

    alloc_size subcarriers carry the DFT precoder output, plus `excess` cyclic
    copies per side; the extended block is mapped onto fft_size bins centred
    on subcarrier zero (frequencies in [-fft_size/2, fft_size/2)).
    """

    alloc_size: int
    excess: int
    fft_size: int
    cp_len: int
    scs_khz: float = 30.0

    def __post_init__(self):
        m, g, n = self.alloc_size, self.excess, self.fft_size
        if m < 1 or g < 0:
            raise ValueError("WaveformGrid: alloc_size >= 1 and excess >= 0 required")
        if m + 2 * g > n:
            raise ValueError(
                f"WaveformGrid: extended block {m + 2 * g} exceeds fft_size {n}"
            )
        if self.cp_len < 0:
            raise ValueError("WaveformGrid: cp_len must be >= 0")

    @property
    def first_subcarrier(self) -> int:
        return -(self.alloc_size // 2 + self.excess)

    @property
    def extended_size(self) -> int:
        return self.alloc_size + 2 * self.excess

    @property
    def sample_rate_hz(self) -> float:
        return self.fft_size * self.scs_khz * 1e3

    @shared
    def mapped_bins(self) -> np.ndarray:
        """FFT bin index for each extended-grid position (read-only)."""
        return (self.first_subcarrier + np.arange(self.extended_size)) % self.fft_size


@shared
def _slice_runs(alloc_size: int, excess: int, fft_size: int,
                first: int) -> tuple:
    """Read-only plan of the extended block: ((extended, spectrum, bin)
    slices, ...), one triple per run of extended positions j over which both
    the spectrum index (j - excess) % alloc_size and the bin
    (first + j) % fft_size step by one. Runs split where either wraps: at
    most 4 when excess <= alloc_size, fewer on a zero excess."""
    size = alloc_size + 2 * excess
    # the spectrum index wraps where j = excess (mod alloc_size), the bin
    # where j = -first (mod fft_size)
    wraps = {*range(excess % alloc_size, size, alloc_size), -first % fft_size}
    cuts = sorted({0, size} | {j for j in wraps if 0 < j < size})
    runs = []
    for lo, hi in itertools.pairwise(cuts):
        spectrum = (lo - excess) % alloc_size
        bin_ = (first + lo) % fft_size
        runs.append((slice(lo, hi), slice(spectrum, spectrum + hi - lo),
                     slice(bin_, bin_ + hi - lo)))
    return tuple(runs)


def _grid_runs(grid: WaveformGrid) -> tuple:
    """The `_slice_runs` plan of the grid's extended block on its fft bins."""
    return _slice_runs(grid.alloc_size, grid.excess, grid.fft_size,
                       grid.first_subcarrier)


def _multiplex(rs_block, data, ars) -> np.ndarray:
    """[RS block | data | ARS] of three 1-D parts, as one complex vector."""
    return np.concatenate((rs_block, data, ars), dtype=np.complex128)


def _extend_shape(spectrum, weights, runs, out) -> np.ndarray:
    """out[target] = weights[extended] * spectrum[source] over each run of
    a `_slice_runs` plan: the cyclically extended, shaped spectrum, written
    where the plan places it."""
    for extended, source, target in runs:
        np.multiply(weights[extended], spectrum[source], out=out[target])
    return out


def _ofdm(mapped, grid: WaveformGrid) -> np.ndarray:
    """The cp_len + fft_size transmit samples of a mapped fft grid: its
    inverse transform, written straight into the body of the output and
    scaled there, then the body's tail copied into the prefix."""
    n, cp = grid.fft_size, grid.cp_len
    time = np.empty(cp + n, dtype=np.complex128)
    body = np.fft.ifft(mapped, out=time[cp:])
    body *= n / grid.alloc_size
    time[:cp] = body[n - cp :]
    return time


def multiplex_symbol(data, rs_block, ars, layout: FrameLayout) -> np.ndarray:
    """Write [RS block | data | ARS] into one alloc-size symbol."""
    parts = ((rs_block, layout.rs_block_len, "rs_block"),
             (data, layout.data_len, "data"), (ars, layout.ars_len, "ars"))
    flat = []
    for part, length, name in parts:
        part = np.asarray(part)
        if part.size != length:
            raise ValueError(
                f"multiplex_symbol: {name} length {part.size} != {length}"
            )
        flat.append(part.ravel())
    return _multiplex(*flat)


def precode_extend_shape(multiplexed, filt: ShapingFilter) -> np.ndarray:
    """DFT precode, cyclically extend by the filter's excess, apply weights.

    Output index j covers extended subcarriers j - excess for
    j in [0, alloc + 2*excess).
    """
    x = np.asarray(multiplexed, dtype=np.complex128)
    m, g = filt.alloc_size, filt.excess
    if x.size != m:
        raise ValueError(
            f"precode_extend_shape: input length {x.size} != filter alloc {m}"
        )
    # a plan whose bins are the extended positions themselves
    return _extend_shape(dft(x), filt.weights, _slice_runs(m, g, m + 2 * g, 0),
                         np.empty(m + 2 * g, dtype=np.complex128))


def map_and_modulate(shaped, grid: WaveformGrid) -> np.ndarray:
    """Place the shaped block on the fft grid, inverse transform, prepend CP:
    the cp_len + fft_size transmit samples.

    The fixed fft_size/alloc_size amplitude scale makes the mean time-sample
    power unity for unit-power constellations under a fold-flat filter.
    """
    shaped = np.asarray(shaped, dtype=np.complex128).ravel()
    if shaped.size != grid.extended_size:
        raise ValueError(
            f"map_and_modulate: block length {shaped.size} != "
            f"grid extended size {grid.extended_size}"
        )
    mapped = np.zeros(grid.fft_size, dtype=np.complex128)
    for extended, _, target in _grid_runs(grid):
        mapped[target] = shaped[extended]
    return _ofdm(mapped, grid)


def effective_pulse(filt: ShapingFilter, grid: WaveformGrid) -> np.ndarray:
    """Transmit pulse seen by one multiplexed sample (inverse transform of
    the mapped filter weights), circularly centered."""
    time = map_and_modulate(filt.weights.astype(np.complex128), grid)
    return np.roll(time[grid.cp_len :], grid.fft_size // 2)


def _references(layout: FrameLayout, scheme: ModScheme, rng: SeededRng) -> tuple:
    """(RS core, RS block, ARS core) of one symbol sent with `scheme` data.

    pi/2-BPSK cores are drawn from `rng` for each symbol, RS then ARS. The
    Zadoff-Chu references of every other scheme draw nothing, so they are
    built once per (layout, scheme) and shared read-only.
    """
    if scheme.name != "PI2_BPSK":
        return _fixed_references(layout, scheme)
    rs_core = make_rs_core(layout.rs_len, scheme, rng)
    return (rs_core, build_rs_block(rs_core, layout),
            make_rs_core(layout.ars_len, scheme, rng))


@shared
def _fixed_references(layout: FrameLayout, scheme: ModScheme) -> tuple:
    rs_core = make_rs_core(layout.rs_len, scheme)
    return (rs_core, build_rs_block(rs_core, layout),
            make_rs_core(layout.ars_len, scheme))


def generate_otfdm(
    bits,
    scheme: ModScheme,
    layout: FrameLayout,
    filt: ShapingFilter,
    grid: WaveformGrid,
    rng: SeededRng,
) -> tuple:
    """Full pipeline from data bits to one transmit symbol: (time samples,
    RS core, data symbols, ARS symbols), the cp_len + fft_size transmit
    vector and what was multiplexed, in the order [RS | data | ARS].
    multiplex_symbol(data, build_rs_block(rs_core, layout), ars, layout)
    rebuilds the multiplexed symbol bit for bit.

    The RS and ARS cores follow the scheme (`sequences.make_rs_core`):
    pi/2-BPSK ones are drawn from `rng`, so a (seed, stream) pair pins the
    whole symbol, and the Zadoff-Chu ones are the layout's read-only arrays.
    """
    if layout.total_len != grid.alloc_size or filt.alloc_size != grid.alloc_size:
        raise ValueError(
            "generate_otfdm: layout, filter and grid disagree on the allocation size"
        )
    if filt.excess != grid.excess:
        raise ValueError("generate_otfdm: filter and grid disagree on excess")

    expected = layout.data_len * scheme.bits_per_symbol
    if np.size(bits) != expected:
        raise ValueError(
            f"generate_otfdm: {np.size(bits)} data bits, layout needs {expected}"
        )

    rs_core, rs_block, ars = _references(layout, scheme, rng)
    data = modulate(bits, scheme)
    # the stages' own size checks follow from the ones above; extension,
    # shaping and mapping are one slice multiply per run of the grid's plan
    mapped = np.zeros(grid.fft_size, dtype=np.complex128)
    _extend_shape(dft(_multiplex(rs_block, data, ars)), filt.weights,
                  _grid_runs(grid), mapped)
    return _ofdm(mapped, grid), rs_core, data, ars


def write_waveform(path, time_samples, scheme: ModScheme, layout: FrameLayout,
                   filt: ShapingFilter, grid: WaveformGrid,
                   seed_info: str = "") -> None:
    """Dump time samples as interleaved little-endian float64 re/im pairs,
    with a text sidecar `<path>.hdr` describing how they were produced."""
    samples = np.asarray(time_samples, dtype=np.complex128)
    raw = np.empty(2 * samples.size, dtype="<f8")
    raw[0::2] = samples.real
    raw[1::2] = samples.imag
    raw.tofile(path)

    lines = [
        "format=interleaved_float64_le",
        f"num_samples={samples.size}",
        f"alloc_size={grid.alloc_size}",
        f"excess={grid.excess}",
        f"fft_size={grid.fft_size}",
        f"cp_len={grid.cp_len}",
        f"scs_khz={grid.scs_khz}",
        f"start_sc={grid.first_subcarrier}",
        f"rs_len={layout.rs_len}",
        f"rs_cp={layout.rs_cp}",
        f"rs_cs={layout.rs_cs}",
        f"data_len={layout.data_len}",
        f"ars_len={layout.ars_len}",
        f"scheme={scheme.name}",
        f"filter={filt.kind}",
    ]
    if scheme.name != "PI2_BPSK":  # only a Zadoff-Chu RS has a root
        lines.append(f"rs_root={ZC_ROOT}")
    if seed_info:
        lines.append(f"seed={seed_info}")
    with open(f"{path}.hdr", "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
