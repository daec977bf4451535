"""Waveform synthesis: multiplex, DFT precode, extend, shape, map, modulate.

The chain keeps every intermediate tap on the symbol object so each stage can
be checked against a direct recomputation. Power is normalized once, at the
OFDM modulation stage, with a fixed deterministic scale so the whole pipeline
stays linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import SeededRng, dft
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
    "OtfdmSymbol",
    "multiplex_symbol",
    "precode_extend_shape",
    "map_and_modulate",
    "effective_pulse",
    "reference_core",
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

    def mapped_bins(self) -> np.ndarray:
        """FFT bin index for each extended-grid position."""
        j = np.arange(self.extended_size)
        return (self.first_subcarrier + j) % self.fft_size


@dataclass
class OtfdmSymbol:
    """One generated symbol with its debug taps.

    time_samples is the cp_len + fft_size transmit vector. The taps hold the
    unnormalized stage outputs: the multiplexed symbol and the extended,
    shaped block.
    """

    time_samples: np.ndarray
    grid: WaveformGrid
    layout: FrameLayout | None = None
    multiplexed: np.ndarray | None = None
    shaped: np.ndarray | None = None
    data_symbols: np.ndarray | None = None
    ars_symbols: np.ndarray | None = None
    rs_core: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def body(self) -> np.ndarray:
        """Time samples without the symbol-level cyclic prefix."""
        return self.time_samples[self.grid.cp_len :]


def multiplex_symbol(data, rs_block, ars, layout: FrameLayout) -> np.ndarray:
    """Concatenate [RS block | data | ARS] into one alloc-size symbol."""
    data = np.asarray(data, dtype=np.complex128)
    rs_block = np.asarray(rs_block, dtype=np.complex128)
    ars = np.asarray(ars, dtype=np.complex128)
    if rs_block.size != layout.rs_block_len:
        raise ValueError(
            f"multiplex_symbol: rs_block length {rs_block.size} != "
            f"{layout.rs_block_len}"
        )
    if data.size != layout.data_len:
        raise ValueError(
            f"multiplex_symbol: data length {data.size} != {layout.data_len}"
        )
    if ars.size != layout.ars_len:
        raise ValueError(f"multiplex_symbol: ars length {ars.size} != {layout.ars_len}")
    return np.concatenate([rs_block, data, ars])


def precode_extend_shape(multiplexed, filt: ShapingFilter) -> np.ndarray:
    """DFT precode, cyclically extend by the filter's excess, apply weights.

    Output index j covers extended subcarriers j - excess for
    j in [0, alloc + 2*excess).
    """
    x = np.asarray(multiplexed, dtype=np.complex128)
    m = filt.alloc_size
    if x.size != m:
        raise ValueError(
            f"precode_extend_shape: input length {x.size} != filter alloc {m}"
        )
    spectrum = dft(x)
    j = np.arange(m + 2 * filt.excess)
    extended = spectrum[(j - filt.excess) % m]
    return filt.weights * extended


def map_and_modulate(shaped, grid: WaveformGrid) -> OtfdmSymbol:
    """Place the shaped block on the fft grid, inverse transform, prepend CP.

    The fixed fft_size/alloc_size amplitude scale makes the mean time-sample
    power unity for unit-power constellations under a fold-flat filter.
    """
    shaped = np.asarray(shaped, dtype=np.complex128)
    if shaped.size != grid.extended_size:
        raise ValueError(
            f"map_and_modulate: block length {shaped.size} != "
            f"grid extended size {grid.extended_size}"
        )
    n = grid.fft_size
    mapped = np.zeros(n, dtype=np.complex128)
    mapped[grid.mapped_bins()] = shaped
    body = np.fft.ifft(mapped) * (n / grid.alloc_size)
    time = np.concatenate([body[n - grid.cp_len :], body]) if grid.cp_len else body
    return OtfdmSymbol(time_samples=time, grid=grid, shaped=shaped)


def effective_pulse(
    filt: ShapingFilter, grid: WaveformGrid, matched: bool = False
) -> np.ndarray:
    """Time response seen by one multiplexed sample, circularly centered.

    With matched=False this is the transmit pulse (inverse transform of the
    mapped filter weights); matched=True returns the transmit/receive
    composite (squared weights), the pulse whose symbol-spaced samples vanish
    for a fold-flat filter.
    """
    weights = filt.weights**2 if matched else filt.weights
    sym = map_and_modulate(weights.astype(np.complex128), grid)
    pulse = sym.body
    return np.roll(pulse, grid.fft_size // 2)


def reference_core(length: int, scheme: ModScheme,
                   rng: SeededRng | None = None) -> np.ndarray | None:
    """RS or ARS core of `length` samples sent with `scheme` data: pi/2-BPSK
    symbols drawn from `rng` for pi/2-BPSK data, the Zadoff-Chu core
    otherwise. A pi/2-BPSK core without an rng is None: it is only known
    once drawn."""
    if length == 0:
        return np.zeros(0, dtype=np.complex128)
    if scheme.name == "PI2_BPSK":
        if rng is None:
            return None
        return make_rs_core(length, kind="pi2_bpsk", rng=rng)
    return make_rs_core(length, kind="zc")


def generate_otfdm(
    bits,
    scheme: ModScheme,
    layout: FrameLayout,
    filt: ShapingFilter,
    grid: WaveformGrid,
    rng: SeededRng,
) -> OtfdmSymbol:
    """Full pipeline from data bits to one transmit symbol.

    RS and ARS sequences are derived from the scheme family
    (`reference_core`); their material is drawn from `rng` so a (seed,
    stream) pair pins the whole symbol.
    """
    if layout.total_len != grid.alloc_size or filt.alloc_size != grid.alloc_size:
        raise ValueError(
            "generate_otfdm: layout, filter and grid disagree on the allocation size"
        )
    if filt.excess != grid.excess:
        raise ValueError("generate_otfdm: filter and grid disagree on excess")

    bits = np.asarray(bits, dtype=np.int64).ravel()
    expected = layout.data_len * scheme.bits_per_symbol
    if bits.size != expected:
        raise ValueError(
            f"generate_otfdm: {bits.size} data bits, layout needs {expected}"
        )

    rs_core = reference_core(layout.rs_len, scheme, rng)
    rs_block = build_rs_block(rs_core, layout)
    data = modulate(bits, scheme)
    ars = reference_core(layout.ars_len, scheme, rng)

    multiplexed = multiplex_symbol(data, rs_block, ars, layout)
    shaped = precode_extend_shape(multiplexed, filt)
    sym = map_and_modulate(shaped, grid)
    sym.layout = layout
    sym.multiplexed = multiplexed
    sym.data_symbols = data
    sym.ars_symbols = ars
    sym.rs_core = rs_core
    sym.meta = {"scheme": scheme.name, "filter": filt.kind, "rs_root": ZC_ROOT}
    return sym


def write_waveform(path, symbol: OtfdmSymbol, seed_info: str = "") -> None:
    """Dump time samples as interleaved little-endian float64 re/im pairs,
    with a text sidecar `<path>.hdr` describing how they were produced."""
    samples = np.asarray(symbol.time_samples, dtype=np.complex128)
    raw = np.empty(2 * samples.size, dtype="<f8")
    raw[0::2] = samples.real
    raw[1::2] = samples.imag
    raw.tofile(path)

    g = symbol.grid
    lines = [
        "format=interleaved_float64_le",
        f"num_samples={samples.size}",
        f"alloc_size={g.alloc_size}",
        f"excess={g.excess}",
        f"fft_size={g.fft_size}",
        f"cp_len={g.cp_len}",
        f"scs_khz={g.scs_khz}",
        f"start_sc={g.first_subcarrier}",
    ]
    if symbol.layout is not None:
        lo = symbol.layout
        lines += [
            f"rs_len={lo.rs_len}",
            f"rs_cp={lo.rs_cp}",
            f"rs_cs={lo.rs_cs}",
            f"data_len={lo.data_len}",
            f"ars_len={lo.ars_len}",
            f"variant={lo.variant}",
        ]
    for key, val in symbol.meta.items():
        lines.append(f"{key}={val}")
    if seed_info:
        lines.append(f"seed={seed_info}")
    with open(f"{path}.hdr", "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
