"""Bit mapping, reference sequences, RS block construction and shaping filters.

Constellations are Gray mapped with unit average power. Reference sequences
come in two families: cyclically extended Zadoff-Chu for QAM-type data, and
pi/2-BPSK sequences for pi/2-BPSK data so RS and data share the same envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng, cyclic_fold

__all__ = [
    "ModScheme",
    "PI2_BPSK",
    "QPSK",
    "QAM16",
    "QAM64",
    "QAM256",
    "MOD_SCHEMES",
    "FrameLayout",
    "ShapingFilter",
    "modulate",
    "zadoff_chu",
    "ZC_ROOT",
    "make_rs_core",
    "build_rs_block",
    "make_sqrc_filter",
    "make_taps_filter",
]


@dataclass(frozen=True)
class ModScheme:
    name: str
    bits_per_symbol: int

    def __str__(self) -> str:
        return self.name


PI2_BPSK = ModScheme("PI2_BPSK", 1)
QPSK = ModScheme("QPSK", 2)
QAM16 = ModScheme("QAM16", 4)
QAM64 = ModScheme("QAM64", 6)
QAM256 = ModScheme("QAM256", 8)

MOD_SCHEMES = {s.name: s for s in (PI2_BPSK, QPSK, QAM16, QAM64, QAM256)}


def _gray_pam(bits: np.ndarray) -> np.ndarray:
    """Map bit columns to Gray-coded PAM levels {-(L-1), ..., L-1}, step 2.

    bits has shape (n, m); each row selects one of L = 2^m levels such that
    adjacent levels differ in exactly one bit.
    """
    n, m = bits.shape
    level = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    for c in range(m):
        acc ^= bits[:, c]
        level = 2 * level + acc
    return 2 * level - (2**m - 1)


def modulate(bits, scheme: ModScheme) -> np.ndarray:
    """Map a bit sequence to unit-average-power constellation symbols."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    bps = scheme.bits_per_symbol
    if bits.size % bps != 0:
        raise ValueError(
            f"modulate: {bits.size} bits not divisible by {bps} for {scheme.name}"
        )
    nsym = bits.size // bps
    if scheme.name == "PI2_BPSK":
        bpsk = (1 - 2 * bits) * (1 + 1j) / np.sqrt(2.0)
        rot = np.where(np.arange(nsym) % 2 == 1, 1j, 1.0 + 0j)
        return bpsk * rot
    if scheme.name == "QPSK":
        return ((1 - 2 * bits[0::2]) + 1j * (1 - 2 * bits[1::2])) / np.sqrt(2.0)
    # square QAM: even bit positions drive I, odd drive Q, Gray per axis
    grouped = bits.reshape(nsym, bps)
    i = _gray_pam(grouped[:, 0::2])
    q = _gray_pam(grouped[:, 1::2])
    levels = 2 ** (bps // 2)
    scale = math.sqrt(2.0 * (levels * levels - 1) / 3.0)
    return (i + 1j * q) / scale


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """Constant-amplitude sequence exp(-j*pi*root*n*(n+1)/length)."""
    if length < 1:
        raise ValueError("zadoff_chu: length must be >= 1")
    if math.gcd(root, length) != 1:
        raise ValueError(f"zadoff_chu: gcd(root={root}, length={length}) != 1")
    n = np.arange(length, dtype=np.float64)
    return np.exp(-1j * np.pi * root * n * (n + 1) / length)


def _largest_prime_le(n: int) -> int:
    def is_prime(x: int) -> bool:
        if x < 2:
            return False
        for d in range(2, int(math.isqrt(x)) + 1):
            if x % d == 0:
                return False
        return True

    while n >= 2 and not is_prime(n):
        n -= 1
    if n < 2:
        raise ValueError("no prime available below requested length")
    return n


# Zadoff-Chu root of every ZC reference-sequence core.
ZC_ROOT = 1


def make_rs_core(
    length: int,
    kind: str = "zc",
    rng: SeededRng | None = None,
) -> np.ndarray:
    """Reference-sequence core of the requested length.

    kind "zc": Zadoff-Chu of root ZC_ROOT and the largest prime length <=
    `length`, cyclically extended, spectrally near flat. kind "pi2_bpsk":
    pi/2-BPSK symbols from a seeded bit source (rng required).
    """
    if length < 1:
        raise ValueError("make_rs_core: length must be >= 1")
    if kind == "zc":
        prime = _largest_prime_le(length) if length >= 2 else 1
        base = zadoff_chu(ZC_ROOT, prime)
        return base[np.arange(length) % prime]
    if kind == "pi2_bpsk":
        if rng is None:
            raise ValueError("make_rs_core: pi2_bpsk kind needs an rng")
        return modulate(rng.bits(length), PI2_BPSK)
    raise ValueError(f"make_rs_core: unknown kind {kind!r}")


TWO_SIDED = "TWO_SIDED"
ONE_SIDED_CP = "ONE_SIDED_CP"


@dataclass(frozen=True)
class FrameLayout:
    """Sample budget of one multiplexed symbol: [RS block | data | ARS].

    The RS block is [cyclic prefix | core | cyclic suffix] where the prefix
    copies the tail of the core and the suffix copies its head. The one-sided
    variant drops the suffix and uses a full-length prefix instead.
    """

    rs_len: int
    rs_cp: int
    rs_cs: int
    data_len: int
    ars_len: int = 0
    variant: str = TWO_SIDED

    def __post_init__(self):
        for name in ("rs_len", "rs_cp", "rs_cs", "data_len", "ars_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"FrameLayout: {name} must be >= 0")
        if self.rs_cp > self.rs_len or self.rs_cs > self.rs_len:
            raise ValueError("FrameLayout: CP/CS cannot exceed the RS core length")
        if self.variant not in (TWO_SIDED, ONE_SIDED_CP):
            raise ValueError(f"FrameLayout: unknown variant {self.variant!r}")
        if self.variant == ONE_SIDED_CP and (
            self.rs_cs != 0 or self.rs_cp != self.rs_len
        ):
            raise ValueError(
                "FrameLayout: one-sided variant requires rs_cs == 0 and "
                "rs_cp == rs_len"
            )

    @property
    def rs_block_len(self) -> int:
        return self.rs_cp + self.rs_len + self.rs_cs

    @property
    def total_len(self) -> int:
        return self.rs_block_len + self.data_len + self.ars_len

    @property
    def rs_core_start(self) -> int:
        return self.rs_cp

    @property
    def data_start(self) -> int:
        return self.rs_block_len

    @property
    def ars_start(self) -> int:
        return self.rs_block_len + self.data_len


def build_rs_block(rs_core, layout: FrameLayout) -> np.ndarray:
    """Wrap the RS core with its cyclic prefix and suffix per the layout."""
    core = np.asarray(rs_core, dtype=np.complex128)
    if core.ndim != 1 or core.size != layout.rs_len:
        raise ValueError(
            f"build_rs_block: core length {core.size} != layout rs_len {layout.rs_len}"
        )
    if layout.variant == ONE_SIDED_CP:
        return np.concatenate([core, core])
    head = core[core.size - layout.rs_cp :] if layout.rs_cp else core[:0]
    tail = core[: layout.rs_cs]
    return np.concatenate([head, core, tail])


@dataclass(frozen=True)
class ShapingFilter:
    """Real non-negative spectrum weights over the extended subcarrier grid.

    weights[j] is the gain at extended index j - excess, j in
    [0, alloc + 2*excess). SQRC filters satisfy the fold-flatness identity
    sum_p w(k + p*alloc)^2 = 1 exactly; tap filters only satisfy it in the
    mean and carry the residual in their certificate.
    """

    weights: np.ndarray
    excess: int
    kind: str

    @property
    def alloc_size(self) -> int:
        return self.weights.size - 2 * self.excess

    def fold_flatness_error(self) -> float:
        """Max deviation of the folded squared gain from unity."""
        return float(np.max(np.abs(self.folded_square() - 1.0)))

    def folded_square(self) -> np.ndarray:
        """Folded squared gain on the alloc-size grid (composite filter gain)."""
        return cyclic_fold(self.weights**2, self.alloc_size, self.excess)


def make_sqrc_filter(alloc_size: int, excess: int) -> ShapingFilter:
    """Square-root-raised-cosine spectrum weights with `excess` subcarriers
    of rolloff per side; excess 0 degenerates to the rectangular filter."""
    m, g = int(alloc_size), int(excess)
    if m < 1:
        raise ValueError("make_sqrc_filter: alloc_size must be >= 1")
    if g < 0 or 2 * g > m:
        raise ValueError(
            f"make_sqrc_filter: excess {g} outside [0, {m // 2}] (extension < 100%)"
        )
    k = np.arange(-g, m + g, dtype=np.float64)
    w = np.ones(m + 2 * g)
    if g > 0:
        left = k < g
        w[left] = np.sqrt(0.5 * (1.0 + np.cos(np.pi * (-k[left] + g) / (2.0 * g))))
        right = k >= m - g
        w[right] = np.sqrt(0.5 * (1.0 + np.cos(np.pi * (k[right] - m + g) / (2.0 * g))))
    return ShapingFilter(weights=w, excess=g, kind="SQRC")


def make_taps_filter(taps, alloc_size: int) -> ShapingFilter:
    """Magnitude response of a 2- or 3-tap time filter on the alloc-size grid,
    power normalized to unit mean squared gain; no excess bandwidth."""
    taps = np.asarray(taps, dtype=np.float64)
    if taps.size not in (2, 3):
        raise ValueError(f"make_taps_filter: {taps.size} taps unsupported (want 2 or 3)")
    m = int(alloc_size)
    if m < taps.size:
        raise ValueError("make_taps_filter: alloc_size smaller than the tap count")
    k = np.arange(m)
    response = np.zeros(m, dtype=np.complex128)
    for delay, tap in enumerate(taps):
        response += tap * np.exp(-2j * np.pi * k * delay / m)
    w = np.abs(response)
    w /= np.sqrt(np.mean(w**2))
    return ShapingFilter(weights=w, excess=0, kind="TAPS")
