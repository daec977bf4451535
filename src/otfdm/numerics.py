"""Complex transform and statistics kernel shared by the whole library.

Conventions, fixed once here so power bookkeeping is consistent everywhere:
the forward DFT is unnormalized and the inverse carries the 1/size factor
(numpy's convention). Transform lengths are arbitrary, not just powers of
two, since allocation sizes like 2400 are first class.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

# Bound of every library cache: each holds values that depend only on a
# frozen key (scheme, layout, grid, delay profile), a few KiB to a few tens
# of KiB per entry.
CACHE_SIZE = 32

__all__ = ["shared", "dft", "cyclic_fold", "ccdf", "CcdfCounter", "evm_db",
           "power_ratio_db", "SeededRng"]


def shared(builder):
    """Decorator for a run constant, a builder whose result depends only on
    its hashable arguments: each argument tuple is built once (equal values
    of other types, such as 30 and 30.0, apart), the last CACHE_SIZE kept,
    and every ndarray in the result (returned directly, in nested tuples or
    as a dataclass's fields) is made read-only, so every caller can share
    it. The result stays a plain function, which binds as a
    method and which tracers wrap, with `cache_info` and `cache_clear`."""
    @functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
    def cached(*args, **kwargs):
        return _freeze(builder(*args, **kwargs))

    @functools.wraps(builder)
    def constant(*args, **kwargs):
        return cached(*args, **kwargs)

    constant.cache_info = cached.cache_info
    constant.cache_clear = cached.cache_clear
    return constant


def _freeze(value):
    """`value`, with every ndarray it holds made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _freeze(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    return value


def _as_complex_vec(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D sample vector, got shape {x.shape}")
    return x


def dft(x) -> np.ndarray:
    """Forward (unnormalized) DFT of a complex vector."""
    x = _as_complex_vec(x)
    if x.size == 0:
        raise ValueError("dft: zero-length input")
    return np.fft.fft(x)


def cyclic_fold(x, length: int, offset: int = 0) -> np.ndarray:
    """Alias a sequence onto a cyclic grid of `length` bins.

    x[..., j] is added into bin (j - offset) % length of its own row, in
    ascending j, starting from zero; leading axes are independent rows.
    This is the one implementation of spectrum folding, so every fold in the
    library sums its contributions in the same order.
    """
    x = np.asarray(x)
    out = np.zeros(x.shape[:-1] + (length,), dtype=x.dtype)
    bins = (np.arange(x.shape[-1]) - offset) % length
    # one flat scatter: row r's bins sit at r*length + bin, and the flat
    # order visits each row's samples in ascending j
    rows = np.arange(out.size // length)[:, None] * length
    np.add.at(out.reshape(-1), (rows + bins).ravel(), x.reshape(-1))
    return out


def ccdf(values, grid) -> list[tuple[float, float]]:
    """Complementary CDF of `values` over ascending thresholds `grid`.

    Returns (threshold, Pr[value > threshold]) pairs; the probabilities are
    monotone non-increasing along the grid. One `CcdfCounter` pass.
    """
    values = np.asarray(values, dtype=float).ravel()
    counter = CcdfCounter(grid, values.size)
    counter.add(values)
    return counter.ccdf()


class CcdfCounter:
    """Exact CCDF over ascending thresholds `grid`, and optionally the
    sample quantile `q`, of `total` values offered in chunks.

    The values are not kept: each chunk is sorted on its own and counted
    above every threshold (its size minus the insertion point right of the
    threshold), and only its largest values join a tail buffer that
    `np.partition` prunes back whenever it holds twice the `(1 - q) total`
    or so values the quantile reads (exact selection; Floyd & Rivest, CACM
    1975). Counts and tail are order-free, so chunks may arrive in any
    order; the results equal a count over the pooled values and
    `np.quantile` on them, bit for bit.
    """

    def __init__(self, grid, total: int, q: float | None = None):
        self.grid = np.asarray(grid, dtype=float)
        if total < 1 or self.grid.size == 0:
            raise ValueError("ccdf: values and grid must be non-empty")
        if np.any(np.diff(self.grid) < 0):
            raise ValueError("ccdf: grid must be sorted ascending")
        if q is not None and not 0.0 <= q <= 1.0:
            raise ValueError(f"ccdf: quantile {q} outside [0, 1]")
        self.total = total
        self._seen = 0
        self._above = np.zeros(self.grid.size, dtype=np.int64)
        # the Hyndman & Fan type 7 (numpy "linear") virtual index of q, as
        # numpy 2 computes it; the quantile reads order statistics from
        # floor(vidx) up
        self._vidx = None if q is None else (total - 1) * q
        self._keep = 0 if q is None else total - math.floor(self._vidx)
        self._tail: list[np.ndarray] = []
        self._tail_size = 0

    def add(self, values) -> None:
        """Count one chunk of values. NaNs sort last, so the last sorted
        value shows whether there are any."""
        values = np.sort(np.asarray(values, dtype=float).ravel())
        if values.size and np.isnan(values[-1]):
            raise ValueError("ccdf: values contain NaN")
        self._above += values.size - np.searchsorted(values, self.grid, side="right")
        self._seen += values.size
        if self._keep:
            top = values[-self._keep:].copy()
            self._tail.append(top)
            self._tail_size += top.size
            if self._tail_size > 2 * self._keep:
                self._tail = [self._largest()]
                self._tail_size = self._keep

    def _largest(self) -> np.ndarray:
        """The `_keep` largest values offered so far, in no order."""
        pool = np.concatenate(self._tail)
        pool.partition(pool.size - self._keep)
        return pool[pool.size - self._keep:].copy()

    def _check_complete(self) -> None:
        if self._seen != self.total:
            raise ValueError(f"ccdf: counted {self._seen} of {self.total} values")

    def ccdf(self) -> list[tuple[float, float]]:
        """(threshold, Pr[value > threshold]) pairs, as `ccdf` returns them."""
        self._check_complete()
        n = self.total
        return [(float(t), float(k / n))
                for t, k in zip(self.grid, self._above.tolist())]

    def quantile(self) -> float:
        """The sample quantile `q`, as `np.quantile` (method "linear") gives
        it on the pooled values, up to the sign of a zero between +-0.0s."""
        if self._vidx is None:
            raise ValueError("ccdf: counter was built without a quantile")
        self._check_complete()
        vidx = self._vidx
        tail = self._largest()
        if vidx >= self.total - 1:  # one value kept: numpy takes the largest
            top = float(tail[0])
            # of two or more values, numpy interpolates it with itself, which
            # turns -0.0 into 0.0
            return top if self.total == 1 else top + (top - top) * 0.0
        tail.partition((0, 1))
        a, b = float(tail[0]), float(tail[1])
        g = vidx - math.floor(vidx)
        d = b - a
        return b - d * (1 - g) if g >= 0.5 else a + d * g


def evm_db(estimate, reference) -> float:
    """Error vector magnitude in dB: residual power over reference power."""
    est = np.asarray(estimate, dtype=np.complex128)
    ref = np.asarray(reference, dtype=np.complex128)
    if est.shape != ref.shape:
        raise ValueError("evm_db: shape mismatch")
    return power_ratio_db(np.sum(np.abs(est - ref) ** 2), np.sum(np.abs(ref) ** 2))


def power_ratio_db(error_power, reference_power) -> float:
    """10*log10(error_power / reference_power), the one EVM-to-dB step: zero
    error gives -inf; a zero reference or a non-finite (NaN) power raises."""
    num, den = float(error_power), float(reference_power)
    if not (math.isfinite(num) and math.isfinite(den) and den > 0.0):
        raise ValueError("power_ratio_db: needs finite powers and a nonzero "
                         f"reference; got error {num}, reference {den}")
    if num == 0.0:
        return float("-inf")
    return 10.0 * math.log10(num / den)


# NumPy's SeedSequence (NEP 19; O'Neill's seed_seq hashing), reproduced so
# that a stream needs no SeedSequence of its own. All arithmetic is mod 2^32:
# on Python ints for a seed, on uint64 arrays masked to 32 bits for a block.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash constant
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's hash constant
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# Streams whose seed words are derived together. 64 divides 2^32, so the ids
# of one block all have the same number of 32-bit words.
_BLOCK = 64


def _words32(x: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first."""
    words = [x & _MASK32]
    x >>= 32
    while x:
        words.append(x & _MASK32)
        x >>= 32
    return words


def _hash_consts(start: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before and after each of `count` hash steps."""
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint64)


def _hash(value, before, after):
    """SeedSequence's hashmix (generate_state's output hash) of `value` under
    constants `before` and `after`; elementwise on arrays."""
    value = ((value ^ before) * after) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


# generate_state's constants do not depend on the pool: 8 output words
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


@shared
def _seed_prefix(seed: int) -> tuple[tuple[int, ...], int]:
    """(pool, hash constant) after mix_entropy has taken the seed's words:
    padded with zeros to 4 (a spawn key follows), one hashmix each, the 12
    cross-mixes, then each seed word past the fourth mixed into every pool
    word. The stream id's words come next."""
    words = _words32(seed)
    words += [0] * (_POOL - len(words))
    hc = _INIT_A

    def hashmix(value):
        nonlocal hc
        before, hc = hc, hc * _MULT_A & _MASK32
        return _hash(value, before, hc)

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(w))
    return tuple(pool), hc


@shared
def _seed_block(seed: int, block: int) -> np.ndarray:
    """Read-only (64, 4) uint64 PCG64 seed words of stream ids [64 block,
    64 block + 64): SeedSequence(entropy=seed, spawn_key=(id,))
    .generate_state(4, np.uint64), row id - 64 block."""
    pool, hc = _seed_prefix(seed)
    low, *high = _words32(block * _BLOCK)
    pool = np.array(pool, dtype=np.uint64)
    for word in [np.arange(low, low + _BLOCK, dtype=np.uint64)[:, None], *high]:
        # the id's words hash independently of the pool, so the four pool
        # words take their four hashmixes at once
        consts = _hash_consts(hc, _MULT_A, _POOL)
        hc = int(consts[-1])
        pool = _mix(pool, _hash(word, consts[:-1], consts[1:]))
    # generate_state cycles the pool twice: 8 words, paired little-endian
    out = _hash(np.concatenate((pool, pool), axis=1),
                _OUT_CONSTS[:-1], _OUT_CONSTS[1:])
    return out[:, 0::2] | (out[:, 1::2] << 32)


@shared
def _stream_types():
    """(Generator, PCG64, _Words). numpy.random loads here, on the first
    stream, not on `import otfdm`."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        """Hands PCG64 one precomputed row of its 4 uint64 seed words."""

        def __init__(self, row: np.ndarray):
            self._row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self._row

    return Generator, PCG64, _Words


class SeededRng:
    """Reproducible random stream keyed by (seed, stream_id).

    Two instances built from the same key emit identical draws regardless of
    process or thread schedule. Instances hold state and must not be shared
    across workers; give each worker its own stream_id.

    The stream is exactly `default_rng(SeedSequence(entropy=seed,
    spawn_key=(stream_id,)))`. Its PCG64 seed words come from two bounded
    caches, one of each seed's mixed pool and one of 64 streams' words at a
    time, so no SeedSequence is built per stream.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("SeededRng: seed and stream_id must be >= 0, got "
                             f"{self.seed} and {self.stream_id}")
        generator, pcg64, words = _stream_types()
        block = _seed_block(self.seed, self.stream_id // _BLOCK)
        self._gen = generator(pcg64(words(block[self.stream_id % _BLOCK])))
        # whether numpy holds the unread high half of a word, which its next
        # 32-bit draw returns; only `bits` draws 32 bits at a time
        self._half = False

    def bits(self, count: int) -> np.ndarray:
        """`count` fair bits as int64: exactly `Generator.integers(0, 2,
        count, dtype=np.int64)`, whose bits are the top bits of the 32-bit
        halves of PCG64 words, low half first. Whole words are read at once
        (`random_raw`); a half that numpy holds before them, or an odd one
        after them, is left to `integers`, so that numpy holds or consumes
        its half as a plain `integers` call would."""
        head = self._half and count > 0
        words, odd = divmod(count - head, 2)
        out = (self._gen.bit_generator.random_raw(words).view(np.uint32)
               >> 31).astype(np.int64)
        if not (head or odd):
            return out

        def one():
            return self._gen.integers(0, 2, size=1, dtype=np.int64)

        parts = [one()] if head else []
        parts.append(out)
        if odd:
            parts.append(one())
        self._half = bool(odd)
        return np.concatenate(parts)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def complex_normal(self, size, variance: float = 1.0, out=None) -> np.ndarray:
        """Circularly symmetric complex Gaussian samples of a finite variance
        >= 0 (else refused before any draw), into `out` if given: the real
        parts are drawn first, then the imaginary parts."""
        if not (math.isfinite(variance) and variance >= 0.0):
            raise ValueError("complex_normal: variance must be finite and "
                             f">= 0, got {variance!r}")
        scale = math.sqrt(variance / 2.0)
        re = self._gen.standard_normal(size)
        im = self._gen.standard_normal(size)
        out = np.empty(re.shape, dtype=np.complex128) if out is None else out
        np.multiply(re, scale, out=out.real)
        np.multiply(im, scale, out=out.imag)
        return out

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream_id={self.stream_id})"
