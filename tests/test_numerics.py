import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ccdf_scan, cyclic_fold_direct, dft_direct
from otfdm import SeededRng, ccdf, dft, evm_db
from otfdm.numerics import CcdfCounter, cyclic_fold, power_ratio_db


def test_dft_unit_impulse():
    out = dft([1, 0, 0, 0])
    np.testing.assert_allclose(out, np.ones(4), atol=1e-14)


def test_dft_dc_vector_unnormalized():
    out = dft([1, 1, 1, 1])
    np.testing.assert_allclose(out, [4, 0, 0, 0], atol=1e-13)


def test_dft_matches_direct_summation():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    np.testing.assert_allclose(dft(x), dft_direct(x), atol=1e-10)


@pytest.mark.parametrize(
    "n",
    list(range(1, 65)) + [139, 240, 999, 1024, 2048, 2400, 3120, 4093, 4096],
)
def test_roundtrip_identity(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    back = np.fft.ifft(dft(x))
    assert np.max(np.abs(back - x)) <= 1e-12 * max(np.max(np.abs(x)), 1.0)


def test_parseval():
    rng = np.random.default_rng(7)
    for n in (12, 139, 2400):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.sum(np.abs(dft(x)) ** 2)
        rhs = n * np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_dft_zero_length_raises():
    with pytest.raises(ValueError):
        dft(np.zeros(0))


def test_ccdf_examples():
    assert ccdf([1, 2, 3], [0]) == [(0.0, 1.0)]
    assert ccdf([1, 2, 3], [2.5]) == [(2.5, pytest.approx(1 / 3))]


def test_ccdf_step_function_at_constant():
    values = np.full(10_000, 4.2)
    out = ccdf(values, [4.0, 4.2, 4.4])
    assert [p for _, p in out] == [1.0, 0.0, 0.0]


def test_ccdf_monotone_non_increasing():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(500)
    probs = [p for _, p in ccdf(values, np.linspace(-3, 3, 25))]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_ccdf_errors():
    with pytest.raises(ValueError):
        ccdf([], [0.0])
    with pytest.raises(ValueError):
        ccdf([1.0], [])
    with pytest.raises(ValueError):
        ccdf([1.0], [1.0, 0.0])


def test_seeded_rng_equal_keys_equal_streams():
    a = SeededRng(123456789, 42)
    b = SeededRng(123456789, 42)
    np.testing.assert_array_equal(
        a.complex_normal(1_000_000), b.complex_normal(1_000_000)
    )


def test_seeded_rng_streams_differ():
    a = SeededRng(1, 0)
    b = SeededRng(1, 1)
    assert not np.array_equal(a.bits(64), b.bits(64))


@pytest.mark.parametrize("size, row", [(1284, None), ((3, 5), None), (7, 2)])
def test_complex_normal_into_out_equals_allocating_call(size, row):
    a, b = SeededRng(22, 7), SeededRng(22, 7)
    want = a.complex_normal(size, 0.3)
    # a whole array, or one row of a workspace
    space = np.full((4, *np.shape(want)), np.nan + 0j)
    out = space[row] if row is not None else space[0]
    got = b.complex_normal(size, 0.3, out=out)
    assert got is out
    assert out.tobytes() == want.tobytes()
    assert a._gen.bit_generator.state == b._gen.bit_generator.state
    assert a.complex_normal(9).tobytes() == b.complex_normal(9).tobytes()


@pytest.mark.parametrize("variance", [-1.0, float("nan"), float("inf")])
def test_complex_normal_refuses_bad_variance(variance):
    # refused before any draw, not NaN or inf samples or a RuntimeWarning
    rng = SeededRng(23, 0)
    state = rng._gen.bit_generator.state
    with pytest.raises(ValueError, match="variance must be finite and >= 0"):
        rng.complex_normal(4, variance)
    assert rng._gen.bit_generator.state == state


def test_seeded_rng_complex_normal_variance():
    rng = SeededRng(77, 0)
    z = rng.complex_normal(200_000, variance=0.5)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(0.5, rel=0.02)


@pytest.mark.parametrize("size, variance", [(1, 1.0), (1284, 0.37), ((3, 5), 2e-3)])
def test_complex_normal_equals_scaled_pair_of_draws(size, variance):
    got = SeededRng(21, 4).complex_normal(size, variance)
    gen = np.random.default_rng(np.random.SeedSequence(entropy=21, spawn_key=(4,)))
    a, b = gen.standard_normal(size), gen.standard_normal(size)
    want = np.sqrt(variance / 2.0) * (a + 1j * b)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


# seeds of one to five 32-bit words; ids on both sides of the 64-stream
# block edges and of the one- to two-word edge
ORACLE_SEEDS = (0, 1, 123456789, 2**32 - 1, 2**32, 2**128 + 3)
ORACLE_IDS = (0, 1, 63, 64, 65, 1000, 2**32 - 1, 2**32, 2**40 + 7)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("stream_id", ORACLE_IDS)
def test_seeded_rng_is_the_spawned_seed_sequence_stream(seed, stream_id):
    from otfdm.numerics import _BLOCK, _seed_block

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    words = _seed_block(seed, stream_id // _BLOCK)[stream_id % _BLOCK]
    assert words.dtype == np.uint64
    assert np.array_equal(words, ss.generate_state(4, np.uint64))
    rng = SeededRng(seed, stream_id)
    want = np.random.default_rng(ss)
    assert np.array_equal(rng.bits(100), want.integers(0, 2, 100, dtype=np.int64))
    assert np.array_equal(rng.uniform(size=7), want.uniform(0.0, 1.0, 7))
    assert np.array_equal(rng._gen.standard_normal(9), want.standard_normal(9))


def _live_state(gen):
    """What of a generator's state a later draw can read: the PCG64 state,
    whether numpy holds the high half of a word, and that half while it is
    held. Once the half is consumed, numpy keeps the stale word; `random_raw`
    leaves it in place where `integers` would overwrite it, and no draw
    reads it, so it is not compared."""
    state = gen.bit_generator.state
    held = state["has_uint32"]
    return state["state"], held, state["uinteger"] if held else None


_DRAWS = st.one_of(st.tuples(st.just("bits"), st.integers(0, 500)),
                   st.tuples(st.just("uniform"), st.integers(0, 5)),
                   st.tuples(st.just("complex_normal"), st.integers(0, 5)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64), stream_id=st.integers(0, 2**40),
       draws=st.lists(_DRAWS, max_size=12))
def test_bits_equal_integers_on_a_live_stream(seed, stream_id, draws):
    """`bits` reads whole PCG64 words (each bit the top bit of a 32-bit
    half, low half first) and leaves numpy's held half as `integers` would,
    so any sequence of draws, odd counts included, equals the plain
    generator's, draw for draw and state for state. If a numpy release
    changes how `integers` draws bits, this fails."""
    rng = SeededRng(seed, stream_id)
    want = np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(stream_id,)))
    for kind, n in draws:
        if kind == "bits":
            got, expected = rng.bits(n), want.integers(0, 2, n, dtype=np.int64)
            assert got.dtype == expected.dtype
        elif kind == "uniform":
            got, expected = rng.uniform(size=n), want.uniform(0.0, 1.0, n)
        else:
            got = rng.complex_normal(n)
            expected = np.sqrt(0.5) * (want.standard_normal(n)
                                       + 1j * want.standard_normal(n))
        assert np.array_equal(got, expected)
        assert _live_state(rng._gen) == _live_state(want)


def test_seed_blocks_are_read_only():
    from otfdm.numerics import _seed_block

    with pytest.raises(ValueError):
        _seed_block(5, 0)[3, 0] = 0


def test_seeded_rng_streams_built_across_threads_equal_serial_ones():
    from otfdm.numerics import _seed_block, _seed_prefix

    keys = [(seed, s) for seed in (8, 2**40) for s in range(0, 640, 3)]
    serial = {key: SeededRng(*key).bits(32) for key in keys}
    shuffled = keys[:]
    random.Random(0).shuffle(shuffled)
    # empty caches, so that the threads derive the seeds and blocks at once
    _seed_prefix.cache_clear()
    _seed_block.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as pool:
            threaded = dict(zip(shuffled, pool.map(
                lambda key: SeededRng(*key).bits(32), shuffled, timeout=60)))
    finally:
        sys.setswitchinterval(interval)
    for key in keys:
        assert np.array_equal(threaded[key], serial[key])


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -1), (-(2**70), 5)])
def test_seeded_rng_refuses_negative_keys(seed, stream_id):
    with pytest.raises(ValueError, match="must be >= 0"):
        SeededRng(seed, stream_id)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first SeededRng, which keeps it out of the
    # time to the first trial of a run that never draws
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys, otfdm, otfdm.harness; "
              "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_evm_db():
    ref = np.array([1.0 + 0j, -1.0 + 0j])
    assert evm_db(ref, ref) == float("-inf")
    est = ref + np.array([0.1, 0.0])
    assert evm_db(est, ref) == pytest.approx(10 * np.log10(0.01 / 2.0))


def test_evm_db_within_a_few_ulps_of_the_numpy_formula():
    # math.log10 and np.log10 of one ratio can differ by up to 2 ulps (near
    # ratio 1), which the factor 10 can carry into the dB value
    rng = np.random.default_rng(3)
    for _ in range(500):
        ref = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        est = ref + rng.uniform(1e-4, 1.5) * rng.standard_normal(64)
        num = np.sum(np.abs(est - ref) ** 2)
        den = np.sum(np.abs(ref) ** 2)
        direct = float(10.0 * np.log10(num / den))
        assert abs(evm_db(est, ref) - direct) <= 4 * np.spacing(abs(direct))


@pytest.mark.parametrize("err, ref", [
    (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0),
    (1.0, float("inf")), (1.0, 0.0), (0.0, 0.0),
])
def test_power_ratio_db_refuses_nonfinite_or_zero_reference(err, ref):
    with pytest.raises(ValueError, match="power_ratio_db"):
        power_ratio_db(err, ref)


def test_evm_db_policy():
    assert power_ratio_db(0.0, 2.0) == float("-inf")
    assert power_ratio_db(1.0, 10.0) == -10.0
    ref = np.array([1.0 + 0j, -1.0 + 0j])
    with pytest.raises(ValueError):
        evm_db(ref, np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        evm_db(np.array([np.nan, 1.0]), ref)


@pytest.mark.parametrize(
    "size, length, offset",
    [(18, 12, 3), (252, 240, 6), (240, 17, 0), (240, 17, 5), (5, 8, 2)],
)
def test_cyclic_fold_matches_direct_loop(size, length, offset):
    # same additions in the same order as the loop, so equal to the bit
    rng = np.random.default_rng(size + length + offset)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    for vec in (x, x.real):
        out = cyclic_fold(vec, length, offset)
        assert out.dtype == vec.dtype
        assert np.array_equal(out, cyclic_fold_direct(vec, length, offset))


@pytest.mark.parametrize("count", [1, 3, 17])
@pytest.mark.parametrize(
    "size, length, offset", [(252, 240, 6), (240, 17, 0), (240, 17, 5)],
)
def test_cyclic_fold_rows_match_direct_loop(count, size, length, offset):
    rng = np.random.default_rng(count + size + offset)
    x = rng.standard_normal((count, size)) + 1j * rng.standard_normal((count, size))
    out = cyclic_fold(x, length, offset)
    assert out.shape == (count, length)
    for t in range(count):
        assert np.array_equal(out[t], cyclic_fold(x[t], length, offset))
        assert np.array_equal(out[t], cyclic_fold_direct(x[t], length, offset))


def test_ccdf_equals_per_threshold_scan():
    rng = np.random.default_rng(4)
    values = np.round(rng.exponential(size=5000), 2)  # many ties
    grid = np.concatenate([[-1.0, 0.0], np.unique(values)[::7], [1e3]])
    assert ccdf(values, grid) == ccdf_scan(values, grid)
    assert ccdf([3.0, 3.0, 1.0, 5.0], [1.0, 3.0, 5.0]) == \
        ccdf_scan([3.0, 3.0, 1.0, 5.0], [1.0, 3.0, 5.0])


def test_ccdf_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ccdf([1.0, float("nan")], [0.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ccdf_counter_equals_pooled_scan_and_quantile(data):
    # a few repeated levels among arbitrary values, so ties are common
    values = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                  st.floats(-1e3, 1e3, allow_nan=False)),
        min_size=2, max_size=300), label="values"))
    n = values.size
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8), label="cuts"))
    chunks = np.split(values, cuts)
    order = data.draw(st.permutations(range(len(chunks))), label="order")
    q = data.draw(st.one_of(st.sampled_from([0.99, 0.0, 0.5, 1.0]),
                            st.floats(0.0, 1.0)), label="q")
    grid = sorted(data.draw(st.lists(st.one_of(st.sampled_from(values.tolist()),
                                               st.floats(-2e3, 2e3)),
                                     min_size=1, max_size=12), label="grid"))
    counter = CcdfCounter(grid, n, q)
    for i in order:
        counter.add(chunks[i])
    assert counter.ccdf() == ccdf_scan(values, grid)
    got, want = counter.quantile(), float(np.quantile(values, q))
    if _zero_sign_arbitrary(values, q):
        assert got == want == 0.0
    else:
        assert got.hex() == want.hex()


def _zero_sign_arbitrary(values, q) -> bool:
    """Whether np.quantile interpolates two zeros of a pool that holds zeros
    of both signs. Which zero its partition leaves at each place is then
    arbitrary, and so is the sign of the result."""
    pos = q * (values.size - 1)
    lo = math.floor(pos)
    ordered = np.sort(values)
    signs = np.signbit(values[values == 0])
    return (ordered[lo] == 0 and ordered[min(lo + 1, values.size - 1)] == 0
            and signs.any() and not signs.all())


@pytest.mark.parametrize("values", [(-0.0, -0.0, 0.0, -1.0),
                                    (0.0, -0.0, -0.0, -1.0)])
def test_ccdf_counter_quantile_between_zeros_of_both_signs(values):
    # numpy gives 0.0 for the first and -0.0 for the second, the counter
    # the reverse: equal values, with the sign left to numpy's partition
    values = np.array(values)
    counter = CcdfCounter([0.0], values.size, 0.5)
    counter.add(values)
    assert _zero_sign_arbitrary(values, 0.5)
    assert counter.quantile() == float(np.quantile(values, 0.5)) == 0.0


@pytest.mark.parametrize("values, q", [([-0.0, 0.0, 0.0], 1.0),
                                       ([-0.0, -0.0], 1.0), ([-0.0], 0.3),
                                       ([-0.0, 1.0], 0.0)])
def test_ccdf_counter_quantile_keeps_numpys_zero_sign(values, q):
    # numpy interpolates the largest of two or more values with itself
    counter = CcdfCounter([0.0], len(values), q)
    counter.add(values)
    assert counter.quantile().hex() == float(np.quantile(values, q)).hex()


def test_ccdf_counter_misuse_raises():
    with pytest.raises(ValueError, match="outside"):
        CcdfCounter([0.0], 4, 1.5)
    counter = CcdfCounter([0.0], 4, 0.5)
    counter.add([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="counted 3 of 4"):
        counter.ccdf()
    with pytest.raises(ValueError, match="counted 3 of 4"):
        counter.quantile()
    no_quantile = CcdfCounter([0.0], 1)
    no_quantile.add([1.0])
    with pytest.raises(ValueError, match="without a quantile"):
        no_quantile.quantile()


def _shared_builders():
    """(id, builder, args) of every `numerics.shared` builder."""
    from otfdm import channel, numerics, receiver, sequences, transmitter
    from otfdm.harness import filter_for, grid_for, layout_for

    qam16 = sequences.MOD_SCHEMES["QAM16"]
    filt = filter_for("SQRC", 96, 10.0)
    return [
        ("numerics._seed_prefix", numerics._seed_prefix, (5,)),
        ("numerics._seed_block", numerics._seed_block, (5, 1)),
        ("numerics._stream_types", numerics._stream_types, ()),
        ("sequences._constellation", sequences._constellation, (qam16,)),
        ("transmitter._slice_runs", transmitter._slice_runs, (16, 2, 64, -10)),
        ("transmitter._fixed_references", transmitter._fixed_references,
         (layout_for("QAM16", 120, 4), qam16)),
        ("transmitter.WaveformGrid.mapped_bins",
         transmitter.WaveformGrid.mapped_bins, (grid_for(120, 3),)),
        ("receiver._reference_gain", receiver._reference_gain,
         (filt.excess, filt.weights.tobytes(), 12)),
        ("receiver._qam_axes", receiver._qam_axes,
         (sequences.MOD_SCHEMES["QAM64"],)),
        ("channel._tdlc_kernels", channel._tdlc_kernels, (1000.0, 36e6)),
        ("channel._offset_powers", channel._offset_powers, (6, 40)),
        ("channel.flat_realization", channel.flat_realization, ()),
        ("channel.hst_realization", channel.hst_realization,
         (channel.HstConfig(speed_kmh=500.0), 0.0, 1e-4, 64)),
    ]


def _arrays(value):
    """Every ndarray in value: itself, inside (nested) tuples, or a
    dataclass's fields."""
    import dataclasses

    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [a for f in dataclasses.fields(value)
                for a in _arrays(getattr(value, f.name))]
    return []


def test_every_shared_builder_is_listed():
    from otfdm import channel, numerics, receiver, sequences, transmitter

    found = {f"{module.__name__.split('.')[-1]}.{name}"
             for module in (channel, numerics, receiver, sequences, transmitter)
             for name, obj in vars(module).items() if hasattr(obj, "cache_info")}
    found |= {f"transmitter.WaveformGrid.{name}"
              for name, obj in vars(transmitter.WaveformGrid).items()
              if hasattr(obj, "cache_info")}
    assert found == {name for name, _, _ in _shared_builders()}


@pytest.mark.parametrize("name, builder, args", _shared_builders(),
                         ids=[name for name, _, _ in _shared_builders()])
def test_shared_builder_is_one_bounded_read_only_constant(name, builder, args):
    from otfdm.numerics import CACHE_SIZE

    value = builder(*args)
    assert builder(*args) is value
    assert all(not a.flags.writeable for a in _arrays(value))
    assert builder.cache_info().maxsize == CACHE_SIZE


def test_equal_hst_arguments_give_one_realization():
    from otfdm import HstConfig, hst_realization

    def realize():
        return hst_realization(HstConfig(speed_kmh=500.0, fc_ghz=7.0), 0.0,
                               1284 / 36e6, 1284)

    assert realize() is realize()
    assert realize() is not hst_realization(HstConfig(speed_kmh=300.0), 0.0,
                                            1284 / 36e6, 1284)
