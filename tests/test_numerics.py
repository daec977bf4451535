import numpy as np
import pytest

from oracles import ccdf_scan, cyclic_fold_direct, dft_direct
from otfdm import SeededRng, ccdf, dft, evm_db, papr_db
from otfdm.harness import ExperimentConfig
from otfdm.numerics import cyclic_fold, power_ratio_db
from otfdm.transmitter import generate_otfdm


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


def test_papr_constant_envelope_is_zero_db():
    x = np.exp(1j * np.linspace(0, 5, 64))
    assert abs(papr_db(x)) < 1e-12


def test_papr_single_spike():
    x = np.zeros(100, dtype=complex)
    x[3] = 1.0
    assert abs(papr_db(x) - 20.0) < 1e-12


def test_papr_matches_direct_recomputation():
    cfg = ExperimentConfig(scheme="QPSK", alloc_size=120, extension_pct=0.0,
                           rs_overhead_pct=0.0, seed=9)
    scheme, layout, filt, grid = cfg.resolve()
    rng = SeededRng(9, 0)
    sym = generate_otfdm(rng.bits(layout.data_len * 2), scheme, layout, filt,
                         grid, rng)
    x = sym.body
    expected = 10.0 * np.log10(
        np.max(np.abs(x) ** 2) / np.mean(np.abs(x) ** 2)
    )
    assert papr_db(x) == pytest.approx(expected, abs=1e-12)


def test_papr_all_zero_raises():
    with pytest.raises(ValueError):
        papr_db(np.zeros(8, dtype=complex))


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
        a.standard_normal(1_000_000), b.standard_normal(1_000_000)
    )


def test_seeded_rng_streams_differ():
    a = SeededRng(1, 0)
    b = SeededRng(1, 1)
    assert not np.array_equal(a.bits(64), b.bits(64))


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
