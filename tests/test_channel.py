import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    apply_per_tap_direct,
    bessel_j0,
    hst_phase_direct,
    jakes_direct,
    tap_sum_one_product,
)
from otfdm import (
    HstConfig,
    SeededRng,
    apply_channel,
    custom_realization,
    flat_realization,
    hst_realization,
    tdlc_realization,
)
from otfdm.channel import (
    _TDLC_POWERS,
    _TILE,
    SPEED_OF_LIGHT,
    _rayleigh_tap_gains,
    _series_order,
    _tap_sum,
    _tdlc_kernels,
)


class TestTdlc:
    def test_zero_speed_gains_constant(self):
        ch = tdlc_realization(1000.0, 0.0, 7.0, 122.88e6, SeededRng(1, 0),
                              num_samples=512)
        assert ch.gains.shape[1] == 1

    def test_support_matches_delay_spread(self):
        # 1 us at a 122.88 Ms/s grid puts the last tap near sample 123
        ch = tdlc_realization(1000.0, 0.0, 7.0, 122.88e6, SeededRng(1, 0))
        last_peak = int(np.argmax(np.abs(ch.kernels[-1])))
        assert last_peak in (122, 123)

    def test_mean_total_power_is_unity(self):
        total = 0.0
        n = 10_000
        for t in range(n):
            ch = tdlc_realization(300.0, 30.0, 7.0, 30.72e6, SeededRng(2, t),
                                  num_samples=8)
            total += np.mean(np.sum(np.abs(ch.gains) ** 2, axis=0))
        assert total / n == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("n", [1, 2, 8, 63, 64, 65, 1284])
    def test_gains_match_direct_sum_of_sinusoids(self, n):
        # 500 km/h at 7 GHz on the 28.8 Ms/s grid of a 240-subcarrier symbol
        doppler = (500.0 / 3.6) / SPEED_OF_LIGHT * 7.0e9
        for stream in range(3):
            fast = _rayleigh_tap_gains(_TDLC_POWERS, n, doppler, 28.8e6,
                                       SeededRng(12, stream))
            ref = jakes_direct(_TDLC_POWERS, n, doppler, 28.8e6,
                               SeededRng(12, stream))
            assert fast.shape == ref.shape == (24, n)
            np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 65, 1284, 2568])
    def test_gains_match_direct_sum_in_one_and_many_blocks(self, n):
        # slow terminals and low carriers run the whole trajectory as one
        # series block; 900 km/h at 100 GHz cuts it into 54-sample blocks at
        # 28.8 Ms/s
        for speed in (30.0, 120.0, 500.0, 900.0):
            for fc_ghz in (7.0, 100.0):
                doppler = (speed / 3.6) / SPEED_OF_LIGHT * fc_ghz * 1e9
                for fs in (28.8e6, 36e6, 72e6):
                    fast = _rayleigh_tap_gains(_TDLC_POWERS, n, doppler, fs,
                                               SeededRng(15, n))
                    ref = jakes_direct(_TDLC_POWERS, n, doppler, fs,
                                       SeededRng(15, n))
                    assert fast.shape == ref.shape == (24, n)
                    np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("x, order", [(0.0, 0), (0.109, 10), (0.5, 15)])
    def test_series_order_is_lowest_with_remainder_below_2_pow_minus_60(
            self, x, order):
        # the accuracy test cannot see one order less: its remainder is still
        # far below 1e-14, so the rule is pinned here
        def remainder(m):
            return x ** (m + 1) / math.factorial(m + 1)

        assert _series_order(x) == order
        assert remainder(order) < 2.0**-60
        assert order == 0 or remainder(order - 1) >= 2.0**-60

    @pytest.mark.parametrize("n", [1, 64])
    def test_zero_doppler_gains_equal_direct(self, n):
        fast = _rayleigh_tap_gains(_TDLC_POWERS, n, 0.0, 28.8e6, SeededRng(13, 0))
        ref = jakes_direct(_TDLC_POWERS, n, 0.0, 28.8e6, SeededRng(13, 0))
        assert np.array_equal(fast, ref)

    def test_cached_kernels_are_read_only(self):
        a = tdlc_realization(700.0, 0.0, 7.0, 30.72e6, SeededRng(1, 0))
        b = tdlc_realization(700.0, 60.0, 7.0, 30.72e6, SeededRng(1, 1),
                             num_samples=16)
        assert a.kernels is b.kernels
        with pytest.raises(ValueError):
            a.kernels[0, 0] = 2.0

    def test_invalid_delay_spread_raises(self):
        with pytest.raises(ValueError):
            tdlc_realization(0.0, 0.0, 7.0, 1e6, SeededRng(1, 0))

    @pytest.mark.slow
    def test_doppler_autocorrelation_matches_bessel(self):
        # classical spectrum: ensemble autocorrelation ~ J0(2 pi fd tau)
        fd = 1000.0
        fs = 64_000.0
        speed_kmh = fd * SPEED_OF_LIGHT / (7.0e9) * 3.6
        num = 64
        reals = 10_000
        acc = np.zeros(num, dtype=complex)
        norm = 0.0
        for t in range(reals):
            ch = tdlc_realization(300.0, speed_kmh, 7.0, fs, SeededRng(3, t),
                                  num_samples=num)
            g = ch.gains
            acc += np.sum(g * np.conj(g[:, :1]), axis=0)
            norm += np.sum(np.abs(g[:, 0]) ** 2)
        measured = (acc / norm).real
        lags = np.arange(num) / fs
        keep = fd * lags <= 1.0
        target = np.array([bessel_j0(2 * np.pi * fd * tau) for tau in lags[keep]])
        rms = np.sqrt(np.mean((measured[keep] - target) ** 2))
        assert rms <= 0.05


class TestHst:
    def test_closest_approach_zero_doppler(self):
        cfg = HstConfig(ds_m=300.0, dmin_m=2.0, speed_kmh=360.0, fc_ghz=7.0)
        t_mid = (cfg.ds_m / 2.0) / cfg.speed_ms
        # the Doppler shift is the phase's slope: zero where the phase is
        # symmetric about the closest approach
        d = np.array([1e-6, 1e-4, 1e-3, 0.0123, 0.1, 1.0])
        assert np.array_equal(cfg.phase_rad(t_mid + d), cfg.phase_rad(t_mid - d))

    def test_max_doppler_arithmetic(self):
        cfg = HstConfig(speed_kmh=500.0, fc_ghz=7.0)
        expected = (500.0 / 3.6) / SPEED_OF_LIGHT * 7.0e9
        assert cfg.max_doppler_hz == pytest.approx(expected)
        assert cfg.max_doppler_hz == pytest.approx(3242.6, abs=0.5)

    def test_far_approach_phase_ramp_is_linear(self):
        cfg = HstConfig(ds_m=30000.0, dmin_m=2.0, speed_kmh=500.0, fc_ghz=7.0)
        ch = hst_realization(cfg, t0=0.0, duration=1e-4, num_samples=256)
        phases = np.unwrap(np.angle(ch.gains[0]))
        steps = np.diff(phases)
        assert np.max(np.abs(steps - steps[0])) <= 1e-6 * abs(steps[0]) + 1e-9
        expected_step = 2 * np.pi * cfg.max_doppler_hz / 2.56e6
        assert steps[0] == pytest.approx(expected_step, rel=1e-4)

    def test_unit_gain_path(self):
        cfg = HstConfig()
        ch = hst_realization(cfg, 0.0, 1e-4, 64)
        np.testing.assert_allclose(np.abs(ch.gains), 1.0, atol=1e-12)

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            HstConfig(ds_m=-1.0)

    @pytest.mark.parametrize("t0", [0.0, 1e-3, 1.08, 2.16])
    def test_gains_equal_scalar_phase_loop(self, t0):
        # t0 = 2.16 s is past closest approach (ds/2 / v = 1.08 s)
        cfg = HstConfig()
        n, fs = 1284, 28.8e6
        ch = hst_realization(cfg, t0, n / fs, n)
        t = t0 + np.arange(n) * (n / fs / n)
        loop = np.array([cfg.phase_rad(u) for u in t]) - cfg.phase_rad(t0)
        direct = (np.array([hst_phase_direct(cfg, u) for u in t])
                  - hst_phase_direct(cfg, t0))
        assert np.array_equal(loop, direct)
        assert np.array_equal(ch.gains[0], np.exp(1j * loop))


class TestApplyChannel:
    def test_identity_channel(self):
        rng = SeededRng(4, 0)
        x = rng.complex_normal(64)
        y = apply_channel(x, flat_realization(), rng)
        np.testing.assert_allclose(y, x, atol=1e-14)

    def test_impulse_returns_tap_sequence(self):
        ch = custom_realization([(0.0, 0.8), (5.0, 0.6)])
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        y = apply_channel(x, ch, SeededRng(5, 0))
        assert y.size == 8 + 5
        expected = np.zeros(13, dtype=complex)
        expected[0] = 0.8
        expected[5] = 0.6
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_matches_brute_force_convolution(self):
        rng = SeededRng(6, 0)
        x = rng.complex_normal(50)
        taps = [(0.0, 0.3 - 0.1j), (2.0, -0.5j), (7.0, 0.2 + 0.2j)]
        ch = custom_realization(taps)
        y = apply_channel(x, ch, rng)
        expected = np.zeros(57, dtype=complex)
        for delay, gain in taps:
            for n, v in enumerate(x):
                expected[n + int(delay)] += gain * v
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_static_tdlc_matches_per_tap_sum(self):
        rng = SeededRng(14, 0)
        x = rng.complex_normal(300)
        ch = tdlc_realization(1000.0, 0.0, 7.0, 28.8e6, SeededRng(14, 1))
        y = apply_channel(x, ch, rng)
        expected = sum(ch.gains[t, 0] * np.convolve(x, ch.kernels[t])
                       for t in range(ch.kernels.shape[0]))
        assert y.shape == expected.shape
        np.testing.assert_allclose(y, expected, rtol=0.0, atol=1e-13)

    def test_energy_preserved_by_unit_power_channels(self):
        rng = SeededRng(7, 0)
        x = rng.complex_normal(256)
        in_power = np.sum(np.abs(x) ** 2)
        ratios = []
        for t in range(1000):
            ch = tdlc_realization(300.0, 0.0, 7.0, 30.72e6, SeededRng(8, t))
            y = apply_channel(x, ch, SeededRng(9, t))
            ratios.append(np.sum(np.abs(y) ** 2) / in_power)
        assert np.mean(ratios) == pytest.approx(1.0, rel=0.02)

    def test_noise_variance_calibration(self):
        rng = SeededRng(10, 0)
        x = np.zeros(200_000, dtype=complex)
        y = apply_channel(x, flat_realization(), rng, 0.37)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.37, rel=0.02)

    def test_empty_signal_raises(self):
        with pytest.raises(ValueError):
            apply_channel(np.zeros(0, dtype=complex), flat_realization(),
                          SeededRng(1, 0))

    @pytest.mark.parametrize("variance", [-1.0, float("nan"), float("inf")])
    def test_bad_noise_variance_raises(self, variance):
        # a negative or NaN variance must not quietly add no noise
        with pytest.raises(ValueError, match="variance must be finite"):
            apply_channel(np.ones(8, dtype=complex), flat_realization(),
                          SeededRng(1, 0), variance)

    @pytest.mark.parametrize("kind", ["flat", "hst"])
    def test_one_sample_channel_stack_equals_rows(self, kind):
        # a chunk's rows propagated in one call, each byte for byte the 1-D
        # call on that row
        ch = flat_realization() if kind == "flat" else _hst()
        x = SeededRng(15, 0).complex_normal((5, 1284))
        y = apply_channel(x, ch)
        assert y.shape == x.shape
        for row, got in zip(x, y):
            assert got.tobytes() == apply_channel(row, ch).tobytes()
        # in place, as the harness propagates its workspace rows
        apply_channel(x, ch, out=x)
        assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("kind", ["flat", "hst"])
    def test_one_sample_channel_scales_a_stack_without_buffers(self, kind):
        # numpy would give a cast or row-broadcast operand a ~128 KiB
        # buffer; a chunk's rows are scaled in place with none
        ch = flat_realization() if kind == "flat" else _hst()
        x = SeededRng(17, 0).complex_normal((16, 1284))
        tracemalloc.start()
        apply_channel(x, ch, out=x)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 1024

    @pytest.mark.parametrize("kind", ["static", "mobile"])
    def test_multi_tap_channel_refuses_a_stack(self, kind):
        speed = 0.0 if kind == "static" else 120.0
        ch = _tdlc(SeededRng(16, 1), speed)
        with pytest.raises(ValueError, match="stacked signal"):
            apply_channel(np.ones((2, 1284), dtype=complex), ch)
        with pytest.raises(ValueError, match="out="):
            apply_channel(np.ones(1284, dtype=complex), ch,
                          out=np.empty(1284 + ch.ir_len - 1, dtype=complex))

    def test_time_varying_gains_applied_per_sample(self):
        cfg = HstConfig(ds_m=30000.0, dmin_m=2.0, speed_kmh=500.0, fc_ghz=7.0)
        n = 128
        fs = 1.28e6
        ch = hst_realization(cfg, 0.0, n / fs, n)
        x = np.ones(n, dtype=complex)
        y = apply_channel(x, ch, SeededRng(11, 0))
        np.testing.assert_allclose(y[:n], ch.gains[0], atol=1e-12)


def _tdlc(rng, speed_kmh, n=1284):
    return tdlc_realization(1000.0, speed_kmh, 7.0, 36e6, rng, num_samples=n)


def _hst(n=1284):
    return hst_realization(HstConfig(speed_kmh=500.0, fc_ghz=7.0), 0.0,
                           n / 36e6, n)


def test_shared_realizations_are_read_only():
    # every trial of a chunk applies the one HST or flat realization
    for ch in (_hst(), flat_realization()):
        with pytest.raises(ValueError):
            ch.gains[0, 0] = 2.0


def test_realizations_compare_by_identity():
    rng = SeededRng(12, 0)
    first, second = _tdlc(rng, 120.0), _tdlc(rng, 120.0)
    assert first == first and first != second
    assert len({first, second, first, _hst(), _hst()}) == 3


class TestTapSum:
    """The time-varying tap sum, a real matrix product taken tile by tile,
    equals the product over the whole window byte for byte and stays within
    1e-13 relative of one np.convolve per tap."""

    # 500 and 1000 ns give 36- and 54-sample kernels at 36 Ms/s. Kernels of
    # up to 28 samples are left out: there the whole-window product itself
    # changes in the last bit of rare samples between one and two OpenBLAS
    # threads on AVX-512 kernels, while the tiles do not.
    @pytest.mark.parametrize("delay_spread_ns", [500.0, 1000.0])
    @pytest.mark.parametrize("speed_kmh", [30.0, 120.0])
    @pytest.mark.parametrize("out_len, gains_len", [
        (_TILE - 1, None),  # shorter than one tile
        (4 * _TILE, None),  # an exact multiple of the tile
        (10 * _TILE + 57, None),  # a remainder
        (10 * _TILE + 57, 700),  # gains shorter than the signal
        (10 * _TILE + 57, 100),  # gains shorter than one tile
    ])
    def test_tiles_equal_one_product(self, delay_spread_ns, speed_kmh,
                                     out_len, gains_len):
        x_len = out_len - _tdlc_kernels(delay_spread_ns, 36e6).shape[1] + 1
        for seed in range(3):
            x = SeededRng(seed, 0).complex_normal(x_len)
            ch = tdlc_realization(delay_spread_ns, speed_kmh, 7.0, 36e6,
                                  SeededRng(seed, 1),
                                  num_samples=gains_len or x_len)
            y = apply_channel(x, ch, SeededRng(seed, 2))
            ref = tap_sum_one_product(x, ch.kernels, ch.gains)
            assert y.size == out_len
            assert y.tobytes() == ref.tobytes()

    def test_one_sample_tile_sums_taps_in_order(self):
        # a last tile of one sample: its taps still sum in order, as in the
        # whole product. Dense random kernels, since a TDL-C kernel is zero
        # at the last sample of nearly every tap
        rng = np.random.default_rng(5)
        kernels = rng.standard_normal((24, 54))
        x = SeededRng(5, 0).complex_normal(3 * _TILE + 1 - 53)
        gains = SeededRng(5, 1).complex_normal(24 * 300).reshape(24, 300)
        y = _tap_sum(x, kernels, gains)
        assert y.size % _TILE == 1
        assert y.tobytes() == tap_sum_one_product(x, kernels, gains).tobytes()

    def test_peak_memory_below_one_taps_by_samples_array(self):
        # tiles are weighted and summed in one reused buffer: no (taps,
        # out_len) complex array, 501 KiB here, is built
        ch = _tdlc(SeededRng(0, 1), 120.0)
        x = SeededRng(0, 0).complex_normal(1284)
        taps_by_samples = ch.kernels.shape[0] * (x.size + ch.ir_len - 1) * 16
        _tap_sum(x, ch.kernels, ch.gains)
        tracemalloc.start()
        try:
            _tap_sum(x, ch.kernels, ch.gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ch.kernels.shape[0] == 24
        assert peak < taps_by_samples

    @pytest.mark.parametrize("make", [
        lambda rng: _tdlc(rng, 30.0),
        lambda rng: _tdlc(rng, 120.0),
        lambda rng: _tdlc(rng, 120.0, n=700),  # gains shorter than the signal
        lambda rng: _hst(),
    ])
    def test_matches_per_tap_convolutions(self, make):
        for seed in range(4):
            x = SeededRng(seed, 0).complex_normal(1284)
            ch = make(SeededRng(seed, 1))
            y = apply_channel(x, ch, SeededRng(seed, 2))
            ref = apply_per_tap_direct(x, ch.kernels, ch.gains)
            assert y.shape == ref.shape
            assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_one_sample_kernel_scales_the_signal(self):
        # HST's unit kernel builds no window: each sample times its gain
        x = SeededRng(3, 0).complex_normal(1284)
        ch = _hst()
        assert ch.ir_len == 1
        assert np.array_equal(apply_channel(x, ch, SeededRng(3, 1)),
                              ch.gains[0] * x)
