import numpy as np
import pytest

from oracles import apply_per_tap_direct, bessel_j0, hst_phase_direct, jakes_direct
from otfdm import (
    HstConfig,
    SeededRng,
    apply_channel,
    custom_realization,
    flat_realization,
    hst_realization,
    tdlc_realization,
)
from otfdm.channel import _TDLC_PROFILE, SPEED_OF_LIGHT, _rayleigh_tap_gains

_TDLC_POWERS = 10.0 ** (_TDLC_PROFILE[:, 1] / 10.0) / np.sum(
    10.0 ** (_TDLC_PROFILE[:, 1] / 10.0))


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

    @pytest.mark.parametrize("n", [2, 65, 1284, 2568])
    def test_gains_equal_complex_exponential_tables(self, n):
        # the coarse x fine tables as complex exponentials, scaled by a
        # complex division: the same values, bit for bit
        def exp_tables(rng, doppler, fs, k=32):
            draws = rng.uniform(0.0, 2.0 * np.pi, size=(24, 2, k))
            phases, angles = draws[:, 0, :], draws[:, 1, :]
            w = 2.0 * np.pi * doppler * np.cos(angles)
            block = int(np.ceil(np.sqrt(n)))
            rows = -(-n // block)
            t_coarse = block * np.arange(rows) / fs
            t_fine = np.arange(block) / fs
            coarse = np.exp(1j * (t_coarse[None, :, None] * w[:, None, :]
                                  + phases[:, None, :]))
            fine = np.exp(1j * (w[:, :, None] * t_fine[None, None, :]))
            g = np.matmul(coarse, fine).reshape(24, rows * block)[:, :n]
            return g / np.sqrt(k) * np.sqrt(_TDLC_POWERS)[:, None]

        for speed in (30.0, 500.0):
            doppler = (speed / 3.6) / SPEED_OF_LIGHT * 7.0e9
            for seed in range(8):
                fast = _rayleigh_tap_gains(_TDLC_POWERS, n, doppler, 36e6,
                                           SeededRng(seed, 4))
                ref = exp_tables(SeededRng(seed, 4), doppler, 36e6)
                assert np.array_equal(fast, ref)

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
        assert abs(cfg.doppler_hz(t_mid)) < 1e-9

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
        ch = flat_realization(noise_variance=0.37)
        y = apply_channel(x, ch, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.37, rel=0.02)

    def test_empty_signal_raises(self):
        with pytest.raises(ValueError):
            apply_channel(np.zeros(0, dtype=complex), flat_realization(),
                          SeededRng(1, 0))

    def test_time_varying_gains_applied_per_sample(self):
        cfg = HstConfig(ds_m=30000.0, dmin_m=2.0, speed_kmh=500.0, fc_ghz=7.0)
        n = 128
        fs = 1.28e6
        ch = hst_realization(cfg, 0.0, n / fs, n)
        x = np.ones(n, dtype=complex)
        y = apply_channel(x, ch, SeededRng(11, 0))
        np.testing.assert_allclose(y[:n], ch.gains[0], atol=1e-12)


def _tdlc(rng, speed_kmh, n=1284, noise_variance=0.0):
    return tdlc_realization(1000.0, speed_kmh, 7.0, 36e6, rng, num_samples=n,
                            noise_variance=noise_variance)


def _hst(n=1284, noise_variance=0.0):
    return hst_realization(HstConfig(speed_kmh=500.0, fc_ghz=7.0), 0.0,
                           n / 36e6, n, noise_variance=noise_variance)


def test_shared_realizations_are_read_only():
    # every trial of a chunk applies the one HST or flat realization
    for ch in (_hst(), flat_realization()):
        with pytest.raises(ValueError):
            ch.gains[0, 0] = 2.0


class TestTapSum:
    """The time-varying tap sum as one matrix product stays within 1e-13
    relative of one np.convolve per tap."""

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
