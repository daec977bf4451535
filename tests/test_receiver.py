import numpy as np
import pytest

from oracles import (
    fold_composite_direct,
    fold_direct,
    maxlog_demap_direct,
    qam_ber_exact,
)
from otfdm import (
    MOD_SCHEMES,
    ONE_SIDED_CP,
    DegenerateEqualizer,
    EqualizedSymbol,
    EstimatorConfig,
    FrameLayout,
    SeededRng,
    SingularReference,
    WaveformGrid,
    apply_channel,
    ars_phase_correct,
    custom_realization,
    demodulate,
    estimate_channel,
    fold_spectrum,
    front_end,
    generate_otfdm,
    genie_estimate,
    hard_bits,
    make_sqrc_filter,
    mmse_equalize,
    modulate,
)
from otfdm.harness import filter_for, grid_for, layout_for, window_for


def _qpsk_symbol(alloc=48, excess=6, seed=20, ars_len=0, variant="TWO_SIDED"):
    scheme = MOD_SCHEMES["QPSK"]
    if variant == ONE_SIDED_CP:
        layout = FrameLayout(rs_len=12, rs_cp=12, rs_cs=0,
                             data_len=alloc - 24 - ars_len, ars_len=ars_len,
                             variant=variant)
    else:
        layout = FrameLayout(rs_len=12, rs_cp=8, rs_cs=4,
                             data_len=alloc - 24 - ars_len, ars_len=ars_len)
    filt = make_sqrc_filter(alloc, excess)
    grid = WaveformGrid(alloc, excess, 4 * alloc, cp_len=20)
    rng = SeededRng(seed, 0)
    bits = rng.bits(layout.data_len * 2)
    sym = generate_otfdm(bits, scheme, layout, filt, grid, rng)
    return scheme, layout, filt, grid, bits, sym


class TestFrontEnd:
    def test_loopback_recovers_shaped_block(self):
        _, _, filt, grid, _, sym = _qpsk_symbol()
        out = front_end(sym.time_samples, grid)
        np.testing.assert_allclose(out, sym.shaped, atol=1e-10)

    def test_delay_within_cp_gives_linear_phase(self):
        _, _, filt, grid, _, sym = _qpsk_symbol()
        d = 7
        delayed = np.concatenate(
            [np.zeros(d, dtype=complex), sym.time_samples]
        )[: grid.cp_len + grid.fft_size]
        out = front_end(delayed, grid)
        bins = grid.first_subcarrier + np.arange(grid.extended_size)
        expected = sym.shaped * np.exp(-2j * np.pi * bins * d / grid.fft_size)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_flat_gain_scales_output(self):
        _, _, filt, grid, _, sym = _qpsk_symbol()
        g = 0.3 - 1.2j
        out = front_end(g * sym.time_samples, grid)
        np.testing.assert_allclose(out, g * sym.shaped, atol=1e-10)

    def test_short_input_raises(self):
        _, _, _, grid, _, sym = _qpsk_symbol()
        with pytest.raises(ValueError):
            front_end(sym.time_samples[:-1], grid)


class TestFoldSpectrum:
    def test_zero_excess_unity_filter_identity(self):
        filt = make_sqrc_filter(16, 0)
        rng = SeededRng(21, 0)
        y = rng.complex_normal(16)
        out = fold_spectrum(y, filt)
        np.testing.assert_allclose(out.folded, y, atol=1e-14)

    def test_weights_fold_to_ones(self):
        filt = make_sqrc_filter(24, 6)
        out = fold_spectrum(filt.weights.astype(complex), filt)
        np.testing.assert_allclose(out.folded, np.ones(24), atol=1e-12)

    def test_matches_direct_triple_sum(self):
        filt = make_sqrc_filter(12, 3)
        rng = SeededRng(22, 0)
        y = rng.complex_normal(18)
        out = fold_spectrum(y, filt)
        expected = fold_direct(y, filt.weights, 12, 3)
        np.testing.assert_allclose(out.folded, expected, atol=1e-12)

    def test_noise_variance_preserved(self):
        # white per-subcarrier noise keeps its variance through the fold
        filt = make_sqrc_filter(48, 12)
        rng = SeededRng(23, 0)
        var = 0.25
        samples = []
        for _ in range(400):
            noise = rng.complex_normal(48 + 24, var)
            samples.append(fold_spectrum(noise, filt).folded)
        measured = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert measured == pytest.approx(var, rel=0.02)

    def test_dimension_mismatch_raises(self):
        filt = make_sqrc_filter(12, 3)
        with pytest.raises(ValueError):
            fold_spectrum(np.ones(12, dtype=complex), filt)


def _static_channel_case(layout, filt, grid, scheme, taps_m, seed):
    """Transmit one symbol through integer symbol-rate delay taps and return
    (symbol, folded, oracle composite)."""
    rng = SeededRng(seed, 0)
    bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
    sym = generate_otfdm(bits, scheme, layout, filt, grid, rng)
    step = grid.fft_size // grid.alloc_size
    ch = custom_realization([(d * step, g) for d, g in taps_m])
    rx = apply_channel(sym.time_samples, ch, rng)
    folded = fold_spectrum(front_end(rx, grid), filt)
    bins = grid.first_subcarrier + np.arange(grid.extended_size)
    h_bins = np.zeros(grid.extended_size, dtype=complex)
    for d, g in taps_m:
        h_bins += g * np.exp(-2j * np.pi * bins * d * step / grid.fft_size)
    truth = fold_composite_direct(filt.weights, grid.alloc_size, grid.excess,
                                  h_bins)
    return sym, folded, truth


class TestEstimateChannel:
    def test_flat_channel_recovers_gain(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        g = 1.7 - 0.4j
        folded = fold_spectrum(front_end(g * sym.time_samples, grid), filt)
        est = estimate_channel(folded, layout, sym.rs_core,
                               EstimatorConfig(window_len=6))
        np.testing.assert_allclose(est.response, np.full(48, g), atol=1e-9)

    def test_static_three_tap_matches_composite_oracle(self):
        scheme = MOD_SCHEMES["QPSK"]
        layout = FrameLayout(rs_len=12, rs_cp=8, rs_cs=4, data_len=24)
        filt = make_sqrc_filter(48, 5)
        grid = WaveformGrid(48, 5, 192, cp_len=40)
        taps = [(0, 0.8), (2, 0.4 - 0.3j), (6, 0.3j)]
        sym, folded, truth = _static_channel_case(layout, filt, grid, scheme,
                                                  taps, seed=30)
        est = estimate_channel(folded, layout, sym.rs_core,
                               EstimatorConfig(window_len=8))
        assert np.max(np.abs(est.response - truth)) <= 1e-8

    def test_one_sided_layout_extraction_inside_prefix(self):
        scheme = MOD_SCHEMES["QPSK"]
        layout = FrameLayout(rs_len=12, rs_cp=12, rs_cs=0, data_len=24,
                             variant=ONE_SIDED_CP)
        filt = make_sqrc_filter(48, 5)
        grid = WaveformGrid(48, 5, 192, cp_len=40)
        taps = [(0, 1.0), (3, 0.5j)]
        sym, folded, truth = _static_channel_case(layout, filt, grid, scheme,
                                                  taps, seed=31)
        est = estimate_channel(folded, layout, sym.rs_core,
                               EstimatorConfig(window_len=6, rs_offset=5))
        assert np.max(np.abs(est.response - truth)) <= 1e-8
        # default offset (mid-prefix) also works for in-range support
        est2 = estimate_channel(folded, layout, sym.rs_core,
                                EstimatorConfig(window_len=6))
        assert np.max(np.abs(est2.response - truth)) <= 1e-8

    def test_pi2_two_tap_requires_regularization(self):
        name = "PI2_BPSK"
        scheme = MOD_SCHEMES[name]
        layout = layout_for(name, 240)
        filt = filter_for("TAPS2", 240, 0.0)
        grid = grid_for(240, 0)
        rng = SeededRng(32, 0)
        sym = generate_otfdm(rng.bits(layout.data_len), scheme, layout, filt,
                             grid, rng)
        folded = fold_spectrum(front_end(sym.time_samples, grid), filt)
        wl = window_for(name, layout)
        with pytest.raises(SingularReference):
            estimate_channel(folded, layout, sym.rs_core,
                             EstimatorConfig(window_len=wl, ridge=0.0))
        truth = filt.folded_square().astype(complex)
        for ridge in (0.3162, 1.0, 3.162):
            est = estimate_channel(folded, layout, sym.rs_core,
                                   EstimatorConfig(window_len=wl, ridge=ridge))
            assert np.all(np.isfinite(est.response))
            assert np.isfinite(np.mean(np.abs(est.response - truth) ** 2))

    def test_ridge_converges_to_plain_ls(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol(seed=33)
        g = 0.9 + 0.2j
        folded = fold_spectrum(front_end(g * sym.time_samples, grid), filt)
        base = estimate_channel(folded, layout, sym.rs_core,
                                EstimatorConfig(window_len=6, ridge=0.0))
        errs = []
        for ridge in (1e-2, 1e-4, 1e-6):
            est = estimate_channel(folded, layout, sym.rs_core,
                                   EstimatorConfig(window_len=6, ridge=ridge))
            errs.append(np.max(np.abs(est.rs_ls - base.rs_ls)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-6

    def test_bad_window_raises(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        folded = fold_spectrum(front_end(sym.time_samples, grid), filt)
        with pytest.raises(ValueError):
            estimate_channel(folded, layout, sym.rs_core,
                             EstimatorConfig(window_len=layout.rs_len + 1))


class TestMmseEqualize:
    def test_unity_estimate_zero_noise_passthrough(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        folded = fold_spectrum(front_end(sym.time_samples, grid), filt)
        est = genie_estimate(np.ones(48, dtype=complex), layout)
        eq = mmse_equalize(folded, est, 0.0)
        np.testing.assert_allclose(eq.spectrum, folded.folded, atol=1e-12)

    def test_zero_db_bias(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        folded = fold_spectrum(front_end(sym.time_samples, grid), filt)
        est = genie_estimate(np.ones(48, dtype=complex), layout)
        eq = mmse_equalize(folded, est, 1.0)
        np.testing.assert_allclose(eq.spectrum, folded.folded / 2.0, atol=1e-12)

    def test_zero_noise_with_null_estimate_raises(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        folded = fold_spectrum(front_end(sym.time_samples, grid), filt)
        h = np.ones(48, dtype=complex)
        h[5] = 0.0
        with pytest.raises(DegenerateEqualizer):
            mmse_equalize(folded, genie_estimate(h, layout), 0.0)

    def test_negative_noise_raises(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        folded = fold_spectrum(front_end(sym.time_samples, grid), filt)
        with pytest.raises(ValueError):
            mmse_equalize(folded, genie_estimate(np.ones(48, complex), layout),
                          -0.1)

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    @pytest.mark.parametrize("variant", ["TWO_SIDED", ONE_SIDED_CP])
    def test_end_to_end_identity(self, name, variant):
        # any scheme, fold-flat filter, flat unit channel, no noise: the
        # recovered data equals the transmitted data to within 1e-8
        scheme = MOD_SCHEMES[name]
        alloc = 96
        if variant == ONE_SIDED_CP:
            layout = FrameLayout(rs_len=12, rs_cp=12, rs_cs=0, data_len=68,
                                 ars_len=4, variant=variant)
        else:
            layout = FrameLayout(rs_len=12, rs_cp=8, rs_cs=4, data_len=68,
                                 ars_len=4)
        filt = make_sqrc_filter(alloc, 8)
        grid = WaveformGrid(alloc, 8, 4 * alloc, cp_len=16)
        rng = SeededRng(40, 0)
        bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
        sym = generate_otfdm(bits, scheme, layout, filt, grid, rng)
        folded = fold_spectrum(front_end(sym.time_samples, grid), filt)
        est = estimate_channel(folded, layout, sym.rs_core,
                               EstimatorConfig(window_len=8))
        eq = mmse_equalize(folded, est, 0.0)
        assert np.max(np.abs(eq.data - sym.data_symbols)) <= 1e-8
        hard, _ = demodulate(eq.data, scheme, 1e-6)
        assert np.array_equal(hard, bits)


class TestArsPhaseCorrect:
    def _equalized_with_ramp(self, step):
        scheme, layout, filt, grid, bits, sym = _qpsk_symbol(
            alloc=96, excess=8, seed=41, ars_len=4
        )
        n = np.arange(layout.total_len)
        ramp = np.exp(1j * step * (n - (layout.rs_cp + layout.rs_len)))
        time = sym.multiplexed * ramp
        eq = EqualizedSymbol(spectrum=np.fft.fft(time), time=time, layout=layout)
        return layout, sym, eq

    def test_zero_ramp_is_exact_noop(self):
        layout, sym, eq = self._equalized_with_ramp(0.0)
        out = ars_phase_correct(eq, sym.ars_symbols, layout)
        assert abs(out.phase_step) <= 1e-12
        np.testing.assert_array_equal(out.data, eq.data)

    @pytest.mark.parametrize("step", [1e-4, 1e-3, 1e-2])
    def test_recovers_injected_ramp(self, step):
        layout, sym, eq = self._equalized_with_ramp(step)
        out = ars_phase_correct(eq, sym.ars_symbols, layout)
        assert abs(out.phase_step - step) <= 1e-9
        assert np.max(np.abs(out.data - sym.data_symbols)) <= 1e-9

    def test_requires_ars_allocation(self):
        scheme, layout, filt, grid, bits, sym = _qpsk_symbol(seed=42)
        eq = EqualizedSymbol(spectrum=np.fft.fft(sym.multiplexed),
                             time=sym.multiplexed, layout=layout)
        with pytest.raises(ValueError):
            ars_phase_correct(eq, np.ones(1, dtype=complex), layout)

    def test_recovers_far_approach_doppler_ramp(self):
        # a distant constant-bearing mover puts a nearly pure frequency
        # offset on the symbol; the tail-pilot estimate matches the known
        # per-sample phase step of the geometry
        from otfdm import HstConfig, hst_realization

        scheme, layout, filt, grid, bits, sym = _qpsk_symbol(
            alloc=240, excess=6, seed=43, ars_len=6
        )
        cfg = HstConfig(ds_m=50000.0, dmin_m=2.0, speed_kmh=500.0, fc_ghz=7.0)
        n = sym.time_samples.size
        ch = hst_realization(cfg, t0=0.0, duration=n / grid.sample_rate_hz,
                             num_samples=n)
        rx = apply_channel(sym.time_samples, ch, SeededRng(43, 1))
        folded = fold_spectrum(front_end(rx, grid), filt)
        est = estimate_channel(folded, layout, sym.rs_core,
                               EstimatorConfig(window_len=8))
        eq = mmse_equalize(folded, est, 0.0)
        out = ars_phase_correct(eq, sym.ars_symbols, layout)
        expected = 2 * np.pi * cfg.max_doppler_hz / (240 * grid.scs_khz * 1e3)
        assert out.phase_step == pytest.approx(expected, rel=0.05)


class TestDemodulate:
    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    def test_exact_points_zero_errors(self, name):
        scheme = MOD_SCHEMES[name]
        rng = SeededRng(50, 0)
        bits = rng.bits(6000 * scheme.bits_per_symbol // 6 * 6)
        bits = bits[: (bits.size // scheme.bits_per_symbol)
                    * scheme.bits_per_symbol]
        syms = modulate(bits, scheme)
        hard, _ = demodulate(syms, scheme, 0.01)
        assert np.array_equal(hard, bits)

    def test_soft_metric_sign_matches_hard_decision(self):
        scheme = MOD_SCHEMES["QPSK"]
        rng = SeededRng(51, 0)
        bits = rng.bits(2000)
        syms = modulate(bits, scheme) + rng.complex_normal(1000, 0.01)
        hard, soft = demodulate(syms, scheme, 0.01)
        assert np.array_equal(soft > 0, hard.astype(bool))

    def test_qam16_awgn_ber_matches_analytic(self):
        scheme = MOD_SCHEMES["QAM16"]
        noise_var = 0.1
        n = 100_000
        rng = SeededRng(52, 0)
        bits = rng.bits(4 * n)
        syms = modulate(bits, scheme) + rng.complex_normal(n, noise_var)
        hard, _ = demodulate(syms, scheme, noise_var)
        ber = np.count_nonzero(hard != bits) / bits.size
        expected = qam_ber_exact(4, noise_var)
        sigma = np.sqrt(expected * (1 - expected) / bits.size)
        assert abs(ber - expected) <= 3 * sigma

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            demodulate(np.zeros(0, dtype=complex), MOD_SCHEMES["QPSK"], 0.1)

    @pytest.mark.parametrize("noise_var", [0.001, 0.03, 0.3])
    @pytest.mark.parametrize("name", ["QPSK", "QAM16", "QAM64", "QAM256"])
    def test_matches_full_constellation_maxlog(self, name, noise_var):
        scheme = MOD_SCHEMES[name]
        bps = scheme.bits_per_symbol
        labels = (np.arange(2**bps)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
        points = modulate(labels.ravel(), scheme)
        rng = SeededRng(53, bps)
        rx = modulate(rng.bits(400 * bps), scheme) + rng.complex_normal(400, noise_var)
        hard, soft = demodulate(rx, scheme, noise_var)
        ref_hard, ref_soft = maxlog_demap_direct(rx, points, labels, noise_var)
        assert np.array_equal(hard, ref_hard)
        np.testing.assert_allclose(soft, ref_soft, rtol=1e-12)

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    def test_hard_bits_are_the_demodulated_bits(self, name):
        scheme = MOD_SCHEMES[name]
        rng = SeededRng(54, 0)
        rx = (modulate(rng.bits(600 * scheme.bits_per_symbol), scheme)
              + rng.complex_normal(600, 0.2)).reshape(3, 200)
        hard = hard_bits(rx, scheme)
        assert hard.shape == (3, 200 * scheme.bits_per_symbol)
        assert np.array_equal(hard, demodulate(rx, scheme, 0.2)[0])

    @pytest.mark.parametrize("name", ["QPSK", "QAM16", "QAM64", "QAM256"])
    def test_nearest_level_equals_a_scan_of_every_level(self, name):
        # ties included: the scan keeps the first level of equal distance
        from otfdm.receiver import _nearest_level

        def scan(r, levels):
            d = np.stack([(r - level) ** 2 for level in levels])
            return np.argmin(d, axis=0)

        scheme = MOD_SCHEMES[name]
        half = scheme.bits_per_symbol // 2
        labels = (np.arange(2**half)[:, None] >> np.arange(half - 1, -1, -1)) & 1
        levels = modulate(np.repeat(labels, 2, axis=1).ravel(), scheme).real
        ordered = np.sort(levels)
        mids = (ordered[:-1] + ordered[1:]) / 2.0
        special = np.concatenate([
            levels, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
            [0.0, -0.0, 1e6, -1e6, 2.0**40, -2.0**41, 1e17, -1e300,
             np.inf, -np.inf, np.nan]])
        r = np.concatenate([special, SeededRng(55, 0).uniform(-2.0, 2.0, 5000)])
        with np.errstate(over="ignore", invalid="ignore"):
            want = scan(r, levels)
            assert np.array_equal(_nearest_level(r, levels), want)
            finite = r[np.abs(r) < 2.0**40]
            assert np.array_equal(_nearest_level(finite, levels),
                                  scan(finite, levels))


def test_dump_diagnostics_mentions_all_stages():
    from otfdm.receiver import dump_diagnostics

    scheme, layout, filt, grid, bits, sym = _qpsk_symbol(seed=60)
    folded = fold_spectrum(front_end(sym.time_samples, grid), filt)
    est = estimate_channel(folded, layout, sym.rs_core,
                           EstimatorConfig(window_len=6))
    eq = mmse_equalize(folded, est, 0.0)
    text = dump_diagnostics(folded, est, eq)
    for token in ("demapped", "folded", "channel_estimate", "eq_data",
                  "phase_step"):
        assert token in text


def _received_stack(count, name="QAM16", filt_kind="SQRC", seed=70):
    """`count` independent symbols through their own multipath channels and
    noise: (scheme, layout, filt, grid, symbols, received rows)."""
    scheme = MOD_SCHEMES[name]
    alloc = 96
    layout = layout_for(name, alloc, ars_len=4)
    filt = filter_for(filt_kind, alloc, 10.0)
    grid = grid_for(alloc, filt.excess)
    step = grid.fft_size // alloc
    syms, rx = [], []
    for trial in range(count):
        rng = SeededRng(seed, trial)
        sym = generate_otfdm(rng.bits(layout.data_len * scheme.bits_per_symbol),
                             scheme, layout, filt, grid, rng)
        gains = rng.complex_normal(3, 1.0 / 3.0)
        ch = custom_realization([(d * step, g) for d, g in zip((0, 1, 3), gains)],
                                noise_variance=1e-3)
        syms.append(sym)
        rx.append(apply_channel(sym.time_samples, ch, rng))
    return scheme, layout, filt, grid, syms, rx


class TestLeadingTrialAxis:
    """A stack of T symbols gives, row for row, the 1-D results."""

    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_chain_rows_equal_one_dimensional_calls(self, count):
        scheme, layout, filt, grid, syms, rx = _received_stack(count)
        est_cfg = EstimatorConfig(window_len=window_for("QAM16", layout))
        demapped = front_end(np.stack(rx), grid)
        folded = fold_spectrum(demapped, filt)
        est = estimate_channel(folded, layout,
                               np.stack([s.rs_core for s in syms]), est_cfg)
        eq = mmse_equalize(folded, est, 0.01)
        ars = ars_phase_correct(eq, np.stack([s.ars_symbols for s in syms]),
                                layout)
        hard, soft = demodulate(ars.data, scheme, 0.01)
        assert ars.phase_step.shape == (count,)
        for t, sym in enumerate(syms):
            d1 = front_end(rx[t], grid)
            f1 = fold_spectrum(d1, filt)
            e1 = estimate_channel(f1, layout, sym.rs_core, est_cfg)
            q1 = mmse_equalize(f1, e1, 0.01)
            a1 = ars_phase_correct(q1, sym.ars_symbols, layout)
            h1, s1 = demodulate(a1.data, scheme, 0.01)
            assert np.array_equal(demapped[t], d1)
            assert np.array_equal(folded.folded[t], f1.folded)
            for field in ("response", "rs_ls", "rs_impulse", "rs_windowed"):
                assert np.array_equal(getattr(est, field)[t],
                                      getattr(e1, field))
            assert np.array_equal(eq.spectrum[t], q1.spectrum)
            assert np.array_equal(eq.time[t], q1.time)
            assert np.array_equal(ars.time[t], a1.time)
            assert ars.phase_step[t] == a1.phase_step
            assert isinstance(a1.phase_step, float)
            assert np.array_equal(hard[t], h1)
            assert np.array_equal(soft[t], s1)

    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_genie_and_one_sided_rows(self, count):
        filt = filter_for("SQRC", 96, 10.0)
        layout = FrameLayout(rs_len=12, rs_cp=12, rs_cs=0, data_len=72,
                             variant=ONE_SIDED_CP)
        rng = SeededRng(71, count)
        folded = fold_spectrum(rng.complex_normal((count, filt.weights.size)),
                               filt)
        rs = rng.complex_normal((count, 12))
        h = rng.complex_normal((count, 96))
        est = estimate_channel(folded, layout, rs,
                               EstimatorConfig(window_len=6, rs_offset=5))
        genie = genie_estimate(h, layout)
        assert genie.rs_ls.shape == (count, 12)
        for t in range(count):
            f1 = fold_spectrum(folded.demapped[t], filt)
            e1 = estimate_channel(f1, layout, rs[t],
                                  EstimatorConfig(window_len=6, rs_offset=5))
            assert np.array_equal(est.response[t], e1.response)
            assert np.array_equal(genie.response[t],
                                  genie_estimate(h[t], layout).response)

    @pytest.mark.parametrize("count", [1, 3, 17])
    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    def test_demodulate_rows(self, count, name):
        scheme = MOD_SCHEMES[name]
        rng = SeededRng(72, count)
        rx = modulate(rng.bits(count * 30 * scheme.bits_per_symbol), scheme)
        rx = rx.reshape(count, 30) + rng.complex_normal((count, 30), 0.05)
        hard, soft = demodulate(rx, scheme, 0.05)
        assert hard.shape == soft.shape == (count, 30 * scheme.bits_per_symbol)
        for t in range(count):
            h1, s1 = demodulate(rx[t], scheme, 0.05)
            assert np.array_equal(hard[t], h1)
            assert np.array_equal(soft[t], s1)

    def test_one_singular_row_raises_for_the_stack(self):
        # ridge 0: one RS core with a spectral null sinks the whole stack
        _, layout, filt, grid, syms, rx = _received_stack(3, filt_kind="TAPS3")
        est_cfg = EstimatorConfig(window_len=window_for("QAM16", layout))
        rs = np.stack([s.rs_core for s in syms])
        spectrum = np.fft.fft(rs[1])
        spectrum[2] = 0.0
        rs[1] = np.fft.ifft(spectrum)
        folded = fold_spectrum(front_end(np.stack(rx), grid), filt)
        for t in (0, 2):
            f1 = fold_spectrum(front_end(rx[t], grid), filt)
            estimate_channel(f1, layout, rs[t], est_cfg)
        with pytest.raises(SingularReference):
            estimate_channel(fold_spectrum(front_end(rx[1], grid), filt),
                             layout, rs[1], est_cfg)
        with pytest.raises(SingularReference):
            estimate_channel(folded, layout, rs, est_cfg)

    def test_one_degenerate_row_raises_for_the_stack(self):
        _, layout, filt, grid, _, rx = _received_stack(3)
        folded = fold_spectrum(front_end(np.stack(rx), grid), filt)
        h = np.ones((3, 96), dtype=complex)
        h[2, 40] = 0.0
        for t in (0, 1):
            mmse_equalize(fold_spectrum(folded.demapped[t], filt),
                          genie_estimate(h[t], layout), 0.0)
        with pytest.raises(DegenerateEqualizer):
            mmse_equalize(folded, genie_estimate(h, layout), 0.0)

    def test_null_floors_are_per_row(self):
        # a row a million times louder must not push the others under the
        # null floors: each row is judged against its own maximum
        _, layout, filt, grid, syms, rx = _received_stack(3, filt_kind="TAPS3")
        est_cfg = EstimatorConfig(window_len=window_for("QAM16", layout))
        rs = np.stack([s.rs_core for s in syms])
        rs[0] *= 1e6
        folded = fold_spectrum(front_end(np.stack(rx), grid), filt)
        est = estimate_channel(folded, layout, rs, est_cfg)
        h = np.ones((3, 96), dtype=complex)
        h[0] *= 1e12
        mmse_equalize(folded, genie_estimate(h, layout), 0.0)
        for t in range(3):
            f1 = fold_spectrum(front_end(rx[t], grid), filt)
            e1 = estimate_channel(f1, layout, rs[t], est_cfg)
            assert np.array_equal(est.response[t], e1.response)
