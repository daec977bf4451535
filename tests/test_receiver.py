from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    fold_composite_direct,
    fold_direct,
    nearest_point_bits,
    qam_ber_exact,
)
from otfdm import (
    MOD_SCHEMES,
    DegenerateEqualizer,
    EstimatorConfig,
    FrameLayout,
    SeededRng,
    SingularReference,
    WaveformGrid,
    apply_channel,
    ars_phase_correct,
    build_rs_block,
    check_equalizer,
    check_reference,
    custom_realization,
    estimate_channel,
    fold_spectrum,
    front_end,
    generate_otfdm,
    hard_bits,
    make_sqrc_filter,
    mmse_equalize,
    modulate,
    multiplex_symbol,
    precode_extend_shape,
)
from otfdm import receiver, sequences
from otfdm.harness import (
    ExperimentConfig,
    _composite_truth,
    filter_for,
    grid_for,
    layout_for,
    run_ber,
    run_mse,
    window_for,
)
from otfdm.numerics import cyclic_fold


def _qpsk_symbol(alloc=48, excess=6, seed=20, ars_len=0):
    scheme = MOD_SCHEMES["QPSK"]
    layout = FrameLayout(rs_len=12, rs_cp=8, rs_cs=4,
                         data_len=alloc - 24 - ars_len, ars_len=ars_len)
    filt = make_sqrc_filter(alloc, excess)
    grid = WaveformGrid(alloc, excess, 4 * alloc, cp_len=20)
    rng = SeededRng(seed, 0)
    bits = rng.bits(layout.data_len * 2)
    sym = generate_otfdm(bits, scheme, layout, filt, grid, rng)
    return scheme, layout, filt, grid, bits, sym


def _multiplexed(sym, layout):
    """The multiplexed [RS block | data | ARS] of generate_otfdm's arrays
    `sym`, rebuilt by the public stage call (bit for bit what
    generate_otfdm shaped)."""
    _, rs_core, data, ars = sym
    return multiplex_symbol(data, build_rs_block(rs_core, layout), ars, layout)


def _data(time, layout):
    """The data segment of equalized time symbols."""
    return time[..., layout.data_start : layout.ars_start]


def _shaped(sym, layout, filt):
    return precode_extend_shape(_multiplexed(sym, layout), filt)


class TestFrontEnd:
    def test_loopback_recovers_shaped_block(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        out = front_end(sym[0], grid)
        np.testing.assert_allclose(out, _shaped(sym, layout, filt), atol=1e-10)

    def test_delay_within_cp_gives_linear_phase(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        d = 7
        delayed = np.concatenate(
            [np.zeros(d, dtype=complex), sym[0]]
        )[: grid.cp_len + grid.fft_size]
        out = front_end(delayed, grid)
        bins = grid.first_subcarrier + np.arange(grid.extended_size)
        expected = _shaped(sym, layout, filt) * np.exp(-2j * np.pi * bins * d
                                                       / grid.fft_size)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_flat_gain_scales_output(self):
        _, layout, filt, grid, _, sym = _qpsk_symbol()
        g = 0.3 - 1.2j
        out = front_end(g * sym[0], grid)
        np.testing.assert_allclose(out, g * _shaped(sym, layout, filt),
                                   atol=1e-10)

    def test_short_input_raises(self):
        _, _, _, grid, _, (time, *_) = _qpsk_symbol()
        with pytest.raises(ValueError):
            front_end(time[:-1], grid)

    @pytest.mark.parametrize("rows", [None, 1, 3, 17])
    def test_out_gives_the_same_bytes(self, rows):
        _, _, _, grid, _, _ = _qpsk_symbol()
        n = grid.cp_len + grid.fft_size + 5
        shape = (n,) if rows is None else (rows, n)
        rng = np.random.default_rng(rows)
        rx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = np.empty(shape[:-1] + (grid.fft_size,), dtype=complex)
        got = front_end(rx, grid, out=out)
        assert got.tobytes() == front_end(rx, grid).tobytes()
        assert not np.shares_memory(got, out)


class TestFoldSpectrum:
    def test_zero_excess_unity_filter_identity(self):
        filt = make_sqrc_filter(16, 0)
        rng = SeededRng(21, 0)
        y = rng.complex_normal(16)
        out = fold_spectrum(y, filt)
        np.testing.assert_allclose(out, y, atol=1e-14)

    def test_weights_fold_to_ones(self):
        filt = make_sqrc_filter(24, 6)
        out = fold_spectrum(filt.weights.astype(complex), filt)
        np.testing.assert_allclose(out, np.ones(24), atol=1e-12)

    def test_matches_direct_triple_sum(self):
        filt = make_sqrc_filter(12, 3)
        rng = SeededRng(22, 0)
        y = rng.complex_normal(18)
        out = fold_spectrum(y, filt)
        expected = fold_direct(y, filt.weights, 12, 3)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_noise_variance_preserved(self):
        # white per-subcarrier noise keeps its variance through the fold
        filt = make_sqrc_filter(48, 12)
        rng = SeededRng(23, 0)
        var = 0.25
        samples = []
        for _ in range(400):
            noise = rng.complex_normal(48 + 24, var)
            samples.append(fold_spectrum(noise, filt))
        measured = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert measured == pytest.approx(var, rel=0.02)

    def test_dimension_mismatch_raises(self):
        filt = make_sqrc_filter(12, 3)
        with pytest.raises(ValueError):
            fold_spectrum(np.ones(12, dtype=complex), filt)


def _static_channel_case(layout, filt, grid, scheme, taps_m, seed):
    """Transmit one symbol through integer symbol-rate delay taps and return
    (RS core, folded, oracle composite)."""
    rng = SeededRng(seed, 0)
    bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
    time, rs_core, _, _ = generate_otfdm(bits, scheme, layout, filt, grid, rng)
    step = grid.fft_size // grid.alloc_size
    ch = custom_realization([(d * step, g) for d, g in taps_m])
    rx = apply_channel(time, ch)
    folded = fold_spectrum(front_end(rx, grid), filt)
    bins = grid.first_subcarrier + np.arange(grid.extended_size)
    h_bins = np.zeros(grid.extended_size, dtype=complex)
    for d, g in taps_m:
        h_bins += g * np.exp(-2j * np.pi * bins * d * step / grid.fft_size)
    truth = fold_composite_direct(filt.weights, grid.alloc_size, grid.excess,
                                  h_bins)
    return rs_core, folded, truth


class TestEstimateChannel:
    def test_flat_channel_recovers_gain(self):
        _, layout, filt, grid, _, (time, rs_core, _, _) = _qpsk_symbol()
        g = 1.7 - 0.4j
        folded = fold_spectrum(front_end(g * time, grid), filt)
        est = estimate_channel(folded, filt, layout, rs_core,
                               EstimatorConfig(window_len=6))
        np.testing.assert_allclose(est, np.full(48, g), atol=1e-9)

    def test_static_three_tap_matches_composite_oracle(self):
        scheme = MOD_SCHEMES["QPSK"]
        layout = FrameLayout(rs_len=12, rs_cp=8, rs_cs=4, data_len=24)
        filt = make_sqrc_filter(48, 5)
        grid = WaveformGrid(48, 5, 192, cp_len=40)
        taps = [(0, 0.8), (2, 0.4 - 0.3j), (6, 0.3j)]
        rs_core, folded, truth = _static_channel_case(layout, filt, grid,
                                                      scheme, taps, seed=30)
        est = estimate_channel(folded, filt, layout, rs_core,
                               EstimatorConfig(window_len=8))
        assert np.max(np.abs(est - truth)) <= 1e-8

    def test_one_sided_layout_extraction_inside_prefix(self):
        # a block [c | c] read at offset 5, then mid-prefix (offset 6)
        scheme = MOD_SCHEMES["QPSK"]
        filt = make_sqrc_filter(48, 5)
        grid = WaveformGrid(48, 5, 192, cp_len=40)
        taps = [(0, 1.0), (3, 0.5j)]
        for rs_cp in (5, 6):
            layout = FrameLayout(rs_len=12, rs_cp=rs_cp, rs_cs=12 - rs_cp,
                                 data_len=24)
            rs_core, folded, truth = _static_channel_case(layout, filt, grid,
                                                          scheme, taps, seed=31)
            est = estimate_channel(folded, filt, layout, rs_core,
                                   EstimatorConfig(window_len=6))
            assert np.max(np.abs(est - truth)) <= 1e-8

    def test_pi2_two_tap_requires_regularization(self):
        name = "PI2_BPSK"
        scheme = MOD_SCHEMES[name]
        layout = layout_for(name, 240)
        filt = filter_for("TAPS2", 240, 0.0)
        grid = grid_for(240, 0)
        rng = SeededRng(32, 0)
        time, rs_core, _, _ = generate_otfdm(rng.bits(layout.data_len), scheme,
                                             layout, filt, grid, rng)
        folded = fold_spectrum(front_end(time, grid), filt)
        wl = window_for(name, layout)
        with pytest.raises(SingularReference):
            estimate_channel(folded, filt, layout, rs_core,
                             EstimatorConfig(window_len=wl, ridge=0.0))
        truth = filt.folded_square().astype(complex)
        for ridge in (0.3162, 1.0, 3.162):
            est = estimate_channel(folded, filt, layout, rs_core,
                                   EstimatorConfig(window_len=wl, ridge=ridge))
            assert np.all(np.isfinite(est))
            assert np.isfinite(np.mean(np.abs(est - truth) ** 2))

    def test_ridge_converges_to_plain_ls(self):
        _, layout, filt, grid, _, (time, rs_core, _, _) = _qpsk_symbol(seed=33)
        g = 0.9 + 0.2j
        folded = fold_spectrum(front_end(g * time, grid), filt)
        base = estimate_channel(folded, filt, layout, rs_core,
                                EstimatorConfig(window_len=6, ridge=0.0))
        errs = []
        for ridge in (1e-2, 1e-4, 1e-6):
            est = estimate_channel(folded, filt, layout, rs_core,
                                   EstimatorConfig(window_len=6, ridge=ridge))
            errs.append(np.max(np.abs(est - base)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-6

    def test_pre_cursor_of_a_fractional_delay_is_estimated(self):
        # QPSK/240 at 5% extension and 8% RS: window 8 < rs_len 10, so the
        # estimator has room for pre-cursor samples (QAM64/240's window fills
        # its RS core and keeps none). A noiseless tap at 0.5 samples puts
        # the SQRC composite's pre-cursor on the cyclic samples before 0.
        # Each of them that holds more than 1e-3 of the composite's energy,
        # the noise power at the default 30 dB SNR, must be estimated, not
        # dropped: its estimate lies nearer the true sample than to zero,
        # which is what a dropped sample reads. The SQRC composite gain is
        # flat, so the estimate's samples are the window's own.
        cfg = ExperimentConfig(scheme="QPSK", alloc_size=240,
                               extension_pct=5.0, rs_overhead_pct=8.0)
        scheme, layout, filt, grid = cfg.resolve()
        rng = SeededRng(1, 0)
        time, rs_core, _, _ = generate_otfdm(
            rng.bits(layout.data_len * scheme.bits_per_symbol), scheme, layout,
            filt, grid, rng)
        ch = custom_realization([(0.5, 1.0)])
        folded = fold_spectrum(front_end(apply_channel(time, ch), grid), filt)
        est = estimate_channel(folded, filt, layout, rs_core, EstimatorConfig(
            window_len=window_for("QPSK", layout)))
        got = np.fft.ifft(est)
        want = np.fft.ifft(_composite_truth(ch.impulse_response(), grid, filt))
        share = np.abs(want) ** 2 / np.sum(np.abs(want) ** 2)
        pre = [n for n in range(len(want) // 2, len(want)) if share[n] > 1e-3]
        assert len(pre) == 2
        assert np.all(np.abs(got[pre] - want[pre]) < np.abs(got[pre]))

    def test_filter_or_layout_mismatch_raises(self):
        _, layout, filt, grid, _, (time, rs_core, _, _) = _qpsk_symbol()
        folded = fold_spectrum(front_end(time, grid), filt)
        est_cfg = EstimatorConfig(window_len=6)
        with pytest.raises(ValueError, match="does not match"):
            estimate_channel(folded, make_sqrc_filter(24, 6), layout,
                             rs_core, est_cfg)
        with pytest.raises(ValueError, match="does not match"):
            estimate_channel(folded[:-1], filt, layout, rs_core, est_cfg)

    def test_bad_window_raises(self):
        _, layout, filt, grid, _, (time, rs_core, _, _) = _qpsk_symbol()
        folded = fold_spectrum(front_end(time, grid), filt)
        with pytest.raises(ValueError):
            estimate_channel(folded, filt, layout, rs_core,
                             EstimatorConfig(window_len=layout.rs_len + 1))


@pytest.mark.parametrize("call, match", [
    (lambda layout, filt, folded, rs_core, ars: estimate_channel(
        folded, filt, layout, rs_core[:-1], EstimatorConfig(window_len=6)),
     "estimate_channel: rs core length"),
    (lambda layout, filt, folded, rs_core, ars: mmse_equalize(
        folded, np.ones(folded.size - 1, complex), 0.1),
     "mmse_equalize: response length"),
    (lambda layout, filt, folded, rs_core, ars: ars_phase_correct(
        np.ones(layout.total_len, complex), ars[:-1], layout),
     "ars_phase_correct: reference length"),
], ids=["estimate_channel", "mmse_equalize", "ars_phase_correct"])
def test_reference_length_refusals(call, match):
    _, layout, filt, grid, _, (time, rs_core, _, ars) = _qpsk_symbol(ars_len=4)
    folded = fold_spectrum(front_end(time, grid), filt)
    with pytest.raises(ValueError, match=match):
        call(layout, filt, folded, rs_core, ars)


class TestMmseEqualize:
    def test_unity_estimate_zero_noise_passthrough(self):
        _, layout, filt, grid, _, (time, *_) = _qpsk_symbol()
        folded = fold_spectrum(front_end(time, grid), filt)
        est = np.ones(48, dtype=complex)
        eq = mmse_equalize(folded, est, 0.0)
        np.testing.assert_allclose(eq, np.fft.ifft(folded),
                                   atol=1e-12)

    def test_zero_db_bias(self):
        _, layout, filt, grid, _, (time, *_) = _qpsk_symbol()
        folded = fold_spectrum(front_end(time, grid), filt)
        est = np.ones(48, dtype=complex)
        eq = mmse_equalize(folded, est, 1.0)
        np.testing.assert_allclose(eq, np.fft.ifft(folded) / 2.0,
                                   atol=1e-12)

    def test_zero_noise_with_null_estimate_raises(self):
        _, layout, filt, grid, _, (time, *_) = _qpsk_symbol()
        folded = fold_spectrum(front_end(time, grid), filt)
        h = np.ones(48, dtype=complex)
        h[5] = 0.0
        with pytest.raises(DegenerateEqualizer):
            mmse_equalize(folded, h, 0.0)
        # the up-front check refuses the same, before any symbol
        with pytest.raises(DegenerateEqualizer):
            check_equalizer(h, 0.0)
        check_equalizer(h, 1e-3)

    def test_negative_noise_raises(self):
        _, layout, filt, grid, _, (time, *_) = _qpsk_symbol()
        folded = fold_spectrum(front_end(time, grid), filt)
        with pytest.raises(ValueError):
            mmse_equalize(folded, np.ones(48, complex), -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_noise_or_ridge_raises(self, bad):
        # NaN would equalize to all-NaN and inf to all-zero, quietly
        _, layout, filt, grid, _, (time, *_) = _qpsk_symbol()
        folded = fold_spectrum(front_end(time, grid), filt)
        with pytest.raises(ValueError, match="noise_var"):
            mmse_equalize(folded, np.ones(48, complex), bad)
        with pytest.raises(ValueError, match="ridge"):
            EstimatorConfig(window_len=4, ridge=bad)

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    # (6, 6) is a block [c | c] read mid-prefix; the ids keep their names
    @pytest.mark.parametrize("rs_cp, rs_cs", [(8, 4), (6, 6)],
                             ids=["TWO_SIDED", "ONE_SIDED_CP"])
    def test_end_to_end_identity(self, name, rs_cp, rs_cs):
        # any scheme, fold-flat filter, flat unit channel, no noise: the
        # recovered data equals the transmitted data to within 1e-8
        scheme = MOD_SCHEMES[name]
        alloc = 96
        layout = FrameLayout(rs_len=12, rs_cp=rs_cp, rs_cs=rs_cs, data_len=68,
                             ars_len=4)
        filt = make_sqrc_filter(alloc, 8)
        grid = WaveformGrid(alloc, 8, 4 * alloc, cp_len=16)
        rng = SeededRng(40, 0)
        bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
        time, rs_core, data, _ = generate_otfdm(bits, scheme, layout, filt, grid,
                                                rng)
        folded = fold_spectrum(front_end(time, grid), filt)
        est = estimate_channel(folded, filt, layout, rs_core,
                               EstimatorConfig(window_len=8))
        eq = mmse_equalize(folded, est, 0.0)
        assert np.max(np.abs(_data(eq, layout) - data)) <= 1e-8
        hard = hard_bits(_data(eq, layout), scheme)
        assert np.array_equal(hard, bits)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(MOD_SCHEMES)),
           alloc=st.integers(16, 600),
           ext_pct=st.floats(0.0, 20.0),
           rs_pct=st.one_of(st.none(), st.floats(0.0, 30.0)),
           ars_pct=st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_noiseless_loopback_recovers_the_bits(self, name, alloc, ext_pct,
                                                  rs_pct, ars_pct, seed):
        # any scheme and layout, SQRC shaping, no channel, no noise: the
        # ZC schemes estimate from their own RS; pi/2-BPSK, whose random
        # RS may have spectral nulls, is handed the known composite
        try:
            cfg = ExperimentConfig(scheme=name, alloc_size=alloc,
                                   extension_pct=ext_pct,
                                   rs_overhead_pct=rs_pct, ars_pct=ars_pct)
            scheme, layout, filt, grid = cfg.resolve()
        except ValueError:
            assume(False)
        rng = SeededRng(seed, 0)
        bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
        time, rs_core, _, _ = generate_otfdm(bits, scheme, layout, filt, grid,
                                             rng)
        folded = fold_spectrum(front_end(time, grid), filt)
        if name == "PI2_BPSK":
            est = filt.folded_square()
        else:
            try:  # no RS at all leaves no window to estimate with
                est_cfg = EstimatorConfig(window_len=window_for(name, layout))
                check_reference(rs_core, layout, filt, est_cfg)
            except ValueError:
                assume(False)
            est = estimate_channel(folded, filt, layout, rs_core, est_cfg)
        eq = mmse_equalize(folded, est, 0.0)
        assert np.array_equal(hard_bits(_data(eq, layout), scheme), bits)


class TestArsPhaseCorrect:
    def _equalized_with_ramp(self, step):
        scheme, layout, filt, grid, bits, sym = _qpsk_symbol(
            alloc=96, excess=8, seed=41, ars_len=4
        )
        n = np.arange(layout.total_len)
        ramp = np.exp(1j * step * (n - (layout.rs_cp + layout.rs_len)))
        eq = _multiplexed(sym, layout) * ramp
        return layout, sym, eq

    def test_zero_ramp_is_exact_noop(self):
        layout, (*_, ars), eq = self._equalized_with_ramp(0.0)
        out, phase_step = ars_phase_correct(eq, ars, layout)
        assert abs(phase_step) <= 1e-12
        np.testing.assert_array_equal(_data(out, layout), _data(eq, layout))

    @pytest.mark.parametrize("step", [1e-4, 1e-3, 1e-2])
    def test_recovers_injected_ramp(self, step):
        layout, (_, _, data, ars), eq = self._equalized_with_ramp(step)
        out, phase_step = ars_phase_correct(eq, ars, layout)
        assert abs(phase_step - step) <= 1e-9
        assert np.max(np.abs(_data(out, layout) - data)) <= 1e-9

    def test_equalized_length_must_match_layout(self):
        layout, (*_, ars), eq = self._equalized_with_ramp(0.0)
        with pytest.raises(ValueError, match="layout size"):
            ars_phase_correct(eq[:-1], ars, layout)

    def test_requires_ars_allocation(self):
        scheme, layout, filt, grid, bits, sym = _qpsk_symbol(seed=42)
        eq = _multiplexed(sym, layout)
        with pytest.raises(ValueError):
            ars_phase_correct(eq, np.ones(1, dtype=complex), layout)

    def test_recovers_far_approach_doppler_ramp(self):
        # a distant constant-bearing mover puts a nearly pure frequency
        # offset on the symbol; the tail-pilot estimate matches the known
        # per-sample phase step of the geometry
        from otfdm import HstConfig, hst_realization

        scheme, layout, filt, grid, bits, (time, rs_core, _, ars) = _qpsk_symbol(
            alloc=240, excess=6, seed=43, ars_len=6
        )
        cfg = HstConfig(ds_m=50000.0, dmin_m=2.0, speed_kmh=500.0, fc_ghz=7.0)
        n = time.size
        ch = hst_realization(cfg, t0=0.0, duration=n / grid.sample_rate_hz,
                             num_samples=n)
        rx = apply_channel(time, ch)
        folded = fold_spectrum(front_end(rx, grid), filt)
        est = estimate_channel(folded, filt, layout, rs_core,
                               EstimatorConfig(window_len=8))
        eq = mmse_equalize(folded, est, 0.0)
        _, phase_step = ars_phase_correct(eq, ars, layout)
        expected = 2 * np.pi * cfg.max_doppler_hz / (240 * grid.scs_khz * 1e3)
        assert phase_step == pytest.approx(expected, rel=0.05)


class TestDemodulate:
    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    def test_exact_points_zero_errors(self, name):
        scheme = MOD_SCHEMES[name]
        rng = SeededRng(50, 0)
        bits = rng.bits(6000 * scheme.bits_per_symbol // 6 * 6)
        bits = bits[: (bits.size // scheme.bits_per_symbol)
                    * scheme.bits_per_symbol]
        syms = modulate(bits, scheme)
        hard = hard_bits(syms, scheme)
        assert np.array_equal(hard, bits)

    def test_qam16_awgn_ber_matches_analytic(self):
        scheme = MOD_SCHEMES["QAM16"]
        noise_var = 0.1
        n = 100_000
        rng = SeededRng(52, 0)
        bits = rng.bits(4 * n)
        syms = modulate(bits, scheme) + rng.complex_normal(n, noise_var)
        hard = hard_bits(syms, scheme)
        ber = np.count_nonzero(hard != bits) / bits.size
        expected = qam_ber_exact(4, noise_var)
        sigma = np.sqrt(expected * (1 - expected) / bits.size)
        assert abs(ber - expected) <= 3 * sigma

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            hard_bits(np.zeros(0, dtype=complex), MOD_SCHEMES["QPSK"])

    @pytest.mark.parametrize("noise_var", [0.001, 0.03, 0.3])
    @pytest.mark.parametrize("name", ["QPSK", "QAM16", "QAM64", "QAM256"])
    def test_matches_full_constellation_maxlog(self, name, noise_var):
        scheme = MOD_SCHEMES[name]
        bps = scheme.bits_per_symbol
        labels = (np.arange(2**bps)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
        points = modulate(labels.ravel(), scheme)
        rng = SeededRng(53, bps)
        rx = modulate(rng.bits(400 * bps), scheme) + rng.complex_normal(400, noise_var)
        assert np.array_equal(hard_bits(rx, scheme),
                              nearest_point_bits(rx, points, labels))

    @pytest.mark.parametrize("name", ["QPSK", "QAM16", "QAM64", "QAM256"])
    def test_nearest_level_equals_a_scan_of_every_level(self, name):
        # ties included: the scan keeps the first level of equal distance
        from otfdm.receiver import _level_grid, _nearest_level

        def scan(r, levels):
            d = np.stack([(r - level) ** 2 for level in levels])
            return np.argmin(d, axis=0)

        scheme = MOD_SCHEMES[name]
        half = scheme.bits_per_symbol // 2
        labels = (np.arange(2**half)[:, None] >> np.arange(half - 1, -1, -1)) & 1
        levels = modulate(np.repeat(labels, 2, axis=1).ravel(), scheme).real
        ordered = np.sort(levels)
        mids = (ordered[:-1] + ordered[1:]) / 2.0
        huge = np.array([2.0**40, -2.0**41, 1e17, -1e300])
        special = np.concatenate([
            levels, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
            [0.0, -0.0, 1e6, -1e6], huge])
        r = np.concatenate([special, SeededRng(55, 0).uniform(-2.0, 2.0, 5000)])
        finite = r[np.abs(r) < 2.0**40]
        assert np.array_equal(_nearest_level(finite, *_level_grid(levels)),
                              scan(finite, levels))
        # beyond, where the scan's distances round to ties: the outer level
        outer = np.where(huge > 0, np.argmax(levels), np.argmin(levels))
        assert np.array_equal(_nearest_level(huge, *_level_grid(levels)), outer)

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(np.nan, np.nan), complex(0.5, np.inf)])
    def test_non_finite_input_raises(self, name, bad):
        scheme = MOD_SCHEMES[name]
        rx = modulate(SeededRng(56, 0).bits(8 * scheme.bits_per_symbol), scheme)
        rx[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hard_bits(rx, scheme)
        with pytest.raises(ValueError, match="non-finite"):
            hard_bits(rx.reshape(2, 4), scheme)


class TestRunConstants:
    """The filter gains and the demapper tables are built once per filter,
    RS length and scheme, and shared read-only."""

    @staticmethod
    def _clear():
        receiver._filter_gains.cache_clear()
        receiver._qam_axes.cache_clear()

    def test_records_do_not_depend_on_the_order_of_configs(self):
        # one scheme, allocation and RS length; only the filter weights
        # differ, and SQRC 0% and TAPS3 share their excess as well
        base = dict(scheme="QAM16", alloc_size=96, rs_overhead_pct=10.0,
                    snr_db=(12.0,), trials=6, seed=5)
        cfgs = [ExperimentConfig(extension_pct=ext, **base)
                for ext in (0.0, 5.0, 10.0)]
        cfgs.append(ExperimentConfig(filter_kind="TAPS3", extension_pct=0.0,
                                     ridge=0.1, **base))
        assert len({cfg.resolve()[1].rs_len for cfg in cfgs}) == 1
        assert len({cfg.resolve()[2].weights.tobytes() for cfg in cfgs}) == 4

        def records(cfg):
            mse_cfg = replace(cfg, gamma_sweep_pct=(cfg.extension_pct,),
                              rs_sweep_pct=())
            return run_ber(cfg) + run_mse(mse_cfg)

        self._clear()
        forward = [records(cfg) for cfg in cfgs]
        self._clear()
        backward = [records(cfg) for cfg in reversed(cfgs)][::-1]
        assert forward == backward
        for cfg in cfgs:
            _, layout, filt, _ = cfg.resolve()
            composite, _ = receiver._filter_gains(filt, layout.rs_len)
            assert np.array_equal(composite, filt.folded_square())

    def test_warm_estimate_folds_nothing(self, monkeypatch):
        filt = filter_for("SQRC", 96, 10.0)
        layout = FrameLayout(rs_len=12, rs_cp=5, rs_cs=7, data_len=72)
        rng = SeededRng(74, 0)
        folded = rng.complex_normal((3, 96))
        rs = rng.complex_normal((3, 12))
        est_cfg = EstimatorConfig(window_len=6, ridge=0.1)
        calls = []

        def counting_fold(*args):
            calls.append(args)
            return cyclic_fold(*args)

        self._clear()
        # the folded gain is folded in `sequences`, the reference gain here
        monkeypatch.setattr(receiver, "cyclic_fold", counting_fold)
        monkeypatch.setattr(sequences, "cyclic_fold", counting_fold)
        cold = estimate_channel(folded, filt, layout, rs, est_cfg)
        assert len(calls) == 2  # the folded gain and the reference gain
        warm = estimate_channel(folded, filt, layout, rs, est_cfg)
        assert len(calls) == 2 and np.array_equal(warm, cold)
        # other weights of the same kind and excess build their own entry
        other = replace(filt, weights=filt.weights * 1.5)
        assert not np.array_equal(
            estimate_channel(folded, other, layout, rs, est_cfg), cold)
        assert len(calls) == 4

    def test_cached_arrays_are_read_only(self):
        filt = filter_for("SQRC", 96, 10.0)
        composite, gain = receiver._filter_gains(filt, 12)
        labels, (levels, order, _) = receiver._qam_axes(MOD_SCHEMES["QAM64"])
        for array in (composite, gain, labels, levels, order):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # the filter's own method still hands out a fresh array
        fresh = filt.folded_square()
        assert np.array_equal(fresh, composite) and fresh.flags.writeable


def test_dump_diagnostics_mentions_all_stages():
    from otfdm.receiver import dump_diagnostics

    scheme, layout, filt, grid, bits, (time, rs_core, _, _) = _qpsk_symbol(
        seed=60)
    demapped = front_end(time, grid)
    folded = fold_spectrum(demapped, filt)
    est = estimate_channel(folded, filt, layout, rs_core,
                           EstimatorConfig(window_len=6))
    eq = mmse_equalize(folded, est, 0.0)
    text = dump_diagnostics(demapped, folded, est, eq, 0.0, layout)
    for token in ("demapped", "folded", "channel_estimate", "eq_data",
                  "phase_step"):
        assert token in text


def _received_stack(count, name="QAM16", filt_kind="SQRC", seed=70):
    """`count` independent symbols through their own multipath channels and
    noise: (scheme, layout, filt, grid, symbols, received rows), each
    symbol generate_otfdm's (time samples, RS core, data, ARS)."""
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
        ch = custom_realization([(d * step, g) for d, g in zip((0, 1, 3), gains)])
        syms.append(sym)
        y = apply_channel(sym[0], ch)
        rx.append(y + rng.complex_normal(y.size, 1e-3))
    return scheme, layout, filt, grid, syms, rx


class TestLeadingTrialAxis:
    """A stack of T symbols gives, row for row, the 1-D results."""

    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_chain_rows_equal_one_dimensional_calls(self, count):
        scheme, layout, filt, grid, syms, rx = _received_stack(count)
        est_cfg = EstimatorConfig(window_len=window_for("QAM16", layout))
        demapped = front_end(np.stack(rx), grid)
        folded = fold_spectrum(demapped, filt)
        _, rs_cores, _, ars_cores = map(np.stack, zip(*syms))
        est = estimate_channel(folded, filt, layout, rs_cores, est_cfg)
        eq = mmse_equalize(folded, est, 0.01)
        ars, steps = ars_phase_correct(eq, ars_cores, layout)
        hard = hard_bits(_data(ars, layout), scheme)
        assert steps.shape == (count,)
        for t, (_, rs_core, _, ars_core) in enumerate(syms):
            d1 = front_end(rx[t], grid)
            f1 = fold_spectrum(d1, filt)
            e1 = estimate_channel(f1, filt, layout, rs_core, est_cfg)
            q1 = mmse_equalize(f1, e1, 0.01)
            a1, s1 = ars_phase_correct(q1, ars_core, layout)
            h1 = hard_bits(_data(a1, layout), scheme)
            assert np.array_equal(demapped[t], d1)
            assert np.array_equal(folded[t], f1)
            assert np.array_equal(est[t], e1)
            assert np.array_equal(eq[t], q1)
            assert np.array_equal(ars[t], a1)
            assert steps[t] == s1
            assert isinstance(s1, float)
            assert np.array_equal(hard[t], h1)

    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_genie_and_one_sided_rows(self, count):
        filt = filter_for("SQRC", 96, 10.0)
        layout = FrameLayout(rs_len=12, rs_cp=5, rs_cs=7, data_len=72)
        rng = SeededRng(71, count)
        demapped = rng.complex_normal((count, filt.weights.size))
        folded = fold_spectrum(demapped, filt)
        rs = rng.complex_normal((count, 12))
        h = rng.complex_normal((count, 96))
        est_cfg = EstimatorConfig(window_len=6)
        est = estimate_channel(folded, filt, layout, rs, est_cfg)
        # a known (genie) response equalizes row for row too
        genie = mmse_equalize(folded, h, 0.01)
        assert genie.shape == (count, 96)
        for t in range(count):
            f1 = fold_spectrum(demapped[t], filt)
            e1 = estimate_channel(f1, filt, layout, rs[t], est_cfg)
            assert np.array_equal(est[t], e1)
            assert np.array_equal(genie[t], mmse_equalize(f1, h[t], 0.01))

    @pytest.mark.parametrize("count", [1, 3, 17])
    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    def test_demodulate_rows(self, count, name):
        scheme = MOD_SCHEMES[name]
        rng = SeededRng(72, count)
        rx = modulate(rng.bits(count * 30 * scheme.bits_per_symbol), scheme)
        rx = rx.reshape(count, 30) + rng.complex_normal((count, 30), 0.05)
        hard = hard_bits(rx, scheme)
        assert hard.shape == (count, 30 * scheme.bits_per_symbol)
        for t in range(count):
            assert np.array_equal(hard[t], hard_bits(rx[t], scheme))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(MOD_SCHEMES)),
           alloc=st.integers(16, 600),
           ext_pct=st.floats(0.0, 20.0),
           rs_pct=st.one_of(st.none(), st.floats(0.0, 30.0)),
           ars_pct=st.floats(0.0, 10.0),
           kind=st.sampled_from(["SQRC", "NONE", "TAPS2", "TAPS3"]),
           ridge=st.floats(1e-3, 10.0),
           count=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_rows_equal_one_dimensional_calls(
            self, name, alloc, ext_pct, rs_pct, ars_pct, kind, ridge, count,
            seed):
        # any scheme, layout and filter: every stage on a stack of noisy
        # symbols gives, row for row, the 1-D call's result bit for bit
        if not (kind.startswith("TAPS") or name == "PI2_BPSK"):
            ridge = 0.0
        try:
            cfg = ExperimentConfig(scheme=name, alloc_size=alloc,
                                   extension_pct=ext_pct, filter_kind=kind,
                                   rs_overhead_pct=rs_pct, ars_pct=ars_pct)
            scheme, layout, filt, grid = cfg.resolve()
        except ValueError:
            assume(False)
        syms, rx, responses = [], [], []
        for t in range(count):
            rng = SeededRng(seed, t)
            bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
            syms.append(generate_otfdm(bits, scheme, layout, filt, grid, rng))
            time = syms[-1][0]
            rx.append(time + rng.complex_normal(time.size, 1e-3))
            responses.append(rng.complex_normal(alloc))
        _, rs, _, ars_cores = map(np.stack, zip(*syms))
        try:  # no RS at all leaves no window to estimate with
            est_cfg = EstimatorConfig(window_len=window_for(name, layout),
                                      ridge=ridge)
            for row in rs:
                check_reference(row, layout, filt, est_cfg)
        except ValueError:
            assume(False)

        demapped = front_end(np.stack(rx), grid)
        folded = fold_spectrum(demapped, filt)
        est = estimate_channel(folded, filt, layout, rs, est_cfg)
        genie = mmse_equalize(folded, np.stack(responses), 0.01)
        eq = mmse_equalize(folded, est, 0.01)
        if layout.ars_len:
            eq, steps = ars_phase_correct(eq, ars_cores, layout)
        hard = hard_bits(_data(eq, layout), scheme)
        for t, (_, rs_core, _, ars_core) in enumerate(syms):
            d1 = front_end(rx[t], grid)
            f1 = fold_spectrum(d1, filt)
            e1 = estimate_channel(f1, filt, layout, rs_core, est_cfg)
            g1 = mmse_equalize(f1, responses[t], 0.01)
            q1 = mmse_equalize(f1, e1, 0.01)
            if layout.ars_len:
                q1, s1 = ars_phase_correct(q1, ars_core, layout)
                assert steps[t] == s1
            assert np.array_equal(demapped[t], d1)
            assert np.array_equal(folded[t], f1)
            assert np.array_equal(est[t], e1)
            assert np.array_equal(genie[t], g1)
            assert np.array_equal(eq[t], q1)
            assert np.array_equal(hard[t], hard_bits(_data(q1, layout), scheme))

    def test_one_singular_row_raises_for_the_stack(self):
        # ridge 0: one RS core with a spectral null sinks the whole stack
        _, layout, filt, grid, syms, rx = _received_stack(3, filt_kind="TAPS3")
        est_cfg = EstimatorConfig(window_len=window_for("QAM16", layout))
        rs = np.stack([rs_core for _, rs_core, _, _ in syms])
        spectrum = np.fft.fft(rs[1])
        spectrum[2] = 0.0
        rs[1] = np.fft.ifft(spectrum)
        folded = fold_spectrum(front_end(np.stack(rx), grid), filt)
        for t in (0, 2):
            f1 = fold_spectrum(front_end(rx[t], grid), filt)
            estimate_channel(f1, filt, layout, rs[t], est_cfg)
        with pytest.raises(SingularReference):
            estimate_channel(fold_spectrum(front_end(rx[1], grid), filt),
                             filt, layout, rs[1], est_cfg)
        with pytest.raises(SingularReference):
            estimate_channel(folded, filt, layout, rs, est_cfg)

    def test_one_degenerate_row_raises_for_the_stack(self):
        _, layout, filt, grid, _, rx = _received_stack(3)
        demapped = front_end(np.stack(rx), grid)
        folded = fold_spectrum(demapped, filt)
        h = np.ones((3, 96), dtype=complex)
        h[2, 40] = 0.0
        for t in (0, 1):
            mmse_equalize(fold_spectrum(demapped[t], filt),
                          h[t], 0.0)
        with pytest.raises(DegenerateEqualizer):
            mmse_equalize(folded, h, 0.0)

    def test_null_floors_are_per_row(self):
        # a row a million times louder must not push the others under the
        # null floors: each row is judged against its own maximum
        _, layout, filt, grid, syms, rx = _received_stack(3, filt_kind="TAPS3")
        est_cfg = EstimatorConfig(window_len=window_for("QAM16", layout))
        rs = np.stack([rs_core for _, rs_core, _, _ in syms])
        rs[0] *= 1e6
        folded = fold_spectrum(front_end(np.stack(rx), grid), filt)
        est = estimate_channel(folded, filt, layout, rs, est_cfg)
        h = np.ones((3, 96), dtype=complex)
        h[0] *= 1e12
        mmse_equalize(folded, h, 0.0)
        for t in range(3):
            f1 = fold_spectrum(front_end(rx[t], grid), filt)
            e1 = estimate_channel(f1, filt, layout, rs[t], est_cfg)
            assert np.array_equal(est[t], e1)
