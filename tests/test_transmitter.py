import numpy as np
import pytest

from oracles import extend_and_shape_direct
from otfdm import (
    MOD_SCHEMES,
    FrameLayout,
    SeededRng,
    WaveformGrid,
    dft,
    effective_pulse,
    generate_otfdm,
    make_sqrc_filter,
    map_and_modulate,
    multiplex_symbol,
    precode_extend_shape,
    write_waveform,
)
from otfdm.harness import filter_for, grid_for, layout_for


class TestMultiplex:
    def test_basic_order(self):
        out = multiplex_symbol(
            [3.0], [1.0, 2.0], [], FrameLayout(rs_len=2, rs_cp=0, rs_cs=0, data_len=1)
        )
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_with_ars_tail(self):
        layout = FrameLayout(rs_len=1, rs_cp=0, rs_cs=0, data_len=2, ars_len=1)
        out = multiplex_symbol([2.0, 3.0], [1.0], [4.0], layout)
        np.testing.assert_array_equal(out, [1, 2, 3, 4])

    def test_pi2_bpsk_nominal_block_length(self):
        layout = layout_for("PI2_BPSK", 2976)
        assert (layout.rs_len, layout.rs_cp, layout.rs_cs) == (72, 56, 18)
        rng = SeededRng(2, 0)
        core = rng.complex_normal(72)
        from otfdm import build_rs_block

        block = build_rs_block(core, layout)
        data = rng.complex_normal(layout.data_len)
        out = multiplex_symbol(data, block, [], layout)
        assert block.size == 146
        np.testing.assert_array_equal(out[:146], block)

    def test_length_mismatch_raises(self):
        layout = FrameLayout(rs_len=2, rs_cp=0, rs_cs=0, data_len=1)
        with pytest.raises(ValueError):
            multiplex_symbol([1.0, 2.0], [1.0, 2.0], [], layout)


class TestPrecodeExtendShape:
    def test_zero_excess_unity_filter_is_plain_dft(self):
        rng = SeededRng(3, 0)
        x = rng.complex_normal(16)
        filt = make_sqrc_filter(16, 0)
        np.testing.assert_allclose(precode_extend_shape(x, filt), dft(x), atol=1e-12)

    def test_unit_impulse_returns_weights(self):
        filt = make_sqrc_filter(12, 3)
        x = np.zeros(12, dtype=complex)
        x[0] = 1.0
        np.testing.assert_allclose(
            precode_extend_shape(x, filt), filt.weights, atol=1e-12
        )

    def test_matches_direct_recomputation(self):
        rng = SeededRng(4, 0)
        x = rng.complex_normal(12)
        filt = make_sqrc_filter(12, 3)
        expected = extend_and_shape_direct(x, filt.weights, 3)
        np.testing.assert_allclose(precode_extend_shape(x, filt), expected, atol=1e-9)

    def test_length_mismatch_raises(self):
        filt = make_sqrc_filter(12, 3)
        with pytest.raises(ValueError):
            precode_extend_shape(np.ones(10, dtype=complex), filt)


class TestMapAndModulate:
    def test_single_tone_constant_modulus(self):
        grid = WaveformGrid(alloc_size=16, excess=2, fft_size=64, cp_len=4)
        block = np.zeros(20, dtype=complex)
        block[10] = 1.0
        sym = map_and_modulate(block, grid)
        mags = np.abs(sym.body)
        assert mags.max() - mags.min() <= 1e-12

    def test_symbol_cp_property(self):
        grid = WaveformGrid(alloc_size=16, excess=0, fft_size=64, cp_len=9)
        rng = SeededRng(6, 0)
        sym = map_and_modulate(rng.complex_normal(16), grid)
        np.testing.assert_allclose(
            sym.time_samples[:9], sym.time_samples[-9:], atol=1e-14
        )

    def test_out_of_window_bins_are_zero(self):
        grid = WaveformGrid(alloc_size=240, excess=12, fft_size=1024, cp_len=0)
        rng = SeededRng(8, 0)
        sym = map_and_modulate(rng.complex_normal(264), grid)
        spectrum = np.fft.fft(sym.body) * (grid.alloc_size / grid.fft_size)
        mask = np.zeros(1024, dtype=bool)
        mask[grid.mapped_bins()] = True
        assert np.max(np.abs(spectrum[~mask])) <= 1e-10

    def test_grid_invariant_violation_raises(self):
        with pytest.raises(ValueError):
            WaveformGrid(alloc_size=16, excess=2, fft_size=18, cp_len=0)


class TestEffectivePulse:
    def test_rectangular_spectrum_gives_dirichlet_nulls(self):
        filt = make_sqrc_filter(16, 0)
        grid = grid_for(16, 0)
        pulse = effective_pulse(filt, grid)
        step = grid.fft_size // 16
        peak = int(np.argmax(np.abs(pulse)))
        lags = [(peak + n * step) % grid.fft_size for n in range(1, 16)]
        assert np.max(np.abs(pulse[lags])) <= 1e-9 * np.abs(pulse[peak])

    def test_excess_bandwidth_shrinks_tails(self):
        from otfdm.harness import pulse_tail_fraction

        assert pulse_tail_fraction(240, 10.0, 2) < pulse_tail_fraction(240, 0.0, 2)

    def test_matched_fold_flat_pulse_is_symbol_spaced_delta(self):
        filt = make_sqrc_filter(48, 6)
        grid = grid_for(48, 6)
        pulse = effective_pulse(filt, grid, matched=True)
        step = grid.fft_size // 48
        peak = int(np.argmax(np.abs(pulse)))
        scale = np.abs(pulse[peak])
        lags = [(peak + n * step) % grid.fft_size for n in range(1, 48)]
        assert np.max(np.abs(pulse[lags])) <= 1e-9 * scale


class TestGenerate:
    def _setup(self, name="QPSK", alloc=240, ext=5.0, ars=0):
        scheme = MOD_SCHEMES[name]
        layout = layout_for(name, alloc, ars_len=ars)
        filt = filter_for("SQRC", alloc, ext)
        grid = grid_for(alloc, filt.excess)
        return scheme, layout, filt, grid

    def test_deterministic_regeneration(self):
        scheme, layout, filt, grid = self._setup()
        bits = SeededRng(10, 0).bits(layout.data_len * 2)
        a = generate_otfdm(bits, scheme, layout, filt, grid, SeededRng(10, 1))
        b = generate_otfdm(bits, scheme, layout, filt, grid, SeededRng(10, 1))
        np.testing.assert_array_equal(a.time_samples, b.time_samples)

    def test_table_layout_share_qpsk(self):
        layout = layout_for("QPSK", 3120)
        assert (layout.rs_len, layout.rs_cp, layout.rs_cs) == (84, 63, 21)
        share = 100.0 * layout.rs_block_len / 3120
        assert round(share, 1) == 5.4

    def test_symbol_cp_on_every_output(self):
        for name in MOD_SCHEMES:
            scheme, layout, filt, grid = self._setup(name, ext=0.0)
            rng = SeededRng(11, 0)
            bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
            sym = generate_otfdm(bits, scheme, layout, filt, grid, rng)
            cp = grid.cp_len
            np.testing.assert_allclose(
                sym.time_samples[:cp], sym.time_samples[-cp:], atol=1e-12
            )

    def test_pipeline_linearity(self):
        filt = make_sqrc_filter(24, 3)
        grid = WaveformGrid(24, 3, 96, 6)
        rng = SeededRng(12, 0)
        x = rng.complex_normal(24)
        a = 0.3 - 1.7j
        base = map_and_modulate(precode_extend_shape(x, filt), grid)
        scaled = map_and_modulate(precode_extend_shape(a * x, filt), grid)
        np.testing.assert_allclose(
            scaled.time_samples, a * base.time_samples, atol=1e-12
        )

    def test_reduces_to_classic_dft_s_ofdm(self):
        # all-data layout, no guards, no excess, unity filter: the waveform is
        # textbook DFT-s-OFDM of the data block
        alloc = 48
        layout = FrameLayout(rs_len=0, rs_cp=0, rs_cs=0, data_len=alloc)
        filt = make_sqrc_filter(alloc, 0)
        grid = WaveformGrid(alloc, 0, 192, 12)
        scheme = MOD_SCHEMES["QPSK"]
        rng = SeededRng(13, 0)
        bits = rng.bits(alloc * 2)
        sym = generate_otfdm(bits, scheme, layout, filt, grid, rng)

        from otfdm import modulate

        data = modulate(bits, scheme)
        spectrum = np.fft.fft(data)
        mapped = np.zeros(192, dtype=complex)
        mapped[(np.arange(48) - 24) % 192] = spectrum
        body = np.fft.ifft(mapped) * (192 / 48)
        classic = np.concatenate([body[-12:], body])
        np.testing.assert_allclose(sym.time_samples, classic, atol=1e-12)

    def test_mismatched_configuration_raises(self):
        scheme, layout, filt, grid = self._setup()
        bad_grid = grid_for(layout.total_len, filt.excess + 1)
        with pytest.raises(ValueError):
            generate_otfdm(
                np.zeros(layout.data_len * 2, dtype=np.int64),
                scheme, layout, filt, bad_grid, SeededRng(1, 0),
            )
        with pytest.raises(ValueError):
            generate_otfdm(
                np.zeros(3, dtype=np.int64), scheme, layout, filt, grid,
                SeededRng(1, 0),
            )


def test_write_waveform_roundtrip(tmp_path):
    scheme = MOD_SCHEMES["QPSK"]
    layout = layout_for("QPSK", 240)
    filt = filter_for("SQRC", 240, 5.0)
    grid = grid_for(240, filt.excess)
    rng = SeededRng(14, 0)
    sym = generate_otfdm(rng.bits(layout.data_len * 2), scheme, layout, filt,
                         grid, rng)
    path = tmp_path / "wave.bin"
    write_waveform(path, sym, seed_info="14/0")

    raw = np.fromfile(path, dtype="<f8")
    back = raw[0::2] + 1j * raw[1::2]
    np.testing.assert_array_equal(back, sym.time_samples)

    header = (tmp_path / "wave.bin.hdr").read_text()
    for key in ("format=interleaved_float64_le", "alloc_size=240",
                "rs_len=", "seed=14/0"):
        assert key in header
