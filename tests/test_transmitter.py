import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import extend_and_shape_direct, generate_otfdm_direct
from otfdm import (
    MOD_SCHEMES,
    FrameLayout,
    SeededRng,
    WaveformGrid,
    build_rs_block,
    dft,
    effective_pulse,
    generate_otfdm,
    make_sqrc_filter,
    map_and_modulate,
    multiplex_symbol,
    precode_extend_shape,
    transmitter,
    write_waveform,
)
from otfdm.harness import ExperimentConfig, filter_for, grid_for, layout_for


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
        time = map_and_modulate(block, grid)
        mags = np.abs(time[grid.cp_len :])
        assert mags.max() - mags.min() <= 1e-12

    def test_symbol_cp_property(self):
        grid = WaveformGrid(alloc_size=16, excess=0, fft_size=64, cp_len=9)
        rng = SeededRng(6, 0)
        time = map_and_modulate(rng.complex_normal(16), grid)
        np.testing.assert_allclose(time[:9], time[-9:], atol=1e-14)

    def test_out_of_window_bins_are_zero(self):
        grid = WaveformGrid(alloc_size=240, excess=12, fft_size=1024, cp_len=0)
        rng = SeededRng(8, 0)
        time = map_and_modulate(rng.complex_normal(264), grid)
        spectrum = np.fft.fft(time) * (grid.alloc_size / grid.fft_size)
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
        # the transmit/receive composite: the squared weights, mapped
        time = map_and_modulate((filt.weights**2).astype(complex), grid)
        pulse = time[grid.cp_len :]
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
        np.testing.assert_array_equal(a[0], b[0])

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
            time, *_ = generate_otfdm(bits, scheme, layout, filt, grid, rng)
            cp = grid.cp_len
            np.testing.assert_allclose(time[:cp], time[-cp:], atol=1e-12)

    def test_pipeline_linearity(self):
        filt = make_sqrc_filter(24, 3)
        grid = WaveformGrid(24, 3, 96, 6)
        rng = SeededRng(12, 0)
        x = rng.complex_normal(24)
        a = 0.3 - 1.7j
        base = map_and_modulate(precode_extend_shape(x, filt), grid)
        scaled = map_and_modulate(precode_extend_shape(a * x, filt), grid)
        np.testing.assert_allclose(scaled, a * base, atol=1e-12)

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
        time, *_ = generate_otfdm(bits, scheme, layout, filt, grid, rng)

        from otfdm import modulate

        data = modulate(bits, scheme)
        spectrum = np.fft.fft(data)
        mapped = np.zeros(192, dtype=complex)
        mapped[(np.arange(48) - 24) % 192] = spectrum
        body = np.fft.ifft(mapped) * (192 / 48)
        classic = np.concatenate([body[-12:], body])
        np.testing.assert_allclose(time, classic, atol=1e-12)

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

    @pytest.mark.parametrize("bad", [0.7, float("nan")])
    def test_non_integer_bits_raise(self, bad):
        # not truncated to bit 0 by a cast before the check
        scheme, layout, filt, grid = self._setup()
        bits = np.full(layout.data_len * scheme.bits_per_symbol, bad)
        with pytest.raises(ValueError, match="0 or 1"):
            generate_otfdm(bits, scheme, layout, filt, grid, SeededRng(1, 0))


def test_write_waveform_roundtrip(tmp_path):
    scheme = MOD_SCHEMES["QPSK"]
    layout = layout_for("QPSK", 240)
    filt = filter_for("SQRC", 240, 5.0)
    grid = grid_for(240, filt.excess)
    rng = SeededRng(14, 0)
    time, *_ = generate_otfdm(rng.bits(layout.data_len * 2), scheme, layout,
                              filt, grid, rng)
    path = tmp_path / "wave.bin"
    write_waveform(path, time, scheme, layout, filt, grid, seed_info="14/0")

    raw = np.fromfile(path, dtype="<f8")
    back = raw[0::2] + 1j * raw[1::2]
    np.testing.assert_array_equal(back, time)

    header = (tmp_path / "wave.bin.hdr").read_text()
    for key in ("format=interleaved_float64_le", "alloc_size=240",
                "rs_len=", "seed=14/0"):
        assert key in header


@pytest.mark.parametrize("name,kind,rs_root", [
    ("QPSK", "SQRC", "1"), ("QAM64", "TAPS2", "1"), ("QAM16", "TAPS3", "1"),
    ("QPSK", "NONE", "1"), ("PI2_BPSK", "NONE", None),
    ("PI2_BPSK", "TAPS2", None), ("PI2_BPSK", "TAPS3", None)])
def test_write_waveform_header_names_filter_and_rs(tmp_path, name, kind,
                                                   rs_root):
    # a Zadoff-Chu RS is named by its root; a pi/2-BPSK RS is drawn and has
    # none; the filter line uses the config's own filter_kind name
    cfg = ExperimentConfig(scheme=name, alloc_size=120, filter_kind=kind)
    scheme, layout, filt, grid = cfg.resolve()
    rng = SeededRng(3, 0)
    time, *_ = generate_otfdm(rng.bits(layout.data_len * scheme.bits_per_symbol),
                              scheme, layout, filt, grid, rng)
    write_waveform(tmp_path / "wave.bin", time, scheme, layout, filt, grid)
    lines = (tmp_path / "wave.bin.hdr").read_text().splitlines()
    entries = dict(line.split("=", 1) for line in lines)
    assert (entries["scheme"], entries["filter"]) == (name, kind)
    assert entries.get("rs_root") == rs_root


# generate_otfdm's arrays, in the order it returns them
SYMBOL_ARRAYS = ("time_samples", "rs_core", "data_symbols", "ars_symbols")


def _stage_outputs(sym, layout, filt):
    """(multiplexed, shaped) rebuilt from the symbol's arrays by the public
    stage calls."""
    _, rs_core, data, ars = sym
    multiplexed = multiplex_symbol(data, build_rs_block(rs_core, layout), ars,
                                   layout)
    return multiplexed, precode_extend_shape(multiplexed, filt)


def _assert_same_bytes(got, want, name):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


def _assert_same_symbol(sym, ref):
    assert len(sym) == len(ref) == len(SYMBOL_ARRAYS)
    for name, got, want in zip(SYMBOL_ARRAYS, sym, ref):
        _assert_same_bytes(got, want, name)


def _assert_matches_direct(scheme, layout, filt, grid, seed):
    """generate_otfdm equals the uncached chain to the bit, and leaves its
    stream where the chain leaves it."""
    rng, rng_ref = SeededRng(seed, 3), SeededRng(seed, 3)
    bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
    rng_ref.bits(bits.size)
    sym = generate_otfdm(bits, scheme, layout, filt, grid, rng)
    ref, multiplexed, shaped = generate_otfdm_direct(bits, scheme, layout, filt,
                                                     grid, rng_ref)
    _assert_same_symbol(sym, ref)
    for name, got, want in zip(("multiplexed", "shaped"),
                               _stage_outputs(sym, layout, filt),
                               (multiplexed, shaped)):
        _assert_same_bytes(got, want, name)
    assert rng._gen.bit_generator.state == rng_ref._gen.bit_generator.state


def _even_ars(name, alloc, pct):
    return ExperimentConfig(scheme=name, alloc_size=alloc, ars_pct=pct).ars_len()


class TestMatchesDirectChain:
    """The transmitter gives the uncached chain's symbol (oracles) to the bit
    on every scheme, layout shape and filter family, so building layout
    constants once changes no sample and no draw."""

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    @pytest.mark.parametrize("ars_pct", [0.0, 2.0])
    def test_every_scheme_with_and_without_ars(self, name, ars_pct):
        scheme = MOD_SCHEMES[name]
        layout = layout_for(name, 240, _even_ars(name, 240, ars_pct))
        filt = filter_for("SQRC", 240, 5.0)
        grid = grid_for(240, filt.excess)
        for seed in range(3):
            _assert_matches_direct(scheme, layout, filt, grid, seed)

    @pytest.mark.parametrize("kind", ["SQRC", "NONE", "TAPS2", "TAPS3"])
    @pytest.mark.parametrize("name", ["PI2_BPSK", "QAM16"])
    def test_every_filter_family(self, kind, name):
        filt = filter_for(kind, 120, 10.0)
        grid = grid_for(120, filt.excess)
        layout = layout_for(name, 120)
        _assert_matches_direct(MOD_SCHEMES[name], layout, filt, grid, 7)

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    def test_one_sided_rs_only_and_data_only_layouts(self, name):
        m = 96
        filt = filter_for("SQRC", m, 5.0)
        grid = grid_for(m, filt.excess)
        layouts = (FrameLayout(12, 12, 0, m - 28, 4),
                   FrameLayout(m, 0, 0, 0, 0), FrameLayout(0, 0, 0, m, 0))
        for layout in layouts:
            _assert_matches_direct(MOD_SCHEMES[name], layout, filt, grid, 5)

    def test_repeated_calls_share_no_output_buffer(self):
        # the second symbol on a layout must not alter the first one's arrays
        scheme, filt = MOD_SCHEMES["QAM64"], filter_for("SQRC", 240, 5.0)
        layout, grid = layout_for("QAM64", 240, 6), grid_for(240, filt.excess)
        first = generate_otfdm(SeededRng(1, 0).bits(layout.data_len * 6),
                               scheme, layout, filt, grid, SeededRng(1, 1))
        kept = [array.copy() for array in first]
        generate_otfdm(SeededRng(2, 0).bits(layout.data_len * 6),
                       scheme, layout, filt, grid, SeededRng(2, 1))
        for name, array, before in zip(SYMBOL_ARRAYS, first, kept):
            np.testing.assert_array_equal(array, before, err_msg=name)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(MOD_SCHEMES)),
           alloc=st.integers(16, 400),
           rs_pct=st.one_of(st.none(), st.floats(0.0, 30.0)),
           ars_pct=st.floats(0.0, 10.0),
           ext_pct=st.floats(0.0, 20.0),
           kind=st.sampled_from(["SQRC", "TAPS2"]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_layouts_match(self, name, alloc, rs_pct, ars_pct, ext_pct,
                                  kind, seed):
        try:
            cfg = ExperimentConfig(scheme=name, alloc_size=alloc,
                                   rs_overhead_pct=rs_pct, ars_pct=ars_pct,
                                   extension_pct=ext_pct, filter_kind=kind)
            scheme, layout, filt, grid = cfg.resolve()
        except ValueError:
            assume(False)
        _assert_matches_direct(scheme, layout, filt, grid, seed)


def _split_cases():
    """(filter kind, alloc, excess) on odd and even allocations from 1 up:
    every kind at zero excess, where only the bin wrap splits the plan, and
    SQRC at the largest excess, alloc // 2, where the spectrum wraps sit
    next to the bin wrap (odd alloc) or on it (even alloc)."""
    cases = []
    for alloc in (*range(1, 14), 31, 32, 240, 241):
        cases += [("SQRC", alloc, 0), ("SQRC", alloc, alloc // 2),
                  ("NONE", alloc, 0)]
        cases += [(kind, alloc, 0) for kind, taps in (("TAPS2", 2), ("TAPS3", 3))
                  if alloc >= taps]
    return list(dict.fromkeys(cases))


class TestSliceRuns:
    """generate_otfdm extends, shapes and maps by slice runs of one plan per
    grid; wherever the runs split, it equals the uncached chain to the bit."""

    @pytest.mark.parametrize("kind, alloc, excess", _split_cases())
    def test_matches_direct_chain_at_every_split(self, kind, alloc, excess):
        filt = (make_sqrc_filter(alloc, excess) if kind == "SQRC"
                else filter_for(kind, alloc, 0.0))
        grid = grid_for(alloc, excess)
        layout = FrameLayout(alloc // 4, 0, 0, alloc - alloc // 4, 0)
        for seed in range(2):
            _assert_matches_direct(MOD_SCHEMES["QPSK"], layout, filt, grid, seed)

    @pytest.mark.parametrize("alloc, excess",
                             sorted({case[1:] for case in _split_cases()}))
    def test_runs_cover_the_extended_block_once(self, alloc, excess):
        grid = grid_for(alloc, excess)
        runs = transmitter._grid_runs(grid)
        assert 1 <= len(runs) <= 4

        def joined(column, size):
            return np.concatenate([np.arange(size)[run[column]] for run in runs])

        extended = joined(0, grid.extended_size)
        np.testing.assert_array_equal(extended, np.arange(grid.extended_size))
        np.testing.assert_array_equal(joined(1, alloc), (extended - excess) % alloc)
        np.testing.assert_array_equal(joined(2, grid.fft_size), grid.mapped_bins())


class TestLayoutConstants:
    """What depends only on the layout, filter or grid is built once and
    shared read-only, so no caller can alter another symbol through it."""

    def test_mapped_bins_cached_read_only(self):
        grid = WaveformGrid(alloc_size=16, excess=2, fft_size=64, cp_len=4)
        bins = grid.mapped_bins()
        assert WaveformGrid(16, 2, 64, 4).mapped_bins() is bins
        assert not bins.flags.writeable
        np.testing.assert_array_equal(bins, (np.arange(20) - 10) % 64)

    def test_zc_references_shared_read_only(self):
        scheme, filt = MOD_SCHEMES["QAM16"], filter_for("SQRC", 120, 5.0)
        layout, grid = layout_for("QAM16", 120, 4), grid_for(120, filt.excess)
        syms = [generate_otfdm(np.zeros(layout.data_len * 4, dtype=np.int64),
                               scheme, layout, filt, grid, SeededRng(s, 0))
                for s in (1, 2)]
        (time, rs_core, data, ars), (_, rs_core_2, _, ars_2) = syms
        assert rs_core is rs_core_2 and ars is ars_2
        assert not (rs_core.flags.writeable or ars.flags.writeable)
        assert time.flags.writeable and data.flags.writeable

    def test_pi2_bpsk_references_drawn_per_symbol(self):
        scheme, filt = MOD_SCHEMES["PI2_BPSK"], filter_for("SQRC", 120, 0.0)
        layout, grid = FrameLayout(32, 0, 0, 84, 4), grid_for(120, 0)
        rs_a, rs_b = (generate_otfdm(np.zeros(layout.data_len, dtype=np.int64),
                                     scheme, layout, filt, grid,
                                     SeededRng(s, 0))[1]
                      for s in (1, 2))
        assert not np.array_equal(rs_a, rs_b)
        assert rs_a.flags.writeable
