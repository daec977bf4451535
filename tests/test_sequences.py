import copy
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _reference_core_direct, fold_composite_direct, modulate_direct
from otfdm import (
    MOD_SCHEMES,
    PI2_BPSK,
    QPSK,
    FrameLayout,
    SeededRng,
    build_rs_block,
    make_rs_core,
    make_sqrc_filter,
    make_taps_filter,
    modulate,
    zadoff_chu,
)
from otfdm.harness import filter_for


class TestModulate:
    def test_pi2_bpsk_rotation(self):
        out = modulate([0, 0], PI2_BPSK)
        base = (1 + 1j) / np.sqrt(2)
        np.testing.assert_allclose(out, [base, 1j * base], atol=1e-15)

    def test_pi2_bpsk_consecutive_symbols_quarter_turn(self):
        rng = SeededRng(5, 0)
        out = modulate(rng.bits(200), PI2_BPSK)
        ratios = out[1:] * np.conj(out[:-1])
        assert np.allclose(np.abs(ratios.real), 0.0, atol=1e-12)

    def test_qpsk_gray_corner(self):
        np.testing.assert_allclose(
            modulate([0, 0], QPSK), [(1 + 1j) / np.sqrt(2)], atol=1e-15
        )

    def test_qam16_full_enumeration_unit_power(self):
        bits = [(i >> k) & 1 for i in range(16) for k in range(3, -1, -1)]
        syms = modulate(bits, MOD_SCHEMES["QAM16"])
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    def test_all_constellations_unit_power(self, name):
        scheme = MOD_SCHEMES[name]
        bps = scheme.bits_per_symbol
        bits = [
            (i >> k) & 1 for i in range(2**bps) for k in range(bps - 1, -1, -1)
        ]
        syms = modulate(bits, scheme)
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_gray_neighbors_differ_one_bit(self):
        # adjacent PAM levels on each axis differ in exactly one bit
        scheme = MOD_SCHEMES["QAM64"]
        bits = np.array(
            [[(i >> k) & 1 for k in range(5, -1, -1)] for i in range(64)]
        )
        syms = modulate(bits.ravel(), scheme)
        for axis in (np.real, np.imag):
            vals = axis(syms)
            for level_bits in (bits[:, 0::2], bits[:, 1::2]):
                seen = {}
                for v, row in zip(vals, [tuple(r) for r in level_bits]):
                    seen.setdefault(round(v, 9), set()).add(row)
                levels = sorted(seen)
                for lo, hi in zip(levels, levels[1:]):
                    pairs = {
                        sum(a != b for a, b in zip(x, y))
                        for x in seen[lo]
                        for y in seen[hi]
                    }
                    assert 1 in pairs

    def test_indivisible_bit_count_raises(self):
        with pytest.raises(ValueError):
            modulate([0, 1, 0], QPSK)

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    @pytest.mark.parametrize("bad", [2, -1, 3])
    def test_non_binary_bits_raise(self, name, bad):
        # a table index must never pick another symbol for a bad bit
        bits = np.zeros(2 * MOD_SCHEMES[name].bits_per_symbol, dtype=np.int64)
        bits[-1] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            modulate(bits, MOD_SCHEMES[name])

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    @pytest.mark.parametrize("bad", [0.7, 0.5, -0.2, float("nan"), float("inf")])
    def test_non_integer_bits_raise(self, name, bad):
        # an int cast would truncate 0.7 to bit 0 and warn on NaN; the
        # pytest config turns that RuntimeWarning into an error
        bits = np.zeros(2 * MOD_SCHEMES[name].bits_per_symbol)
        bits[0] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            modulate(bits, MOD_SCHEMES[name])

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.uint8])
    def test_exact_bits_of_any_dtype_give_the_int_symbols(self, name, dtype):
        scheme = MOD_SCHEMES[name]
        bits = SeededRng(22, 0).bits(40 * scheme.bits_per_symbol)
        want = modulate(bits, scheme)
        assert modulate(bits.astype(dtype), scheme).tobytes() == want.tobytes()
        assert modulate(bits.tolist(), scheme).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(MOD_SCHEMES))
    def test_matches_gray_formula_on_random_bits(self, name):
        scheme = MOD_SCHEMES[name]
        bits = SeededRng(21, 0).bits(600 * scheme.bits_per_symbol)
        got, want = modulate(bits, scheme), modulate_direct(bits, scheme)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["QPSK", "QAM16", "QAM64", "QAM256"])
    def test_output_is_a_fresh_writeable_array(self, name):
        scheme = MOD_SCHEMES[name]
        bits = np.zeros(2 * scheme.bits_per_symbol, dtype=np.int64)
        first = modulate(bits, scheme)
        first[:] = 0.0
        assert modulate(bits, scheme)[0] != 0.0


class TestZadoffChu:
    def test_direct_formula_length_three(self):
        out = zadoff_chu(1, 3)
        np.testing.assert_allclose(
            out, [1.0, np.exp(-2j * np.pi / 3), 1.0], atol=1e-14
        )

    @pytest.mark.parametrize("root,length", [(1, 7), (3, 11), (5, 139), (2, 63)])
    def test_constant_amplitude(self, root, length):
        np.testing.assert_allclose(
            np.abs(zadoff_chu(root, length)), 1.0, atol=1e-12
        )

    def test_flat_spectrum(self):
        mags = np.abs(np.fft.fft(zadoff_chu(1, 139)))
        assert mags.max() - mags.min() <= 1e-9

    def test_gcd_violation_raises(self):
        with pytest.raises(ValueError):
            zadoff_chu(3, 9)

    def test_extended_core_has_no_spectral_nulls(self):
        for l_r in (9, 10, 12, 72, 84, 108, 120, 132):
            core = make_rs_core(l_r, QPSK)
            assert np.abs(np.fft.fft(core)).min() > 0.5


class TestRsBlock:
    def test_two_sided_example(self):
        core = np.array([1, 2, 3, 4], dtype=complex)  # a,b,c,d
        layout = FrameLayout(rs_len=4, rs_cp=2, rs_cs=1, data_len=1)
        out = build_rs_block(core, layout)
        np.testing.assert_array_equal(out, [3, 4, 1, 2, 3, 4, 1])

    def test_no_cp_cs_is_core(self):
        core = np.arange(5, dtype=complex)
        layout = FrameLayout(rs_len=5, rs_cp=0, rs_cs=0, data_len=3)
        np.testing.assert_array_equal(build_rs_block(core, layout), core)

    def test_one_sided_repeats_core(self):
        # a block [c | c] read at offset s is the block with rs_cp = s and
        # rs_cs = rs_len - s around the core rolled by -s
        core = SeededRng(12, 0).complex_normal(7)
        for s in range(core.size + 1):
            layout = FrameLayout(rs_len=7, rs_cp=s, rs_cs=7 - s, data_len=4)
            np.testing.assert_array_equal(
                build_rs_block(np.roll(core, -s), layout),
                np.concatenate([core, core]),
            )

    def test_core_length_mismatch_raises(self):
        layout = FrameLayout(rs_len=4, rs_cp=1, rs_cs=1, data_len=2)
        with pytest.raises(ValueError):
            build_rs_block(np.ones(3, dtype=complex), layout)

    def test_invariant_violations_raise(self):
        with pytest.raises(ValueError):
            FrameLayout(rs_len=4, rs_cp=5, rs_cs=0, data_len=2)
        with pytest.raises(ValueError):
            FrameLayout(rs_len=4, rs_cp=0, rs_cs=5, data_len=2)
        with pytest.raises(ValueError):
            FrameLayout(rs_len=4, rs_cp=2, rs_cs=-1, data_len=2)

    def test_every_window_in_guard_range_is_core_rotation(self):
        rng = SeededRng(11, 0)
        core = rng.complex_normal(9)
        layout = FrameLayout(rs_len=9, rs_cp=4, rs_cs=3, data_len=8)
        block = build_rs_block(core, layout)
        for shift in range(-layout.rs_cp, layout.rs_cs + 1):
            start = layout.rs_cp + shift
            window = block[start : start + layout.rs_len]
            np.testing.assert_allclose(window, np.roll(core, -shift), atol=1e-15)


class TestSqrcFilter:
    def test_zero_excess_is_rectangular(self):
        filt = make_sqrc_filter(16, 0)
        np.testing.assert_array_equal(filt.weights, np.ones(16))

    def test_rolloff_boundary_values(self):
        # 5% extension at alloc 240: zero at the outermost excess bin, and
        # sqrt(1/2) at the allocation edge where the rolloff crosses over
        filt = make_sqrc_filter(240, 6)
        assert filt.weights[0] == pytest.approx(0.0, abs=1e-15)
        assert filt.weights[6] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert filt.weights[6 + 240] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("alloc", [48, 240])
    def test_fold_flatness_across_excess_range(self, alloc):
        for excess in range(alloc // 2 + 1):
            filt = make_sqrc_filter(alloc, excess)
            assert filt.fold_flatness_error() <= 1e-12

    def test_excess_above_half_raises(self):
        with pytest.raises(ValueError):
            make_sqrc_filter(48, 25)

    def test_refusal_states_the_fit_rule(self):
        # 100% of alloc 11 rounds to an excess of 6 > 11 // 2, while 100.4%
        # of alloc 240 rounds to 120 = 240 // 2 and fits
        with pytest.raises(ValueError, match=re.escape(
                "excess 6 outside [0, 5]; an extension of pct% has "
                "round(alloc_size * pct / 200) excess subcarriers per side, "
                "at most alloc_size // 2")):
            filter_for("SQRC", 11, 100.0)
        assert filter_for("SQRC", 240, 100.4).excess == 120

    @pytest.mark.parametrize("alloc, excess", [(12, 3), (240, 6), (240, 54),
                                               (480, 108)])
    def test_folded_square_matches_alias_sum(self, alloc, excess):
        # the oracle squares each weight with pow(), which can land one ulp
        # away from the exact square; a few ulps of one bound the difference
        filt = make_sqrc_filter(alloc, excess)
        ones = np.ones(alloc + 2 * excess)
        expected = fold_composite_direct(filt.weights, alloc, excess, ones).real
        np.testing.assert_allclose(filt.folded_square(), expected, rtol=0,
                                   atol=4 * np.finfo(float).eps)


def test_filter_is_an_immutable_value_compared_by_identity():
    weights = np.ones(16)
    filt = make_sqrc_filter(16, 0)
    for f in (filt, make_taps_filter([1.0, -1.0], 16)):
        with pytest.raises(ValueError, match="read-only"):
            f.weights[0] = 2.0
    twin = make_sqrc_filter(16, 0)
    assert filt == filt and filt != twin and len({filt, twin, filt}) == 2
    # the caller's array is copied, not frozen under the caller
    other = replace(filt, weights=weights)
    weights[0] = 2.0
    assert other.weights[0] == 1.0 and weights.flags.writeable


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda f: pickle.loads(pickle.dumps(f))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copied_filter_is_a_new_immutable_value(clone):
    filt = filter_for("SQRC", 240, 5.0)
    twin = clone(filt)
    assert twin is not filt and twin != filt
    assert (twin.excess, twin.kind) == (filt.excess, filt.kind)
    assert twin.weights.tobytes() == filt.weights.tobytes()
    assert not np.shares_memory(twin.weights, filt.weights)
    with pytest.raises(ValueError, match="read-only"):
        twin.weights[0] = 2.0


class TestTapsFilter:
    def test_two_tap_magnitude_response(self):
        filt = make_taps_filter([1.0, -1.0], 4)
        k = np.arange(4)
        expected = np.abs(1 - np.exp(-2j * np.pi * k / 4))
        expected /= np.sqrt(np.mean(expected**2))
        np.testing.assert_allclose(filt.weights, expected, atol=1e-12)

    def test_two_tap_dc_null_exact(self):
        filt = make_taps_filter([1.0, -1.0], 240)
        assert filt.weights[0] == 0.0

    def test_three_tap_band_edges_approach_zero(self):
        filt = make_taps_filter([-0.28, 1.0, -0.28], 240)
        w = filt.weights
        assert w[0] == w.min()
        assert w[0] < 0.35 * w.max()

    def test_unit_mean_square_gain(self):
        filt = make_taps_filter([-0.28, 1.0, -0.28], 64)
        assert np.mean(filt.weights**2) == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_tap_count_raises(self):
        with pytest.raises(ValueError):
            make_taps_filter([1.0], 16)
        with pytest.raises(ValueError):
            make_taps_filter([1.0, -1.0, 0.5, 0.1], 16)


@pytest.mark.parametrize("call, match", [
    (lambda: zadoff_chu(1, 0), "zadoff_chu: length must be >= 1"),
    (lambda: make_rs_core(-1, QPSK), "make_rs_core: length must be >= 0"),
    (lambda: make_sqrc_filter(0, 0), "make_sqrc_filter: alloc_size must be >= 1"),
    (lambda: make_taps_filter([1.0, -1.0], 1), "smaller than the tap count"),
], ids=["zadoff_chu", "make_rs_core", "make_sqrc_filter", "make_taps_filter"])
def test_length_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_make_rs_core_pi2_needs_rng():
    with pytest.raises(ValueError):
        make_rs_core(8, PI2_BPSK)
    core = make_rs_core(8, PI2_BPSK, rng=SeededRng(1, 0))
    np.testing.assert_allclose(np.abs(core), 1.0, atol=1e-12)


def test_zc_core_of_prime_length_is_the_zadoff_chu_sequence():
    np.testing.assert_array_equal(make_rs_core(31, QPSK), zadoff_chu(1, 31))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(MOD_SCHEMES)), length=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1))
def test_make_rs_core_equals_direct_rule(name, length, seed):
    # one rule for every scheme: the bits of the direct core, the same draws
    scheme = MOD_SCHEMES[name]
    rng, rng_ref = SeededRng(seed, 2), SeededRng(seed, 2)
    core = make_rs_core(length, scheme, rng)
    want = _reference_core_direct(length, scheme, rng_ref)
    assert core.dtype == want.dtype and core.tobytes() == want.tobytes()
    assert rng._gen.bit_generator.state == rng_ref._gen.bit_generator.state
    if name == "PI2_BPSK":
        with pytest.raises(ValueError, match="rng"):
            make_rs_core(length, scheme)


@settings(max_examples=300, deadline=None)
@given(alloc=st.integers(1, 4096), data=st.data())
def test_sqrc_fold_flat_for_any_alloc_and_excess(alloc, data):
    # criterion 1's bound, over the whole (alloc, excess) domain
    excess = data.draw(st.integers(0, alloc // 2), label="excess")
    assert make_sqrc_filter(alloc, excess).fold_flatness_error() <= 1e-12
