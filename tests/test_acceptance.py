"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.
"""

import time

import numpy as np
import pytest

from oracles import fold_composite_direct, qam_ber_exact
from otfdm import (
    MOD_SCHEMES,
    EstimatorConfig,
    FrameLayout,
    SeededRng,
    SingularReference,
    WaveformGrid,
    apply_channel,
    ars_phase_correct,
    build_rs_block,
    custom_realization,
    estimate_channel,
    evm_db,
    fold_spectrum,
    front_end,
    generate_otfdm,
    make_sqrc_filter,
    mmse_equalize,
    multiplex_symbol,
)
from otfdm.harness import (
    MOD_PROFILES,
    ExperimentConfig,
    filter_for,
    grid_for,
    layout_for,
    pulse_tail_fraction,
    run_ber,
    run_mse,
    run_papr,
    window_for,
)


def _report(num: int, name: str, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}: {detail} "
          f"({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_fold_flatness():
    t0 = time.time()
    worst = 0.0
    for alloc in (48, 240, 2400):
        for ext_pct in (0.0, 1.0, 5.0, 10.0, 25.0, 50.0):
            excess = int(round(alloc * ext_pct / 200.0))
            err = make_sqrc_filter(alloc, excess).fold_flatness_error()
            worst = max(worst, err)
    _report(1, "fold-flatness", worst <= 1e-12,
            f"max |fold - 1| = {worst:.2e} (tol 1e-12)", t0)


def test_criterion_02_noiseless_loopback():
    t0 = time.time()
    worst = -np.inf
    details = []
    for name, prof in MOD_PROFILES.items():
        scheme = MOD_SCHEMES[name]
        layout = layout_for(name, prof.ref_alloc)
        filt = filter_for("SQRC", prof.ref_alloc, prof.extension_pct)
        grid = grid_for(prof.ref_alloc, filt.excess)
        rng = SeededRng(1001, 0)
        bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
        tx, rs_core, data, _ = generate_otfdm(bits, scheme, layout, filt, grid,
                                              rng)
        folded = fold_spectrum(front_end(tx, grid), filt)
        est = estimate_channel(folded, filt, layout, rs_core,
                               EstimatorConfig(window_len=window_for(name, layout)))
        eq = mmse_equalize(folded, est, 0.0)
        evm = evm_db(eq[layout.data_start : layout.ars_start], data)
        worst = max(worst, evm)
        details.append(f"{name}={evm:.0f}")
    _report(2, "noiseless loopback", worst <= -80.0,
            f"worst EVM {worst:.1f} dB (tol -80); " + " ".join(details), t0)


def test_criterion_03_estimation_exactness():
    t0 = time.time()
    alloc = 48
    layout = FrameLayout(rs_len=12, rs_cp=8, rs_cs=4, data_len=24)
    est_cfg = EstimatorConfig(window_len=8)
    support = min(layout.rs_cp, est_cfg.window_len)
    scheme = MOD_SCHEMES["QPSK"]
    picker = np.random.default_rng(2024)
    worst = 0.0
    for case in range(100):
        excess = int(picker.integers(0, 6))
        filt = make_sqrc_filter(alloc, excess)
        grid = WaveformGrid(alloc, excess, 4 * alloc, cp_len=40)
        step = grid.fft_size // alloc
        n_taps = int(picker.integers(1, 4))
        delays = picker.choice(support, size=n_taps, replace=False)
        gains = picker.standard_normal(n_taps) + 1j * picker.standard_normal(n_taps)
        gains /= np.sqrt(np.sum(np.abs(gains) ** 2))
        rng = SeededRng(1003, case)
        bits = rng.bits(layout.data_len * 2)
        tx, rs_core, _, _ = generate_otfdm(bits, scheme, layout, filt, grid, rng)
        ch = custom_realization([(int(d) * step, g) for d, g in zip(delays, gains)])
        rx = apply_channel(tx, ch, rng)
        folded = fold_spectrum(front_end(rx, grid), filt)
        est = estimate_channel(folded, filt, layout, rs_core, est_cfg)
        bins = grid.first_subcarrier + np.arange(grid.extended_size)
        h_bins = np.zeros(grid.extended_size, dtype=complex)
        for d, g in zip(delays, gains):
            h_bins += g * np.exp(-2j * np.pi * bins * int(d) * step / grid.fft_size)
        truth = fold_composite_direct(filt.weights, alloc, excess, h_bins)
        worst = max(worst, float(np.max(np.abs(est - truth))))
    _report(3, "estimation exactness", worst <= 1e-8,
            f"worst |est - truth| = {worst:.2e} over 100 cases (tol 1e-8)", t0)


def test_criterion_04_pi2_bpsk_papr():
    t0 = time.time()
    cfg = ExperimentConfig(scheme="PI2_BPSK", alloc_size=240,
                           filter_kind="TAPS2", extension_pct=0.0,
                           trials=10_000, seed=1004)
    rec = [r for r in run_papr(cfg) if r.metric == "papr_db_at_ccdf"][0]
    _report(4, "pi/2-BPSK shaped PAPR", rec.value <= 2.0,
            f"PAPR at 1% CCDF = {rec.value:.3f} dB (tol <= 2.0)", t0)


def test_criterion_05_papr_gain_table():
    t0 = time.time()
    table = {
        "QPSK": (0.21, 0.47),
        "QAM16": (0.16, 0.28),
        "QAM64": (0.13, 0.23),
        "QAM256": (0.125, 0.21),
    }
    lines = []
    ok = True
    for name, targets in table.items():
        for ext_pct, target in zip((5.0, 10.0), targets):
            cfg = ExperimentConfig(scheme=name, alloc_size=240,
                                   extension_pct=ext_pct, rs_overhead_pct=8.0,
                                   trials=10_000, seed=1005)
            rec = [r for r in run_papr(cfg) if r.metric == "papr_gain_db"][0]
            good = abs(rec.value - target) <= 0.15
            ok = ok and good
            lines.append(f"{name}@{ext_pct:.0f}%={rec.value:.3f}(ref {target})")
    _report(5, "PAPR gain table", ok, " ".join(lines) + " (tol +-0.15)", t0)


def test_criterion_06_mse_monotone_in_extension():
    t0 = time.time()
    cfg = ExperimentConfig(scheme="QPSK", alloc_size=480, channel="TDLC",
                           delay_spread_ns=1000.0, speed_kmh=0.0,
                           snr_db=(30.0,), trials=500, seed=1006,
                           rs_overhead_pct=8.0,
                           gamma_sweep_pct=(0.0, 5.0, 10.0), rs_sweep_pct=())
    values = [r.value for r in run_mse(cfg) if r.iv_name == "gamma_pct"]
    ok = values[0] > values[1] > values[2]
    _report(6, "estimation MSE vs extension", ok,
            "MSE(0%)={:.3e} > MSE(5%)={:.3e} > MSE(10%)={:.3e}".format(*values),
            t0)


def test_criterion_07_pulse_tail_decay():
    t0 = time.time()
    fracs = [pulse_tail_fraction(240, pct, 4) for pct in (0.0, 5.0, 10.0, 20.0)]
    ok = all(a > b for a, b in zip(fracs, fracs[1:]))
    _report(7, "pulse tail decay",
            ok, "tail fractions " + " > ".join(f"{f:.2e}" for f in fracs), t0)


def test_criterion_08_ars_recovery():
    t0 = time.time()
    # part 1: exact recovery of injected per-sample phase ramps
    scheme = MOD_SCHEMES["QAM256"]
    layout = layout_for("QAM256", 240, ars_len=5)
    filt = filter_for("SQRC", 240, 5.0)
    grid = grid_for(240, filt.excess)
    rng = SeededRng(1008, 0)
    bits = rng.bits(layout.data_len * 8)
    _, rs_core, data, ars = generate_otfdm(bits, scheme, layout, filt, grid, rng)
    worst_step = 0.0
    for step in (1e-4, 1e-3, 1e-2):
        n = np.arange(layout.total_len)
        ramp = np.exp(1j * step * (n - (layout.rs_cp + layout.rs_len)))
        multiplexed = multiplex_symbol(data, build_rs_block(rs_core, layout),
                                       ars, layout)
        _, phase_step = ars_phase_correct(multiplexed * ramp, ars, layout)
        worst_step = max(worst_step, abs(phase_step - step))
    ramps_ok = worst_step < 1e-8

    # part 2: high-speed single-path channel, 30 dB SNR, 2% tail pilots
    base = dict(scheme="QAM256", alloc_size=240, extension_pct=5.0,
                ars_pct=2.0, channel="HST", speed_kmh=500.0, fc_ghz=7.0,
                scs_khz=30.0, snr_db=(30.0,), trials=200, seed=1088)
    corrected = run_ber(ExperimentConfig(**base, ars_correction=True))
    uncorrected = run_ber(ExperimentConfig(**base, ars_correction=False))
    evm_on = [r.value for r in corrected if r.metric == "evm_db"][0]
    evm_off = [r.value for r in uncorrected if r.metric == "evm_db"][0]
    gain = evm_off - evm_on
    ok = ramps_ok and gain >= 3.0
    _report(8, "ARS phase recovery", ok,
            f"ramp err {worst_step:.1e} (tol 1e-8); EVM {evm_off:.1f} -> "
            f"{evm_on:.1f} dB, gain {gain:.1f} dB (tol >= 3)", t0)


def test_criterion_09_regularized_ls():
    t0 = time.time()
    name = "PI2_BPSK"
    scheme = MOD_SCHEMES[name]
    layout = layout_for(name, 240)
    filt = filter_for("TAPS2", 240, 0.0)
    grid = grid_for(240, 0)
    rng = SeededRng(1009, 0)
    tx, rs_core, _, _ = generate_otfdm(rng.bits(layout.data_len), scheme, layout,
                                       filt, grid, rng)
    folded = fold_spectrum(front_end(tx, grid), filt)
    wl = window_for(name, layout)
    raised = False
    try:
        estimate_channel(folded, filt, layout, rs_core,
                         EstimatorConfig(window_len=wl, ridge=0.0))
    except SingularReference:
        raised = True
    truth = filt.folded_square().astype(complex)
    mses = []
    for ridge in (0.3162, 1.0, 3.162):
        est = estimate_channel(folded, filt, layout, rs_core,
                               EstimatorConfig(window_len=wl, ridge=ridge))
        mses.append(float(np.mean(np.abs(est - truth) ** 2)))
    finite = all(np.isfinite(m) for m in mses)
    _report(9, "regularized LS", raised and finite,
            f"ridge=0 raised={raised}; MSE at (0.3162, 1, 3.162) = "
            + ", ".join(f"{m:.3e}" for m in mses), t0)


def test_criterion_10_uncoded_substitute():
    t0 = time.time()
    print(
        "\nNOT REPRODUCED: coded block-error curves and the recommended-speed "
        "table depend on an unspecified NR LDPC chain and full 3GPP channel "
        "calibration; this library substitutes uncoded BER/EVM properties."
    )
    # substituted property 1: 16-QAM AWGN BER matches the analytic Gray-QAM
    # oracle within 3 sigma at 8/12/16 dB (genie channel knowledge)
    ok = True
    details = []
    for snr in (8.0, 12.0, 16.0):
        cfg = ExperimentConfig(scheme="QAM16", alloc_size=240,
                               extension_pct=0.0, rs_overhead_pct=0.0,
                               filter_kind="NONE", genie_channel=True,
                               snr_db=(snr,), trials=1400, seed=1010)
        rec = [r for r in run_ber(cfg) if r.metric == "ber"][0]
        noise_var = 10.0 ** (-snr / 10.0)
        expected = qam_ber_exact(4, noise_var)
        n_bits = cfg.trials * 240 * 4
        sigma = np.sqrt(expected * (1 - expected) / n_bits)
        good = abs(rec.value - expected) <= 3 * sigma
        ok = ok and good
        details.append(f"{snr:.0f}dB emp={rec.value:.2e} ref={expected:.2e} "
                       f"dev={abs(rec.value - expected) / sigma:.1f}s")

    # substituted property 2: BER monotone non-increasing in SNR per scheme
    # (flat channel with known response; estimation floors are out of scope)
    mono_ok = True
    for name in MOD_SCHEMES:
        filter_kind = "TAPS2" if name == "PI2_BPSK" else "SQRC"
        cfg = ExperimentConfig(scheme=name, alloc_size=240,
                               filter_kind=filter_kind, genie_channel=True,
                               extension_pct=MOD_PROFILES[name].extension_pct,
                               snr_db=(4.0, 8.0, 12.0, 16.0), trials=250,
                               seed=1011)
        bers = [r.value for r in run_ber(cfg) if r.metric == "ber"]
        scheme = MOD_SCHEMES[name]
        n_bits = cfg.trials * cfg.resolve()[1].data_len * scheme.bits_per_symbol
        for lo, hi in zip(bers, bers[1:]):
            sigma = np.sqrt(max(lo, 1.0 / n_bits) * (1 - min(lo, 1.0)) / n_bits)
            if hi > lo + 3 * sigma:
                mono_ok = False
                details.append(f"{name} not monotone: {bers}")
    _report(10, "uncoded substitute properties", ok and mono_ok,
            "; ".join(details) + "; monotonicity all schemes: "
            + ("ok" if mono_ok else "violated"), t0)
