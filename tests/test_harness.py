import json
import math
import os
import re
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import oracles
import otfdm.harness as harness
from otfdm import MOD_SCHEMES, SeededRng, SingularReference
from otfdm.cli import main as cli_main
from otfdm.harness import (
    CSV_COLUMNS,
    MOD_PROFILES,
    ExperimentConfig,
    grid_for,
    layout_for,
    pulse_tail_fraction,
    run_ber,
    run_mse,
    run_overhead,
    run_papr,
    run_pulse_decay,
    sweep,
    window_for,
    write_csv,
)


class TestLayoutScaling:
    def test_nominal_alloc_reproduces_table(self):
        layout = layout_for("QAM64", 3120)
        assert (layout.rs_len, layout.rs_cp, layout.rs_cs) == (120, 90, 30)

    def test_desk_scale_proportions(self):
        layout = layout_for("QPSK", 240)
        share = layout.rs_block_len / 240
        assert share == pytest.approx(168 / 3120, abs=0.01)

    def test_pi2_pieces_are_even(self):
        for alloc in (120, 240, 480, 2976):
            layout = layout_for("PI2_BPSK", alloc)
            assert layout.rs_len % 2 == 0
            assert layout.rs_cp % 2 == 0
            assert layout.rs_cs % 2 == 0

    def test_explicit_rs_overhead(self):
        layout = layout_for("QPSK", 480, rs_overhead_pct=8.0)
        assert layout.rs_block_len == pytest.approx(0.08 * 480, abs=2)

    def test_zero_overhead_is_all_data(self):
        layout = layout_for("QPSK", 240, rs_overhead_pct=0.0)
        assert layout.rs_block_len == 0
        assert layout.data_len == 240

    def test_too_small_allocation_raises(self):
        with pytest.raises(ValueError):
            layout_for("QAM256", 12, rs_overhead_pct=100.0)

    def test_window_scales_with_core(self):
        layout = layout_for("PI2_BPSK", 240)
        assert 1 <= window_for("PI2_BPSK", layout) <= layout.rs_len

    def test_grid_is_alloc_multiple_with_4x_oversampling(self):
        grid = grid_for(240, 12)
        assert grid.fft_size % 240 == 0
        assert grid.fft_size >= 4 * (240 + 24)


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("channel", "RAYLEIGH"), ("channel", "awgn"),
        ("filter_kind", "RRC"), ("filter_kind", "TAPS4"),
    ])
    def test_unknown_channel_or_filter_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    def test_no_channel_named_none(self):
        # AWGN adds noise at snr_db; snr_db=inf is the noiseless link
        with pytest.raises(ValueError,
                           match=r"channel 'NONE'.*AWGN.*snr_db=inf"):
            ExperimentConfig(channel="NONE")

    @pytest.mark.parametrize("kwargs, field", [
        (dict(channel="HST", speed_kmh=0.0), "speed_kmh"),
        (dict(channel="HST", speed_kmh=-10.0), "speed_kmh"),
        (dict(channel="TDLC", speed_kmh=-1.0), "speed_kmh"),
        (dict(channel="TDLC", delay_spread_ns=0.0), "delay_spread_ns"),
        (dict(channel="TDLC", delay_spread_ns=-300.0), "delay_spread_ns"),
        (dict(fc_ghz=0.0), "fc_ghz"),
        (dict(channel="HST", speed_kmh=500.0, fc_ghz=-7.0), "fc_ghz"),
        (dict(n_workers=0), "n_workers"),
        (dict(snr_db=()), "snr_db"),
        (dict(snr_db=(10.0, float("nan"))), "snr_db"),
        (dict(extension_pct=-1.0), "extension_pct"),
        (dict(extension_pct=101.0), "extension_pct"),
        (dict(gamma_sweep_pct=(0.0, 150.0)), "gamma_sweep_pct"),
        (dict(ars_pct=-2.0), "ars_pct"),
        (dict(ars_pct=100.0), "ars_pct"),
        (dict(rs_overhead_pct=-5.0), "rs_overhead_pct"),
        (dict(rs_overhead_pct=100.0), "rs_overhead_pct"),
        (dict(rs_sweep_pct=(5.0, -5.0)), "rs_sweep_pct"),
        (dict(snr_db=(10.0, float("-inf"))), "snr_db"),
        (dict(channel="HST", speed_kmh=500.0, scs_khz=-30.0), "scs_khz"),
        (dict(channel="HST", speed_kmh=500.0, scs_khz=0.0), "scs_khz"),
        (dict(scs_khz=float("inf")), "scs_khz"),
        (dict(channel="TDLC", speed_kmh=float("nan")), "speed_kmh"),
        (dict(channel="HST", speed_kmh=float("inf")), "speed_kmh"),
        (dict(channel="HST", speed_kmh=500.0, fc_ghz=float("inf")), "fc_ghz"),
        (dict(channel="TDLC", delay_spread_ns=float("nan")), "delay_spread_ns"),
        (dict(ridge=float("nan")), "ridge"),
        (dict(ridge=-0.1), "ridge"),
        (dict(tail_periods=-1), "tail_periods"),
        (dict(seed=-1), "seed"),
    ])
    def test_out_of_range_link_fields_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(snr_db=20.0), "snr_db"),
        (dict(snr_db="30"), "snr_db"),
        (dict(gamma_sweep_pct=5.0), "gamma_sweep_pct"),
        (dict(trials="10"), "trials"),
        (dict(genie_channel="false"), "genie_channel"),
        (dict(ars_correction=1), "ars_correction"),
        (dict(compare_baseline=None), "compare_baseline"),
        (dict(scheme=["QPSK"]), "scheme"),
    ])
    def test_bad_field_types_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(scheme="QAM256", alloc_size=8, rs_overhead_pct=99.0),
         "rs_overhead_pct = 99.0"),
        (dict(ars_pct=99.0), "rs_overhead_pct = None with ars_pct = 99.0"),
        # the profile's share fits, the 8% of run_mse's extension sweep not
        (dict(ars_pct=93.0, rs_sweep_pct=(5.0,)), "run_mse's fixed RS share"),
        (dict(ars_pct=93.0, rs_overhead_pct=5.0, rs_sweep_pct=(5.0, 8.0)),
         r"rs_sweep_pct\[1\] = 8.0"),
    ], ids=["rs_overhead_pct", "ars_pct", "mse_fixed_share", "rs_sweep_pct"])
    def test_impossible_layout_refused_when_built(self, kwargs, field):
        # a runner would raise layout_for's error only once it starts,
        # after a sweep's earlier configs have run
        with pytest.raises(ValueError, match=f"ExperimentConfig: {field}.*"
                                             "too small for the RS budget"):
            ExperimentConfig(**kwargs)


class TestDeterminism:
    def test_identical_config_identical_records(self):
        cfg = ExperimentConfig(scheme="QPSK", trials=200, seed=77,
                               rs_overhead_pct=8.0)
        a = run_papr(cfg)
        b = run_papr(cfg)
        assert [(r.metric, r.iv_value, r.value) for r in a] == [
            (r.metric, r.iv_value, r.value) for r in b
        ]

    def test_parallel_equals_serial(self):
        base = ExperimentConfig(scheme="QPSK", alloc_size=96, channel="TDLC",
                                delay_spread_ns=300.0, trials=40, seed=5,
                                rs_overhead_pct=10.0,
                                gamma_sweep_pct=(0.0, 10.0),
                                rs_sweep_pct=(10.0,))
        serial = run_mse(base)
        threaded = run_mse(ExperimentConfig(**{**base.__dict__,
                                               "n_workers": 4}))
        assert [r.value for r in serial] == [r.value for r in threaded]

    @pytest.mark.parametrize("kwargs", [
        dict(scheme="QAM64", channel="TDLC", speed_kmh=120.0, trials=3),
        dict(scheme="QAM256", channel="HST", speed_kmh=500.0, ars_pct=2.0,
             trials=8),
    ])
    def test_time_varying_parallel_csv_equals_serial(self, tmp_path, kwargs):
        base = dict(alloc_size=240, extension_pct=5.0, snr_db=(30.0,),
                    seed=21, **kwargs)
        paths = []
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.csv"
            write_csv(run_ber(ExperimentConfig(**base, n_workers=workers)), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_rerun_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(scheme="QPSK", trials=50, seed=9,
                               rs_overhead_pct=8.0,
                               gamma_sweep_pct=(0.0, 5.0))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep([cfg], ["pulse", "overhead"], p1)
        sweep([cfg], ["pulse", "overhead"], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count once, when numpy loads, so each
        # count needs a fresh process. The 300 ns profile has 28-sample
        # kernels, the length at which one whole-window product differed
        # in the last bit between one and two threads on AVX-512 kernels.
        script = textwrap.dedent("""
            import sys
            from otfdm.harness import ExperimentConfig, run_ber, run_mse, write_csv
            out = sys.argv[1]
            write_csv(run_ber(ExperimentConfig(
                scheme="QAM64", alloc_size=240, extension_pct=5.0,
                channel="TDLC", delay_spread_ns=300.0, speed_kmh=120.0,
                snr_db=(30.0,), trials=4, seed=3)), out + "-ber.csv")
            write_csv(run_mse(ExperimentConfig(
                scheme="QPSK", alloc_size=96, channel="TDLC",
                delay_spread_ns=1000.0, snr_db=(30.0,), rs_overhead_pct=8.0,
                gamma_sweep_pct=(0.0, 5.0), rs_sweep_pct=(8.0,), trials=4,
                seed=3)), out + "-mse.csv")
        """)
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                            "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = {"pinned": dict(env, OPENBLAS_NUM_THREADS="1"), "default": env}
        for name, run_env in runs.items():
            subprocess.run([sys.executable, "-c", script, str(tmp_path / name)],
                           env=run_env, check=True)
        for kind in ("ber", "mse"):
            pinned = (tmp_path / f"pinned-{kind}.csv").read_bytes()
            assert pinned == (tmp_path / f"default-{kind}.csv").read_bytes()


def test_benchmark_config_digests_are_pinned():
    # the benchmark compares every record's config_digest with stored ones
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digests = {name: [cfg.digest() for _, cfg in workloads.build(name, seed=1)]
               for name in workloads.WORKLOADS}
    assert digests == {
        "papr_qpsk": ["f3d69ad95aec"],
        "ber_awgn_qam64": ["b4460fa0d2a6"],
        "mse_tdlc_static": ["07765909e8c0"],
        "ber_mobility": ["63f50c1bfebe", "2ba1135a8cd7"],
    }


class TestChunking:
    """Runners that stack trials give the values of one trial at a time,
    whatever the chunking and the thread count."""

    @pytest.mark.parametrize("runner, oracle, kwargs", [
        ("ber", oracles.ber_values,
         dict(scheme="PI2_BPSK", ars_pct=2.0, ridge=1e-3, snr_db=(6.0, 12.0),
              trials=37)),
        ("ber", oracles.ber_values,
         dict(scheme="QPSK", filter_kind="TAPS3", ridge=0.1, channel="TDLC",
              delay_spread_ns=300.0, snr_db=(20.0,), trials=20)),
        ("ber", oracles.ber_values,
         dict(scheme="QAM16", genie_channel=True, channel="TDLC",
              speed_kmh=30.0, snr_db=(18.0,), trials=20)),
        ("ber", oracles.ber_values,
         dict(scheme="QAM64", compare_baseline=True, channel="TDLC",
              delay_spread_ns=300.0, snr_db=(24.0,), trials=20)),
        ("ber", oracles.ber_values,
         dict(scheme="QAM256", channel="HST", speed_kmh=500.0, ars_pct=2.0,
              ars_correction=False, snr_db=(30.0,), trials=20)),
        ("mse", oracles.mse_values,
         dict(scheme="QPSK", channel="TDLC", delay_spread_ns=300.0,
              rs_overhead_pct=8.0, gamma_sweep_pct=(0.0, 10.0),
              rs_sweep_pct=(5.0, 12.0), trials=37)),
        ("papr", oracles.papr_values,
         dict(scheme="QPSK", rs_overhead_pct=8.0, trials=37)),
        # the two-symbol baseline frame through one time-varying channel
        ("ber", oracles.ber_values,
         dict(scheme="QAM64", compare_baseline=True, channel="TDLC",
              speed_kmh=120.0, snr_db=(30.0,), trials=20)),
        ("ber", oracles.ber_values,
         dict(scheme="QAM256", compare_baseline=True, channel="HST",
              speed_kmh=500.0, ars_pct=2.0, snr_db=(30.0,), trials=20)),
        # the 1% tail the quantile reads (10201 values of the shaped body)
        # is larger than one chunk's 16 x 600 values
        ("papr", oracles.papr_values,
         dict(scheme="QPSK", alloc_size=120, rs_overhead_pct=8.0, trials=1700)),
    ])
    def test_records_equal_one_trial_at_a_time(self, tmp_path, runner, oracle,
                                               kwargs):
        paths = []
        for workers in (1, 3):
            cfg = ExperimentConfig(seed=12, n_workers=workers, **kwargs)
            records = {"ber": run_ber, "mse": run_mse, "papr": run_papr}[
                runner](cfg)
            paths.append(tmp_path / f"w{workers}.csv")
            write_csv(records, paths[-1])
        assert [r.value for r in records] == oracle(cfg)
        assert paths[0].read_bytes() == paths[1].read_bytes()


    def test_threads_hold_a_bounded_number_of_chunks(self, monkeypatch):
        submitted = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)
        bound = harness.CHUNKS_IN_FLIGHT_PER_WORKER * 3
        chunks = [range(lo, min(lo + 16, 200)) for lo in range(0, 200, 16)]
        results = harness._chunk_results(list, 200, 3)
        assert next(results) == list(chunks[0])
        assert submitted == chunks[:bound]
        assert [list(c) for c in chunks[1:]] == list(results)
        assert submitted == chunks
        # closing early submits nothing more
        submitted.clear()
        results = harness._chunk_results(list, 200, 3)
        next(results)
        results.close()
        assert submitted == chunks[:bound]


class TestOncePerRunnerCall:
    def test_config_digest_computed_once(self, monkeypatch):
        calls = []
        digest = ExperimentConfig.digest
        monkeypatch.setattr(ExperimentConfig, "digest",
                            lambda cfg: calls.append(cfg) or digest(cfg))
        cfg = ExperimentConfig(scheme="QPSK", trials=3, seed=2,
                               rs_overhead_pct=8.0, snr_db=(10.0,),
                               compare_baseline=True)
        for runner in (run_papr, run_mse, run_ber, run_pulse_decay,
                       run_overhead):
            calls.clear()
            records = runner(cfg)
            assert len(calls) == 1
            assert {r.config_digest for r in records} == {digest(cfg)}

    def test_pulse_decay_builds_one_filter_per_point(self, monkeypatch):
        calls = []
        make = harness.make_sqrc_filter
        monkeypatch.setattr(harness, "make_sqrc_filter",
                            lambda *args: calls.append(args) or make(*args))
        run_pulse_decay(ExperimentConfig(scheme="QPSK",
                                         gamma_sweep_pct=(0.0, 5.0, 10.0)))
        assert len(calls) == 3

    @pytest.mark.parametrize("kwargs, trials, calls", [
        # HST and AWGN draw nothing: one realization per chunk of 16 trials
        (dict(channel="HST", speed_kmh=500.0), 40, ("hst_realization", 3)),
        (dict(channel="AWGN"), 20, ("flat_realization", 2)),
        # TDL-C fading is drawn per trial, static or not
        (dict(channel="TDLC", speed_kmh=120.0), 5, ("tdlc_realization", 5)),
        (dict(channel="TDLC"), 20, ("tdlc_realization", 20)),
    ])
    def test_channel_realized_per_chunk(self, monkeypatch, kwargs, trials,
                                        calls):
        name, count = calls
        made = []
        make = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, **k: made.append(a) or make(*a, **k))
        run_ber(ExperimentConfig(scheme="QAM64", alloc_size=240,
                                 extension_pct=5.0, trials=trials, seed=4,
                                 snr_db=(30.0,), **kwargs))
        assert len(made) == count

    @pytest.mark.parametrize("runner, kwargs, filters", [
        # one resolve per sweep point
        (run_mse, dict(gamma_sweep_pct=(0.0, 5.0, 10.0),
                       rs_sweep_pct=(5.0, 8.0, 12.0)), 6),
        # the configured waveform and the baseline, whatever the SNRs
        (run_ber, dict(compare_baseline=True, snr_db=(6.0, 12.0, 18.0)), 2),
    ])
    def test_filters_built_once(self, monkeypatch, runner, kwargs, filters):
        calls = []
        make = harness.make_sqrc_filter
        monkeypatch.setattr(harness, "make_sqrc_filter",
                            lambda *args: calls.append(args) or make(*args))
        runner(ExperimentConfig(scheme="QPSK", trials=20, seed=3,
                                rs_overhead_pct=8.0, n_workers=3, **kwargs))
        assert len(calls) == filters


class TestPapr:
    def test_warning_below_trial_floor(self):
        cfg = ExperimentConfig(scheme="QPSK", trials=100, seed=1,
                               rs_overhead_pct=8.0)
        records = run_papr(cfg)
        assert all(r.warning for r in records)

    def test_link_fields_ignored_with_warning(self):
        base = dict(scheme="QPSK", trials=40, seed=8, rs_overhead_pct=8.0)
        plain = run_papr(ExperimentConfig(**base))
        linked = run_papr(ExperimentConfig(**base, channel="TDLC",
                                           speed_kmh=120.0, snr_db=(0.0,)))
        assert [r.value for r in linked] == [r.value for r in plain]
        assert all("transmit-only" in r.warning for r in linked)
        assert not any("transmit-only" in r.warning for r in plain)

    def test_ccdf_curve_monotone(self):
        cfg = ExperimentConfig(scheme="QPSK", trials=300, seed=2,
                               rs_overhead_pct=8.0)
        curve = [r.value for r in run_papr(cfg) if r.metric == "papr_ccdf"]
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_reduction_to_baseline_when_unshaped(self):
        # with no RS, no excess and no shaping the waveform is the baseline;
        # quantiles differ only by Monte-Carlo noise on different bits
        cfg = ExperimentConfig(scheme="QPSK", trials=3000, seed=3,
                               extension_pct=0.0, filter_kind="NONE",
                               rs_overhead_pct=0.0)
        gain = [r for r in run_papr(cfg) if r.metric == "papr_gain_db"][0]
        assert abs(gain.value) < 0.05


class TestPulseDecay:
    def test_ignored_filter_kind_is_warned(self):
        sqrc = run_pulse_decay(ExperimentConfig(gamma_sweep_pct=(5.0,)))
        taps = run_pulse_decay(ExperimentConfig(filter_kind="TAPS2",
                                                gamma_sweep_pct=(5.0,)))
        assert [r.value for r in taps] == [r.value for r in sqrc]
        assert [r.warning for r in sqrc] == [None]
        assert [r.warning for r in taps] == [
            "pulse decay uses the SQRC filter; filter_kind=TAPS2 was ignored"]

    def test_tail_fraction_is_zero_once_the_window_spans_the_pulse(self):
        # alloc 240 at 5% has a 1200-sample pulse: +-120 periods span it
        periods = (0, 4, 100, 119, 120, 200, 1000)
        fracs = [pulse_tail_fraction(240, 5.0, p) for p in periods]
        assert fracs[-3:] == [0.0, 0.0, 0.0]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        assert 0.0 < fracs[3] < fracs[0] <= 1.0

    def test_negative_tail_periods_raises(self):
        with pytest.raises(ValueError, match="tail_periods"):
            pulse_tail_fraction(240, 5.0, -1)


class TestMse:
    def test_noiseless_in_window_channel_hits_exactness_floor(self):
        cfg = ExperimentConfig(scheme="QPSK", alloc_size=96, channel="AWGN",
                               snr_db=(float("inf"),), trials=20, seed=13,
                               rs_overhead_pct=12.0, gamma_sweep_pct=(5.0,),
                               rs_sweep_pct=())
        values = [r.value for r in run_mse(cfg)]
        assert all(v < 1e-12 for v in values)

    def test_mse_decreases_with_rs_overhead(self):
        cfg = ExperimentConfig(scheme="QPSK", alloc_size=480, channel="TDLC",
                               delay_spread_ns=1000.0, snr_db=(30.0,),
                               trials=150, seed=14, extension_pct=5.0,
                               gamma_sweep_pct=(), rs_sweep_pct=(5.0, 12.0))
        values = [r.value for r in run_mse(cfg)]
        assert values[0] > values[1]

    @pytest.mark.parametrize("snr_db", [(), (20.0, 30.0)])
    def test_needs_exactly_one_snr(self, snr_db):
        # an empty snr_db is already refused when the config is built
        with pytest.raises(ValueError, match="one SNR"):
            run_mse(ExperimentConfig(snr_db=snr_db, trials=1))

    def test_empty_sweeps_rejected(self):
        cfg = ExperimentConfig(trials=1, gamma_sweep_pct=(), rs_sweep_pct=())
        with pytest.raises(ValueError, match="both empty"):
            run_mse(cfg)

    @pytest.mark.parametrize("runner, kwargs", [
        # the last sweep point's 2-sample ZC core has a spectral null
        (run_mse, dict(gamma_sweep_pct=(0.0,), rs_sweep_pct=(8.0, 5.0))),
        (run_ber, dict(rs_overhead_pct=5.0)),
    ])
    def test_rs_null_raises_before_the_first_trial(self, monkeypatch, runner,
                                                   kwargs):
        streams = []
        rng = harness.SeededRng
        monkeypatch.setattr(harness, "SeededRng",
                            lambda *a: streams.append(a) or rng(*a))
        cfg = ExperimentConfig(scheme="QPSK", alloc_size=96, trials=3, **kwargs)
        with pytest.raises(SingularReference):
            runner(cfg)
        assert streams == []

    @pytest.mark.parametrize("runner, kwargs, field", [
        (run_ber, dict(rs_overhead_pct=0.0), "rs_overhead_pct"),
        (run_ber, dict(scheme="PI2_BPSK", ridge=0.1, rs_overhead_pct=0.0),
         "rs_overhead_pct"),
        (run_mse, dict(rs_overhead_pct=0.0, rs_sweep_pct=()), "rs_overhead_pct"),
        (run_mse, dict(gamma_sweep_pct=(5.0,), rs_sweep_pct=(8.0, 0.0)),
         r"rs_sweep_pct\[1\]"),
    ])
    def test_layout_without_rs_refused_before_the_first_trial(
            self, monkeypatch, runner, kwargs, field):
        streams = []
        rng = harness.SeededRng
        monkeypatch.setattr(harness, "SeededRng",
                            lambda *a: streams.append(a) or rng(*a))
        cfg = ExperimentConfig(trials=3, **kwargs)
        with pytest.raises(ValueError, match=field + " = 0 .*without RS.*"
                                             "nothing to estimate"):
            runner(cfg)
        assert streams == []

    @pytest.mark.parametrize("scheme", ["QPSK", "QAM64"])
    def test_checked_reference_is_the_one_sent(self, monkeypatch, scheme):
        checked = []
        monkeypatch.setattr(harness, "check_reference",
                            lambda core, *a: checked.append(core))
        cfg = ExperimentConfig(scheme=scheme, trials=1, snr_db=(30.0,))
        run_ber(cfg)
        _, layout, filt, grid = cfg.resolve()
        frame = ((layout, filt, grid),)
        ((_, _, rs_core, _, _),) = harness.transmit_frame(
            frame, MOD_SCHEMES[scheme], SeededRng(cfg.seed, 0))
        assert len(checked) == 1
        assert np.array_equal(checked[0], rs_core)


class TestBer:
    def test_genie_awgn_is_clean_at_high_snr(self):
        cfg = ExperimentConfig(scheme="QPSK", alloc_size=96, snr_db=(25.0,),
                               trials=50, seed=4, genie_channel=True,
                               extension_pct=0.0, rs_overhead_pct=10.0)
        records = run_ber(cfg)
        ber = [r for r in records if r.metric == "ber"][0]
        assert ber.value == 0.0

    def test_ber_monotone_in_snr(self):
        cfg = ExperimentConfig(scheme="QAM16", alloc_size=96,
                               snr_db=(6.0, 10.0, 14.0), trials=150, seed=6,
                               extension_pct=0.0, rs_overhead_pct=10.0)
        bers = [r.value for r in run_ber(cfg) if r.metric == "ber"]
        n_bits = 150 * (96 - 10) * 4
        for lo, hi in zip(bers, bers[1:]):
            sigma = np.sqrt(max(lo, 1e-9) * (1 - min(lo, 1.0)) / n_bits)
            assert hi <= lo + 3 * sigma

    def test_baseline_records_emitted(self):
        cfg = ExperimentConfig(scheme="QPSK", alloc_size=96, snr_db=(15.0,),
                               trials=30, seed=7, compare_baseline=True,
                               extension_pct=0.0, rs_overhead_pct=10.0)
        metrics = {r.metric for r in run_ber(cfg)}
        assert {"ber", "evm_db", "ber_baseline", "evm_db_baseline"} <= metrics

    @pytest.mark.parametrize("runner, kwargs", [
        (run_ber, dict(ridge=0.0)),
        (run_ber, dict(ridge=1e-3, compare_baseline=True)),
        (run_ber, dict(genie_channel=True, compare_baseline=True)),
        (run_mse, dict(ridge=0.0)),
        (run_mse, dict(ridge=0.0, genie_channel=True)),
    ])
    def test_pi2_bpsk_unregularized_rs_division_refused(self, runner, kwargs):
        # random pi/2-BPSK RS cores can have exact spectral nulls, so these
        # unregularized divisions would fail mid-run or pool a NaN EVM
        cfg = ExperimentConfig(scheme="PI2_BPSK", ars_pct=2.0, snr_db=(6.0,),
                               trials=37, seed=11, **kwargs)
        with pytest.raises(ValueError, match="PI2_BPSK.*ridge"):
            runner(cfg)

    def test_pi2_bpsk_genie_needs_no_ridge(self):
        cfg = ExperimentConfig(scheme="PI2_BPSK", genie_channel=True,
                               snr_db=(20.0,), trials=4, seed=11)
        assert [r.metric for r in run_ber(cfg)] == ["ber", "evm_db"]

    @pytest.mark.parametrize("power, evm", [(np.nan, None), (0.0, -np.inf)])
    def test_pooled_evm_policy(self, monkeypatch, power, evm):
        data_errors = harness._data_errors

        def with_error_power(*args):
            errors, bits, _, ref_pow = data_errors(*args)
            return errors, bits, np.full(len(bits), power), ref_pow

        monkeypatch.setattr(harness, "_data_errors", with_error_power)
        cfg = ExperimentConfig(scheme="QPSK", alloc_size=96, snr_db=(15.0,),
                               trials=5, seed=7, compare_baseline=True,
                               rs_overhead_pct=10.0)
        if evm is None:
            with pytest.raises(ValueError, match="finite"):
                run_ber(cfg)
        else:
            assert [r.value for r in run_ber(cfg)
                    if r.metric.startswith("evm")] == [evm, evm]


class TestAwgnAnchors:
    """The absolute scale of the estimator MSE and of the genie EVM on AWGN
    against their analytic values (`oracles.mse_awgn_oracle`,
    `oracles.genie_evm_awgn_oracle`): each record lies within Z standard
    errors of the mean over TRIALS trials at SEED, the standard error being
    the oracle's per-trial standard deviation over sqrt(TRIALS). SQRC
    filters only: on a tap filter the ridge enters the formula, and that
    is not derived here."""

    TRIALS, SEED, Z = 1000, 3, 4.0

    @pytest.mark.parametrize("scheme, alloc, ext, rs, snr_db", [
        ("QPSK", 240, 5.0, 8.0, 10.0),
        ("QAM16", 240, 0.0, 5.0, 0.0),
        ("QPSK", 240, 10.0, 12.0, 10.0),
        ("QAM64", 480, 10.0, 12.0, 20.0),
    ])
    def test_estimator_mse(self, scheme, alloc, ext, rs, snr_db):
        cfg = ExperimentConfig(scheme=scheme, alloc_size=alloc,
                               extension_pct=ext, rs_overhead_pct=rs,
                               snr_db=(snr_db,), trials=self.TRIALS,
                               seed=self.SEED, gamma_sweep_pct=(ext,),
                               rs_sweep_pct=())
        (record,) = run_mse(cfg)
        mean, sd = oracles.mse_awgn_oracle(cfg, ext, rs, snr_db)
        assert abs(record.value - mean) <= self.Z * sd / math.sqrt(self.TRIALS)

    @pytest.mark.parametrize("scheme, ext, snr_db", [
        ("QPSK", 0.0, 10.0), ("QAM64", 5.0, 20.0), ("QAM256", 10.0, 20.0)])
    def test_genie_evm_is_minus_the_snr(self, scheme, ext, snr_db):
        # compared as a power ratio, where the standard error is linear
        cfg = ExperimentConfig(scheme=scheme, extension_pct=ext,
                               snr_db=(snr_db,), genie_channel=True,
                               trials=self.TRIALS, seed=self.SEED)
        evm_db = [r.value for r in run_ber(cfg) if r.metric == "evm_db"][0]
        _, layout, _, _ = cfg.resolve()
        ratio, sd = oracles.genie_evm_awgn_oracle(MOD_SCHEMES[scheme],
                                                  layout.data_len, snr_db)
        assert ratio == pytest.approx(10.0 ** (-snr_db / 10.0))
        assert (abs(10.0 ** (evm_db / 10.0) - ratio)
                <= self.Z * sd / math.sqrt(self.TRIALS))


class TestSweepCsv:
    def test_schema_and_row_count(self, tmp_path):
        cfg = ExperimentConfig(scheme="QPSK", gamma_sweep_pct=(0.0, 5.0),
                               trials=10, seed=8, rs_overhead_pct=8.0)
        path = tmp_path / "out.csv"
        records = sweep([cfg], ["pulse"], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(records) == 1 + 2

    def test_table_overheads(self):
        expected = {"PI2_BPSK": 4.9, "QPSK": 5.4, "QAM16": 7.0,
                    "QAM64": 12.7, "QAM256": 13.5}
        for name, target in expected.items():
            prof = MOD_PROFILES[name]
            cfg = ExperimentConfig(scheme=name, alloc_size=prof.ref_alloc,
                                   extension_pct=prof.extension_pct,
                                   trials=1, seed=1)
            rec = run_overhead(cfg)[0]
            assert round(rec.value, 1) == target

    def test_unwritable_path_raises(self, tmp_path):
        cfg = ExperimentConfig(trials=1, seed=1)
        with pytest.raises(OSError):
            write_csv(run_overhead(cfg), tmp_path / "missing" / "out.csv")

    def test_empty_sweep_raises(self, tmp_path):
        with pytest.raises(ValueError):
            sweep([], ["overhead"], tmp_path / "x.csv")
        with pytest.raises(ValueError):
            sweep([ExperimentConfig()], ["nope"], tmp_path / "x.csv")


class TestCli:
    def test_tx_writes_waveform_and_header(self, tmp_path):
        out = tmp_path / "wave.bin"
        code = cli_main(["tx", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert out.exists() and out.with_suffix(".bin.hdr").exists()

    def test_tx_verbose_prints_receiver_diagnostics(self, tmp_path, capsys):
        # one line per stage, in chain order; eq_ars only with tail pilots
        cfg_path = tmp_path / "ars.json"
        cfg_path.write_text(json.dumps({"ars_pct": 2.0}))
        stages = ["demapped", "folded", "channel_estimate", "eq_rs_core",
                  "eq_data"]
        for extra, ars_names in (([], []), (["--config", str(cfg_path)],
                                            ["eq_ars"])):
            code = cli_main(["tx", "--out", str(tmp_path / "wave.bin"), "-v",
                             "--seed", "4", *extra])
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith("wrote ")
            names = [line.split("[", 1)[0].split(":", 1)[0]
                     for line in lines[1:]]
            assert names == stages + ars_names + ["phase_step"]
            assert lines[-1].endswith(" rad/sample")

    @pytest.mark.parametrize("cfg, needle", [
        ({"rs_overhead_pct": 0}, "rs_overhead_pct = 0"),
        ({"scheme": "PI2_BPSK"}, "PI2_BPSK.*ridge"),
    ])
    def test_tx_verbose_refuses_what_the_runners_refuse(self, tmp_path, capsys,
                                                        cfg, needle):
        # -v estimates the channel, so it takes the runners' estimator rule
        # and refuses before anything is written; plain tx has no estimator
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "wave.bin"
        code = cli_main(["tx", "--out", str(out), "-v", "--config",
                         str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert re.search(needle, err)
        assert not out.exists() and not out.with_suffix(".bin.hdr").exists()
        assert cli_main(["tx", "--out", str(out), "--config",
                         str(cfg_path)]) == 0
        assert out.exists()

    def test_metric_command_writes_csv(self, tmp_path):
        cfg = {"scheme": "QPSK", "trials": 20, "rs_overhead_pct": 8.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "papr.csv"
        code = cli_main(["papr", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "5"])
        assert code == 0
        header = out.read_text().split("\n", 1)[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_metric_command_runs_every_entry(self, tmp_path, capsys):
        cfgs = [{"scheme": "QPSK"}, {"scheme": "QAM64", "alloc_size": 480}]
        cfg_path = tmp_path / "two.json"
        cfg_path.write_text(json.dumps(cfgs))
        out = tmp_path / "overhead.csv"
        assert cli_main(["overhead", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 records to {out}\n"
        rows = out.read_text().strip().split("\n")[1:]
        assert [r.split(",")[CSV_COLUMNS.index("scheme")] for r in rows] == [
            "QPSK", "QAM64"]
        assert cli_main(["overhead", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out.split("\n")[:2] == [
            "overhead_pct alloc_size=240 -> 10.4167",
            "overhead_pct alloc_size=480 -> 12.7083"]

    @pytest.mark.parametrize("text, count", [("[]", 0),
                                             ('[{}, {"seed": 2}]', 2)])
    def test_tx_needs_exactly_one_entry(self, tmp_path, capsys, text, count):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "wave.bin"
        assert cli_main(["tx", "--out", str(out), "--config",
                         str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"tx needs exactly one config entry, got {count}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_sweep_command(self, tmp_path):
        cfgs = [{"scheme": s, "alloc_size": MOD_PROFILES[s].ref_alloc,
                 "extension_pct": MOD_PROFILES[s].extension_pct, "trials": 1}
                for s in MOD_PROFILES]
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfgs))
        out = tmp_path / "sweep.csv"
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--metrics", "overhead"])
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        values = sorted(round(float(r.split(",")[7]), 1) for r in rows)
        assert values == [4.9, 5.4, 7.0, 12.7, 13.5]

    def test_sweep_prints_record_warnings(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scheme": "QPSK", "trials": 20,
                                        "rs_overhead_pct": 8.0}))
        code = cli_main(["sweep", "--config", str(cfg_path), "--out",
                         str(tmp_path / "sweep.csv"), "--metrics", "papr"])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: trials=20 below 1e4" in err
        assert err.count("warning:") == 1

    def test_bad_config_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scheme": "NOT_A_SCHEME"}')
        out = tmp_path / "never.csv"
        code = cli_main(["papr", "--config", str(bad), "--out", str(out)])
        assert code != 0
        assert not out.exists()

    def test_bad_field_type_is_an_error_not_a_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"gamma_sweep_pct": 5}')
        code = cli_main(["pulse", "--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "otfdm: error:" in err and "gamma_sweep_pct" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, needle", [
        ('{"bogus": 1}', "bogus"),
        ('[{"trials": 1}, {"trails": 1}]', "entry 1: unknown field(s) trails"),
        ("[1, 2]", "entry 0 is not a JSON object"),
        ('"QPSK"', "entry 0 is not a JSON object"),
        ("[]", "empty config list"),
        ('{"scheme": ["QPSK"]}', "scheme"),
    ])
    def test_malformed_config_is_an_error_not_a_traceback(self, tmp_path,
                                                          capsys, text, needle):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = cli_main(["pulse", "--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "otfdm: error:" in err and needle in err
        assert "Traceback" not in err
