import json

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
    ])
    def test_out_of_range_link_fields_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(snr_db=20.0), "snr_db"),
        (dict(snr_db="30"), "snr_db"),
        (dict(gamma_sweep_pct=5.0), "gamma_sweep_pct"),
        (dict(trials="10"), "trials"),
    ])
    def test_bad_field_types_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
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

    @pytest.mark.parametrize("scheme", ["QPSK", "QAM64"])
    def test_checked_reference_is_the_one_sent(self, monkeypatch, scheme):
        checked = []
        monkeypatch.setattr(harness, "check_reference",
                            lambda core, *a: checked.append(core))
        cfg = ExperimentConfig(scheme=scheme, trials=1, snr_db=(30.0,))
        run_ber(cfg)
        _, layout, filt, grid = cfg.resolve()
        frame = ((layout, filt, grid),)
        (_, sent), = harness.transmit_frame(frame, MOD_SCHEMES[scheme],
                                            SeededRng(cfg.seed, 0))
        assert len(checked) == 1
        assert np.array_equal(checked[0], sent.rs_core)


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
        code = cli_main(["tx", "--out", str(tmp_path / "wave.bin"), "-v"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("channel_estimate[") for line in lines)
        assert any(line.startswith("phase_step: ") for line in lines)

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
