import csv
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import otfdm.harness as harness
from otfdm import MOD_SCHEMES, DegenerateEqualizer, SeededRng, SingularReference
from otfdm.cli import main as cli_main
from otfdm.harness import (
    CSV_COLUMNS,
    MOD_PROFILES,
    ExperimentConfig,
    filter_for,
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
from otfdm.transmitter import effective_pulse


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
        # ints beyond the float range, which cannot be stored as floats
        (dict(speed_kmh=10**400), "speed_kmh"),
        (dict(snr_db=(10**400,)), "snr_db"),
    ])
    def test_bad_field_types_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**kwargs)

    def test_lists_and_ints_stored_as_tuples_and_floats(self):
        snrs = [30, 20.0]
        given = ExperimentConfig(snr_db=snrs, extension_pct=5, speed_kmh=3,
                                 gamma_sweep_pct=[0, 5], trials=4)
        want = ExperimentConfig(snr_db=(30.0, 20.0), extension_pct=5.0,
                                speed_kmh=3.0, gamma_sweep_pct=(0.0, 5.0),
                                trials=4)
        assert given == want and hash(given) == hash(want)
        assert given.digest() == want.digest()
        assert type(given.extension_pct) is float
        snrs.clear()
        assert given.snr_db == (30.0, 20.0) and len(run_ber(given)) == 4

    @pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_every_field_refuses_a_value_of_another_kind(self, field):
        # keyed by annotation, so a new field needs no entry of its own
        wrong = {
            "tuple": ["30", 30.0, [True], ["30"], None],
            "int": [True, 5.0, "5", None],
            "float": [True, "5", None, float("nan"), float("inf")],
            "float | None": [True, "5", float("nan"), float("-inf")],
            "bool": [1, 0, "false", None],
            "str": [1, None, ["QPSK"], "bogus"],
        }[field.type]
        for value in wrong:
            with pytest.raises(ValueError, match=rf"ExperimentConfig: (unknown )?"
                                                 rf"{field.name}\b"):
                ExperimentConfig(**{field.name: value})

    @pytest.mark.parametrize("field", [f for f in fields(ExperimentConfig)
                                       if f.type not in ("bool", "str")],
                             ids=lambda f: f.name)
    def test_every_number_field_stores_its_annotated_kind(self, field):
        # the default, or a valid share where the default is None
        canonical = 8.0 if field.default is None else field.default
        if field.type == "tuple":
            givens = [list(canonical), [int(v) for v in canonical],
                      [np.int64(v) for v in canonical]]
            kind = tuple
        else:
            givens = [int(canonical), np.int64(canonical), np.int32(canonical)]
            kind = int if field.type == "int" else float
        want = ExperimentConfig(**{field.name: canonical})
        for given in givens:
            cfg = ExperimentConfig(**{field.name: given})
            stored = getattr(cfg, field.name)
            assert type(stored) is kind
            if kind is tuple:
                assert all(type(v) is float for v in stored)
            assert cfg == want and hash(cfg) == hash(want)
            assert cfg.digest() == want.digest()

    @pytest.mark.parametrize("field", [
        f for f in fields(ExperimentConfig) if set(f.metadata) & set(harness.BOUNDS)],
        ids=lambda f: f.name)
    def test_every_declared_bound_refuses_a_value_past_it(self, field):
        # keyed by metadata, so a new bounded field needs no entry of its own;
        # a tuple's value goes in its second entry, which the error names
        def given(v):
            return (field.default[0], v) if field.type == "tuple" else v

        entry = f"{field.name}[1]" if field.type == "tuple" else field.name
        for op, bound in field.metadata.items():
            if op not in harness.BOUNDS:
                continue
            down = op.startswith(">")
            if op in (">", "<"):
                past = bound
            elif field.type == "int":
                past = bound - 1 if down else bound + 1
            else:
                past = math.nextafter(bound, -math.inf if down else math.inf)
            with pytest.raises(ValueError, match=rf"ExperimentConfig: "
                               rf"{re.escape(entry)} = \S+ must be "
                               rf"{re.escape(op)} {re.escape(str(bound))}$"):
                ExperimentConfig(**{field.name: given(past)})
            if op in (">=", "<="):
                # a closed bound admits its own value
                cfg = ExperimentConfig(**{field.name: given(bound)})
                assert getattr(cfg, field.name) == given(bound)

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

    @pytest.mark.parametrize("kwargs, entry", [
        (dict(extension_pct=100.0), "extension_pct = 100.0"),
        (dict(gamma_sweep_pct=(0.0, 100.0)), r"gamma_sweep_pct\[1\] = 100.0"),
    ], ids=["extension_pct", "gamma_sweep_pct"])
    def test_extension_that_does_not_fit_refused_when_built(self, kwargs, entry):
        # 100% of alloc 11 rounds to an excess of 6 > 11 // 2; run_pulse_decay
        # would raise only once its earlier points had run
        with pytest.raises(ValueError, match=f"ExperimentConfig: {entry} with "
                                             "alloc_size = 11: make_sqrc_filter: "
                                             "excess 6"):
            ExperimentConfig(alloc_size=11, **kwargs)


@pytest.mark.parametrize("call, match", [
    (lambda: filter_for("RRC", 48, 5.0), "filter_for: unknown kind 'RRC'"),
    (lambda: run_pulse_decay(ExperimentConfig(gamma_sweep_pct=())),
     "run_pulse_decay: empty extension sweep"),
], ids=["filter_for", "run_pulse_decay"])
def test_refusals_past_the_config(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestDeterminism:
    def test_identical_config_identical_records(self):
        cfg = ExperimentConfig(scheme="QPSK", trials=200, seed=77,
                               rs_overhead_pct=8.0)
        a = run_papr(cfg)
        b = run_papr(cfg)
        assert [(r.metric, r.iv_value, r.value) for r in a] == [
            (r.metric, r.iv_value, r.value) for r in b
        ]

    def test_mse_chunk_size_does_not_change_values(self, monkeypatch):
        # chunks of 16 and of 5 trials give the same values
        cfg = ExperimentConfig(scheme="QPSK", alloc_size=96, channel="TDLC",
                               delay_spread_ns=300.0, trials=40, seed=5,
                               rs_overhead_pct=10.0,
                               gamma_sweep_pct=(0.0, 10.0),
                               rs_sweep_pct=(10.0,))
        values = []
        for chunk in (16, 5):
            monkeypatch.setattr(harness, "CHUNK_TRIALS", chunk)
            values.append([r.value for r in run_mse(cfg)])
        assert values[0] == values[1]

    @pytest.mark.parametrize("kwargs", [
        dict(scheme="QAM64", channel="TDLC", speed_kmh=120.0, trials=3),
        dict(scheme="QAM256", channel="HST", speed_kmh=500.0, ars_pct=2.0,
             trials=8),
    ])
    def test_time_varying_chunk_size_does_not_change_csv(self, tmp_path,
                                                         monkeypatch, kwargs):
        # chunks of 16 and of 5 trials write the same CSV bytes
        cfg = ExperimentConfig(alloc_size=240, extension_pct=5.0,
                               snr_db=(30.0,), seed=21, **kwargs)
        paths = []
        for chunk in (16, 5):
            monkeypatch.setattr(harness, "CHUNK_TRIALS", chunk)
            path = tmp_path / f"c{chunk}.csv"
            write_csv(run_ber(cfg), path)
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
    whatever the chunking."""

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
        # the OTFDM and baseline frames alternate through one workspace, over
        # two SNRs, with a last chunk shorter than the others
        ("ber", oracles.ber_values,
         dict(scheme="QAM16", compare_baseline=True, snr_db=(12.0, 18.0),
              trials=37)),
        # the flat channel propagates a chunk at once; at the noiseless
        # point no noise is drawn or added
        ("ber", oracles.ber_values,
         dict(scheme="QAM64", snr_db=(18.0, math.inf), trials=37)),
        # genie HST: one realization propagates the chunk, and its one
        # composite is the response of every trial
        ("ber", oracles.ber_values,
         dict(scheme="QAM16", genie_channel=True, channel="HST",
              speed_kmh=500.0, snr_db=(24.0,), trials=20)),
    ])
    def test_records_equal_one_trial_at_a_time(self, tmp_path, monkeypatch,
                                               runner, oracle, kwargs):
        cfg = ExperimentConfig(seed=12, **kwargs)
        paths = []
        for chunk in (16, 5):
            monkeypatch.setattr(harness, "CHUNK_TRIALS", chunk)
            records = {"ber": run_ber, "mse": run_mse, "papr": run_papr}[
                runner](cfg)
            paths.append(tmp_path / f"c{chunk}.csv")
            write_csv(records, paths[-1])
        assert [r.value for r in records] == oracle(cfg)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestWorkspace:
    """A runner call's chunks write into one workspace, so a warm chunk
    allocates only its short-lived intermediates."""

    @pytest.mark.parametrize("runner, kwargs, limit_kib", [
        (run_papr, dict(scheme="QPSK", rs_overhead_pct=8.0), 256),
        (run_ber, dict(scheme="QAM64", snr_db=(14.0, 18.0, 22.0)), 1024),
        (run_ber, dict(scheme="QAM256", channel="HST", speed_kmh=500.0,
                       ars_pct=2.0, snr_db=(30.0,)), 1024),
        # static TDL-C over the default sweeps: six points in one workspace
        (run_mse, dict(scheme="QPSK", channel="TDLC"), 1024),
    ], ids=["papr", "ber", "ber_hst", "mse_tdlc"])
    def test_warm_chunk_peak_memory(self, monkeypatch, runner, kwargs,
                                    limit_kib):
        # the first chunk of the call fills the workspace; the third chunk
        # (trials 32-47) of each trial loop is traced
        chunks, peaks = harness._chunks, []

        def traced(trials):
            for i, chunk in enumerate(chunks(trials)):
                if i == 2:
                    tracemalloc.start()
                yield chunk
                if i == 2:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        monkeypatch.setattr(harness, "_chunks", traced)
        runner(ExperimentConfig(alloc_size=240, extension_pct=5.0, trials=48,
                                seed=3, **kwargs))
        assert peaks and max(peaks) < limit_kib * 1024

    def test_rows_sized_to_the_run_and_reused(self):
        space = harness._workspace(6)
        rx = space("rx", (100,), complex)
        assert rx.shape == (6, 100)
        assert space("rx", (100,), complex) is rx
        # another name, row shape or dtype is another array
        assert not np.shares_memory(space("spectrum", (100,), complex), rx)
        assert not np.shares_memory(space("rx", (120,), complex), rx)
        assert not np.shares_memory(space("rx", (200,), float), rx)
        assert len(harness._workspace(1000)("rx", (1,), float)) == harness.CHUNK_TRIALS

    def test_threads_give_the_serial_records(self):
        # runner calls share no workspace: the benchmark's two ber_mobility
        # configs at two seeds, run 3 times over from 3 threads that switch
        # as often as the interpreter allows
        mobility = (
            dict(scheme="QAM64", channel="TDLC", delay_spread_ns=1000.0,
                 speed_kmh=120.0, trials=6),
            dict(scheme="QAM256", ars_pct=2.0, channel="HST", speed_kmh=500.0,
                 fc_ghz=7.0, trials=20),
        )
        cfgs = [ExperimentConfig(alloc_size=240, extension_pct=5.0,
                                 snr_db=(30.0,), seed=seed, **kwargs)
                for seed in (3, 4) for kwargs in mobility]
        serial = [run_ber(cfg) for cfg in cfgs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(run_ber, cfg) for cfg in cfgs * 3]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 3


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

    @staticmethod
    def _filters_built(monkeypatch, runner, cfg) -> list:
        """`make_sqrc_filter` calls of a cold then a warm runner call: the
        filters are run constants (`filter_for`), so the first call builds
        each distinct (kind, alloc, extension) once and the second none.
        The config is built first, since it builds its SQRC filters to check
        that they fit."""
        calls = []
        make = harness.make_sqrc_filter
        monkeypatch.setattr(harness, "make_sqrc_filter",
                            lambda *args: calls.append(args) or make(*args))
        filter_for.cache_clear()
        built = []
        for _ in range(2):
            runner(cfg)
            built.append(len(calls))
            calls.clear()
        return built

    def test_pulse_decay_builds_one_filter_per_point(self, monkeypatch):
        cfg = ExperimentConfig(scheme="QPSK", gamma_sweep_pct=(0.0, 5.0, 10.0))
        assert self._filters_built(monkeypatch, run_pulse_decay, cfg) == [3, 0]

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
        # one filter per distinct extension: the three swept ones, which the
        # RS points' fixed 5% repeats
        (run_mse, dict(gamma_sweep_pct=(0.0, 5.0, 10.0),
                       rs_sweep_pct=(5.0, 8.0, 12.0)), 3),
        # the configured waveform and the baseline, whatever the SNRs
        (run_ber, dict(compare_baseline=True, snr_db=(6.0, 12.0, 18.0)), 2),
    ])
    def test_filters_built_once(self, monkeypatch, runner, kwargs, filters):
        cfg = ExperimentConfig(scheme="QPSK", trials=20, seed=3,
                               rs_overhead_pct=8.0, **kwargs)
        assert self._filters_built(monkeypatch, runner, cfg) == [filters, 0]

    @pytest.mark.parametrize("kwargs", [
        dict(scheme="QAM64", channel="TDLC", speed_kmh=120.0),
        dict(scheme="QAM256", ars_pct=2.0, channel="HST", speed_kmh=500.0),
        dict(scheme="QPSK", compare_baseline=True, snr_db=(6.0, math.inf)),
    ])
    def test_warm_plan_does_no_numerical_work(self, monkeypatch, kwargs):
        # layouts, filters, grids, filter gains, the reference check and the
        # digest are run constants: a repeated plan rebuilds none of them
        cfg = ExperimentConfig(alloc_size=240, extension_pct=5.0, trials=4,
                               seed=2, **kwargs)
        run_ber(cfg)
        calls = []

        def counting(name, original):
            return lambda *a, **k: calls.append(name) or original(*a, **k)

        monkeypatch.setattr(harness, "make_sqrc_filter",
                            counting("make_sqrc_filter", harness.make_sqrc_filter))
        monkeypatch.setattr(np.fft, "fft", counting("fft", np.fft.fft))
        monkeypatch.setattr(json, "dumps", counting("dumps", json.dumps))
        run_ber.plan(cfg)
        assert calls == []


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
        floor = "trials=40 below 1e4; 1% point is noisy"
        assert {r.warning for r in plain} == {floor}
        assert {r.warning for r in linked} == {
            f"{floor}; run_papr ignored channel=TDLC, speed_kmh=120.0, "
            "snr_db=(0.0,)"}

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
            "run_pulse_decay ignored filter_kind=TAPS2"]

    def test_tail_fraction_is_zero_once_the_window_spans_the_pulse(self):
        # alloc 240 at 5% has a 1200-sample pulse: +-120 periods span it
        periods = (0, 4, 100, 119, 120, 200, 1000)
        fracs = [pulse_tail_fraction(240, 5.0, p) for p in periods]
        assert fracs[-3:] == [0.0, 0.0, 0.0]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        assert 0.0 < fracs[3] < fracs[0] <= 1.0

    def test_pulse_peak_is_the_middle_sample(self):
        # pulse_tail_fraction centres its window there, so it never wraps
        for alloc_size in (8, 11, 64, 240):
            for ext in range(0, 100, 10):
                filt = filter_for("SQRC", alloc_size, ext)
                grid = grid_for(alloc_size, filt.excess)
                energy = np.abs(effective_pulse(filt, grid)) ** 2
                assert int(np.argmax(energy)) == grid.fft_size // 2

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

    def test_awgn_speed_is_ignored_with_warning(self):
        base = dict(scheme="QPSK", alloc_size=96, snr_db=(20.0,), trials=3,
                    seed=13, gamma_sweep_pct=(5.0,), rs_sweep_pct=(12.0,))
        plain = run_mse(ExperimentConfig(**base))
        moving = run_mse(ExperimentConfig(**base, speed_kmh=120.0))
        assert [r.value for r in moving] == [r.value for r in plain]
        assert [r.warning for r in plain] == [None, None]
        assert [r.warning for r in moving] == [
            "run_mse ignored speed_kmh=120.0"] * 2

    def test_genie_and_baseline_are_ignored_with_warning(self):
        base = dict(scheme="QPSK", alloc_size=96, snr_db=(20.0,), trials=4,
                    seed=2, gamma_sweep_pct=(5.0,), rs_sweep_pct=(8.0,))
        plain = run_mse(ExperimentConfig(**base))
        for extra, ignored in [
                (dict(genie_channel=True), "genie_channel=True"),
                (dict(compare_baseline=True), "compare_baseline=True"),
                (dict(genie_channel=True, compare_baseline=True, speed_kmh=3.0),
                 "speed_kmh=3.0, genie_channel=True, compare_baseline=True")]:
            records = run_mse(ExperimentConfig(**base, **extra))
            assert [r.value for r in records] == [r.value for r in plain]
            assert [r.warning for r in records] == [
                f"run_mse ignored {ignored}"] * 2

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

    def test_extension_sweep_needs_the_sqrc_filter(self):
        # a tap filter has no extension, so each point would repeat one value
        cfg = ExperimentConfig(filter_kind="TAPS2", trials=1,
                               gamma_sweep_pct=(0.0, 5.0, 10.0))
        with pytest.raises(ValueError, match=r"run_mse: gamma_sweep_pct\[1\] "
                           "= 5.0 needs filter_kind SQRC; filter_kind TAPS2"):
            run_mse(cfg)
        records = run_mse(replace(cfg, gamma_sweep_pct=(0.0,), ridge=0.1))
        assert [r.iv_name for r in records] == ["gamma_pct"] + [
            "rs_overhead_pct"] * 3

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
        # the check is a run constant: a warm key would not check again
        harness._estimator.cache_clear()
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

    @pytest.mark.parametrize("genie", [False, True], ids=["estimate", "genie"])
    def test_noiseless_point_with_a_nulled_filter_refused_before_any_trial(
            self, monkeypatch, genie):
        # TAPS2's folded squared gain is exactly 0 at bin 0, so the inf-dB
        # point would fail for certain, once the 20 dB point had run
        streams = []
        monkeypatch.setattr(harness, "SeededRng",
                            lambda *key: streams.append(key) or SeededRng(*key))
        cfg = ExperimentConfig(filter_kind="TAPS2", ridge=0.1, trials=2,
                               snr_db=(20.0, math.inf), genie_channel=genie)
        with pytest.raises(DegenerateEqualizer,
                           match="run_ber: filter_kind TAPS2 nulls a subcarrier"):
            run_ber(cfg)
        assert streams == []
        assert len(run_ber(replace(cfg, snr_db=(20.0,)))) == 2

    def test_pi2_bpsk_genie_needs_no_ridge(self):
        cfg = ExperimentConfig(scheme="PI2_BPSK", genie_channel=True,
                               snr_db=(20.0,), trials=4, seed=11)
        assert [r.metric for r in run_ber(cfg)] == ["ber", "evm_db"]

    # HST at 500 km/h: the worst per-symbol Doppler phase 2*pi*f_d/scs is
    # 2.91 rad at 30 GHz and 0.68 rad at 7 GHz, the benchmark's config
    ARS_HST = dict(scheme="QAM256", alloc_size=240, ars_pct=2.0, channel="HST",
                   speed_kmh=500.0, snr_db=(30.0,), trials=2, seed=3)

    def test_ars_warning_names_the_doppler_phase(self):
        cfg = ExperimentConfig(fc_ghz=30.0, compare_baseline=True,
                               **self.ARS_HST)
        records = run_ber(cfg)
        for r in records:
            if r.metric.endswith("_baseline"):
                assert r.warning is None
            else:
                assert "2.91 rad" in r.warning and "pi/2" in r.warning
        uncorrected = replace(cfg, ars_correction=False, compare_baseline=False)
        assert all(r.warning is None for r in run_ber(uncorrected))

    def test_awgn_speed_is_ignored_with_warning(self):
        # the baseline ignores the speed too, so its records warn as well
        base = dict(scheme="QPSK", alloc_size=96, snr_db=(15.0,), trials=3,
                    seed=7, compare_baseline=True)
        plain = run_ber(ExperimentConfig(**base))
        moving = run_ber(ExperimentConfig(**base, speed_kmh=120.0))
        assert [r.value for r in moving] == [r.value for r in plain]
        assert all(r.warning is None for r in plain)
        assert [r.warning for r in moving] == [
            "run_ber ignored speed_kmh=120.0"] * 4

    def test_no_ars_warning_at_the_benchmark_hst_config(self):
        records = run_ber(ExperimentConfig(fc_ghz=7.0, **self.ARS_HST))
        assert [r.warning for r in records] == [None, None]

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


def _named(runner, records) -> set:
    """The field names that `runner`'s ignored-input warning names in any
    of `records`, parsed name by name, so `channel=` is not read inside
    `genie_channel=`."""
    prefix = f"{runner.__name__} ignored "
    return {name for r in records for part in (r.warning or "").split("; ")
            if part.startswith(prefix)
            for name in re.findall(r"(?:^|, )(\w+)=", part[len(prefix):])}


class TestIgnoredInputs:
    """A config field moved from a base config changes a record value
    exactly when the runner's warning does not name it as ignored."""

    # each field moves to the first of its values that differs from the base
    MOVES = {
        "scheme": ("QAM16", "QPSK"),
        "alloc_size": (120, 96),
        "extension_pct": (10.0, 5.0),
        "filter_kind": ("TAPS3", "SQRC"),
        "rs_overhead_pct": (12.0, 10.0),
        "ars_pct": (4.0, 2.0),
        "ars_correction": (False, True),
        "scs_khz": (15.0, 30.0),
        "channel": ("TDLC", "AWGN"),
        "delay_spread_ns": (300.0, 1000.0),
        "speed_kmh": (60.0, 120.0),
        "fc_ghz": (30.0, 7.0),
        "snr_db": ((20.0,), (10.0,)),
        "genie_channel": (True, False),
        "ridge": (0.01, 0.1),
        "compare_baseline": (True, False),
    }
    COMMON = dict(alloc_size=96, snr_db=(10.0,), trials=2, seed=5,
                  gamma_sweep_pct=(0.0,), rs_sweep_pct=(12.0,))
    BASES = {
        "awgn": {},
        "awgn_ars": dict(ars_pct=2.0),
        "tdlc_static": dict(channel="TDLC"),
        "tdlc_mobile_ars": dict(channel="TDLC", speed_kmh=120.0, ars_pct=2.0),
        "hst": dict(channel="HST", speed_kmh=500.0),
        "genie": dict(genie_channel=True),
        "taps3_ridge": dict(filter_kind="TAPS3", ridge=0.1),
    }

    def test_every_field_is_exempt_or_has_a_move(self):
        names = {f.name for f in fields(ExperimentConfig)}
        assert harness.UNREPORTED <= names
        assert set(self.MOVES) == names - harness.UNREPORTED

    @pytest.mark.parametrize("metric", list(harness.RUNNERS))
    @pytest.mark.parametrize("base", list(BASES))
    def test_moved_field_changes_a_value_or_is_named(self, base, metric):
        runner = harness.RUNNERS[metric]
        cfg = ExperimentConfig(**self.COMMON, **self.BASES[base])
        before = runner(cfg)
        for f in fields(ExperimentConfig):
            if f.name in harness.UNREPORTED:
                continue
            value = next(v for v in self.MOVES[f.name]
                         if v != getattr(cfg, f.name))
            after = runner(replace(cfg, **{f.name: value}))
            changed = [r.value for r in after] != [r.value for r in before]
            # the side that differs from the default names an ignored field
            named = f.name in _named(runner, before) | _named(runner, after)
            assert changed != named, f"{f.name} -> {value!r}"

    @pytest.mark.parametrize("sweeps, name, value", [
        (dict(gamma_sweep_pct=()), "rs_overhead_pct", 12.0),
        (dict(rs_sweep_pct=()), "extension_pct", 10.0)])
    def test_mse_reads_the_fixed_share_of_a_sweep_it_runs(self, sweeps, name,
                                                          value):
        # the extension sweep's points read the fixed RS share, and the RS
        # sweep's the fixed extension; pulse decay refuses an empty
        # extension sweep, so no base config above has one
        cfg = ExperimentConfig(**dict(self.COMMON, **sweeps))
        plain, moved = run_mse(cfg), run_mse(replace(cfg, **{name: value}))
        assert [r.value for r in moved] == [r.value for r in plain]
        assert _named(run_mse, moved) == {name}

    @pytest.mark.parametrize("metric", list(harness.RUNNERS))
    def test_sweep_warns_as_the_runner_does(self, metric):
        # no runner reads a speed on AWGN
        cfg = ExperimentConfig(**self.COMMON, speed_kmh=30.0)
        runner = harness.RUNNERS[metric]
        records = sweep([cfg], [metric])
        # compared as text, since a NaN snr_db equals no other NaN
        assert list(map(repr, records)) == list(map(repr, runner(cfg)))
        assert _named(runner, records) >= {"speed_kmh"}

    def test_gamma_pct_is_the_realized_extension(self):
        # 5% of alloc 96 rounds to 2 excess subcarriers per side, 4.17%
        sqrc = ExperimentConfig(**dict(self.COMMON, gamma_sweep_pct=(5.0,)),
                                compare_baseline=True)
        taps = replace(sqrc, filter_kind="TAPS2", ridge=0.1,
                       gamma_sweep_pct=(0.0,))
        # the baseline rows too carry the OTFDM filter's extension
        for runner in harness.RUNNERS.values():
            assert {r.gamma_pct for r in runner(sqrc)} == {200.0 * 2 / 96}
            assert {r.gamma_pct for r in runner(taps)} == {0.0}
        # the pulse is the SQRC one whatever the filter
        pulse = run_pulse_decay(replace(taps, gamma_sweep_pct=(5.0,)))
        assert [r.gamma_pct for r in pulse] == [200.0 * 2 / 96]


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

    def test_bad_pair_refused_before_any_trial(self, tmp_path, monkeypatch):
        streams = []
        monkeypatch.setattr(harness, "SeededRng",
                            lambda *key: streams.append(key) or SeededRng(*key))
        good = ExperimentConfig(snr_db=(20.0,), trials=4)
        two_snrs = ExperimentConfig(snr_db=(10.0, 20.0), trials=4)
        out = tmp_path / "s.csv"
        with pytest.raises(ValueError, match=r"config entry 1, metric mse: "
                                             r"run_mse: needs exactly one SNR"):
            sweep([good, two_snrs], ["ber", "mse"], out)
        assert streams == [] and not out.exists()


class TestCli:
    @pytest.mark.parametrize("argv", [["--help"]] + [
        [command, "--help"] for command in ("tx", *harness.RUNNERS, "sweep")],
        ids=" ".join)
    def test_help_prints_usage(self, argv, capsys):
        # a runner docstring's "1%" once broke argparse's help formatting
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [*harness.RUNNERS, "sweep"])
    def test_verbose_is_refused_where_nothing_reads_it(self, tmp_path, capsys,
                                                       command):
        # only tx prints diagnostics
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--out", str(tmp_path / "out.csv"), "-v"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -v" in capsys.readouterr().err

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

    def test_trials_option_and_scalar_snr(self, tmp_path):
        # --trials overrides the file's trials, and a scalar snr_db in the
        # file is the one-SNR list
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"snr_db": 20, "trials": 50}))
        out = tmp_path / "ber.csv"
        assert cli_main(["ber", "--config", str(cfg_path), "--trials", "3",
                         "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open(encoding="ascii")))
        assert rows
        assert {(int(r["trials"]), float(r["snr_db"])) for r in rows} == {(3, 20.0)}

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

    def test_bad_entry_of_a_list_is_named(self, tmp_path, capsys):
        # ExperimentConfig's own refusal carries the entry index too
        cfg_path = tmp_path / "two.json"
        cfg_path.write_text('[{"trials": 1}, {"ars_pct": 99.0}]')
        assert cli_main(["overhead", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "otfdm: error: config entry 1: ExperimentConfig:" in err
        assert "ars_pct = 99.0" in err and "Traceback" not in err

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
