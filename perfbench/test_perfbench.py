"""Self-tests of the benchmark, in its tiny-trial mode where they can be.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def harness():
    return run.import_otfdm()


def _cli(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _pass(harness, runs, trace=None):
    return [rec for runner, cfg in runs
            for rec in (trace.runner(runner, getattr(harness, runner), cfg)
                        if trace else getattr(harness, runner)(cfg))]


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, kind):
    proc = _cli("--workload", "papr_qpsk", "--seed", "5", "--seconds", "0",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert "error_rate" in proc.stdout


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_equals_untraced_and_counts_per_trial(harness, tmp_path,
                                                          name):
    runs = workloads.build(name, seed=7, tiny=True)
    trials = sum(workloads.harness_trials(r, c) for r, c in runs)
    plain = run.fingerprint(harness, _pass(harness, runs), tmp_path / "a.csv")
    with tracer.Tracer() as tr:
        records = _pass(harness, runs, tr)
    assert run.fingerprint(harness, records, tmp_path / "b.csv") == plain
    table, wall, children = tracer.self_times(tr.spans)
    assert table["numerics.SeededRng"][0] == trials
    per_trial = 2 if name == "papr_qpsk" else 1
    assert table["transmitter.generate_otfdm"][0] == per_trial * trials
    assert 0.0 < children <= wall


def test_wrappers_restored_even_after_an_error(harness):
    originals = [(m, a, getattr(m, a)) for m, a in tracer._targets()]
    assert len(originals) > 10
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert all(getattr(m, a) is not f for m, a, f in originals)
            raise RuntimeError
    assert all(getattr(m, a) is f for m, a, f in originals)


def test_self_time_accounts_for_runner_wall():
    spans = [("harness.run_x", 0.0, 10.0, -1, -1),
             ("transmitter.f", 1.0, 5.0, 0, 0),
             ("sequences.g", 2.0, 3.0, 1, 0),
             ("channel.h", 6.0, 8.0, 0, 0)]
    table, wall, children = tracer.self_times(spans)
    assert (wall, children) == (10.0, 6.0)
    assert table["harness.run_x"][2] == 4.0
    assert table["transmitter.f"][1:] == [4.0, 3.0]
    assert sum(row[2] for row in table.values()) == wall


def test_speed_scales_by_the_kernel_times_around_a_step(monkeypatch):
    times = iter([0.5, 1.0, 2.0, 3.0])  # warm-up, then three kernel runs
    monkeypatch.setattr(calibration, "kernel_seconds", lambda: next(times))
    speed = calibration.Speed()
    assert speed.scale(4.0) == pytest.approx(
        4.0 * calibration.REFERENCE_S / 1.5)
    assert speed.scale(None) is None  # a failed step still runs the kernel
    assert speed.kernel_s == [1.0, 2.0, 3.0]


def test_calibration_kernel_uses_no_otfdm():
    code = ("import sys, calibration; calibration.kernel(); "
            "assert not any(m.startswith('otfdm') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                   timeout=60)
    assert calibration.kernel() == calibration.kernel()


def test_mismatch_uses_the_relative_tolerance():
    ref = {"fields_sha256": "x", "values": [1.0, 0.0, 2.5]}
    assert run.mismatch(dict(ref, values=[1.0 + 1e-13, 0.0, 2.5]), ref) is None
    assert run.mismatch(dict(ref, values=[1.0 + 1e-9, 0.0, 2.5]), ref)
    assert run.mismatch(dict(ref, values=[1.0, 0.0]), ref)
    assert run.mismatch(dict(ref, fields_sha256="y"), ref)


def test_reference_check_allows_the_tolerance_but_flags_csv_bytes(harness):
    # Values within 1e-12 relative of the stored ones pass, even when the
    # rounded CSV differs; only harness.csv_identical records the difference.
    runs = workloads.build("papr_qpsk", seed=7, tiny=True)
    run.OUT.mkdir(exist_ok=True)
    passes = run.Passes(harness, "papr_qpsk", 7, runs, None)
    assert passes.run() is not None
    ref = dict(passes.expected, csv_sha256="0" * 64)
    ref["values"] = [v * (1 + 1e-13) for v in ref["values"]]
    passes = run.Passes(harness, "papr_qpsk", 7, runs, ref)
    assert passes.run() is not None
    assert (passes.failed, passes.csv_identical) == (0, False)
    i = next(i for i, v in enumerate(ref["values"]) if v)
    ref["values"][i] *= 1 + 1e-9
    assert passes.run() is None and passes.failed == 1


def test_without_a_reference_csv_bytes_must_repeat(harness):
    runs = workloads.build("papr_qpsk", seed=7, tiny=True)
    run.OUT.mkdir(exist_ok=True)
    passes = run.Passes(harness, "papr_qpsk", 7, runs, None)
    assert passes.run() is not None and passes.run() is not None
    passes.expected = dict(passes.expected, csv_sha256="0" * 64)
    assert passes.run() is None
    assert (passes.failed, passes.csv_identical) == (1, False)


def test_reference_csvs_match_the_stored_records():
    import hashlib

    for name in workloads.WORKLOADS:
        ref = run.load_reference(name, workloads.DEFAULT_SEED)
        data = (HERE / "reference" / f"{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == ref["csv_sha256"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_reproduces_the_reference(harness, tmp_path, name):
    runs = workloads.build(name, workloads.DEFAULT_SEED)
    got = run.fingerprint(harness, _pass(harness, runs), tmp_path / "r.csv")
    ref = run.load_reference(name, workloads.DEFAULT_SEED)
    assert run.mismatch(got, ref) is None
    assert got["csv_sha256"] == ref["csv_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", "papr_qpsk", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
