"""otfdm Monte-Carlo benchmark: harness trials per second on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload papr_qpsk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run builds the workload's configs from the seed (see `workloads.py`),
makes one warm-up pass, then repeats passes of the public runners for
`--seconds` seconds (default: `run_seconds` of BENCHMARK.json) and checks
every pass's records. A pass fails if it raises, or if its records differ
from the expected ones. When `reference/records.json` has the seed, these
are the stored records of the seed commit, and two records differ if a
non-value field differs or a value differs by more than 1e-12 relative.
For any other seed they are the first pass of the run, and every later pass
must give a byte-identical CSV.

`--trace 0` prints the end-to-end metrics: `trials_per_s` (median over
passes), `setup_s` (median over fresh processes started between the passes,
from process start to the first trial) and `peak_rss_mb`. Both timings are
scaled to a reference machine speed by the calibration kernel run between
every two timed steps (see `calibration.py`). `error_rate` (failed /
attempted passes) is printed in the table and carried as `failed` and
`attempted` in the result.
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics from the spans `tracer.Tracer` records; their times are not scaled,
but `trace.overhead_frac` compares scaled pass times. The last line of standard
output is the JSON result; a run's manifest, pass times and the last traced
pass's spans are written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import calibration
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference" / "records.json"
SPEC = ROOT / "BENCHMARK.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
REL_TOL = 1e-12
PROCESS_TIMEOUT_S = 170

END_TO_END = (("trials_per_s", "trials/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))

RECEIVER_STAGES = ("front_end", "fold_spectrum", "estimate_channel",
                   "mmse_equalize", "ars_phase_correct", "demodulate")

PER_LAYER = (
    ("numerics.SeededRng.us", "us/trial"),
    ("numerics.SeededRng.calls", "calls/trial"),
    ("numerics.dft.us", "us/trial"),
    ("numerics.dft.calls", "calls/trial"),
    ("sequences.us", "us/trial"),
    ("sequences.modulate.calls", "calls/trial"),
    ("transmitter.generate_otfdm.us", "us/trial"),
    ("transmitter.generate_otfdm.calls", "calls/trial"),
    ("channel.tdlc_realization.us", "us/trial"),
    ("channel.hst_realization.us", "us/trial"),
    ("channel.flat_realization.us", "us/trial"),
    ("channel.gain_samples", "count/trial"),
    ("channel.apply_channel.us", "us/trial"),
    ("channel.apply_channel.convolutions", "count/trial"),
    ("channel.apply_channel.macs", "count/trial"),
    *((f"receiver.{stage}.{kind}", unit) for stage in RECEIVER_STAGES
      for kind, unit in (("us", "us/trial"), ("calls", "calls/trial"))),
    ("harness.self_us", "us/trial"),
    ("harness.csv_identical", "bool"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
    *((f"share.{module}", "frac") for module in tracer.MODULES),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_otfdm():
    """Import otfdm from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "otfdm" / "__init__.py").is_file():
        raise BenchError(f"no otfdm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import otfdm.harness

    if not Path(otfdm.harness.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported otfdm from {otfdm.harness.__file__}")
    return otfdm.harness


def setup_seconds(name: str, seed: int) -> float:
    """Time from starting a fresh process to its first trial."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return ready - start


def fingerprint(harness, records, csv_path) -> dict:
    """What a pass is checked on: the CSV bytes, the non-value fields and
    the full-precision values of its records."""
    harness.write_csv(records, csv_path)
    fields = [{k: v for k, v in asdict(r).items() if k != "value"}
              for r in records]
    return {
        "csv_sha256": hashlib.sha256(Path(csv_path).read_bytes()).hexdigest(),
        "fields_sha256": hashlib.sha256(
            json.dumps(fields, sort_keys=True).encode()).hexdigest(),
        "values": [r.value for r in records],
    }


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def mismatch(got: dict, expected: dict) -> str | None:
    """Why a pass's records differ from the expected ones, or None."""
    if got["fields_sha256"] != expected["fields_sha256"]:
        return "a non-value field differs"
    bad = [i for i, (a, b) in enumerate(zip(got["values"], expected["values"]))
           if not _close(a, b)]
    if len(got["values"]) != len(expected["values"]) or bad:
        return f"values differ at records {bad[:5]}"
    if not all(math.isfinite(v) for v in got["values"]):
        return "a value is not finite"
    return None


def load_reference(name: str, seed: int):
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)["workloads"][name].get(str(seed))


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def manifest(name: str, seed: int, runs, tiny: bool) -> dict:
    import numpy

    harness_trials = workloads.harness_trials
    return {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "configs": [{"runner": runner, "digest": cfg.digest(),
                     "trials": cfg.trials,
                     "harness_trials": harness_trials(runner, cfg)}
                    for runner, cfg in runs],
        "trials_per_pass": sum(harness_trials(r, c) for r, c in runs),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Passes:
    """Runs and checks passes of one workload; keeps the tallies."""

    def __init__(self, harness, name, seed, runs, expected):
        self.harness = harness
        self.runs = runs
        self.expected = expected
        # Without stored records the run checks itself: CSVs must match the
        # first pass byte for byte.
        self.exact = expected is None
        self.csv_path = OUT / f"{name}-seed{seed}.csv"
        self.attempted = 0
        self.failed = 0
        self.csv_identical = True  # every pass's CSV equals the expected one

    def run(self, tr=None):
        """One pass, traced by `tr` if given; returns its runner wall time,
        or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            records = []
            for runner, cfg in self.runs:
                fn = getattr(self.harness, runner)
                records += fn(cfg) if tr is None else tr.runner(runner, fn, cfg)
            seconds = time.perf_counter() - start
            got = fingerprint(self.harness, records, self.csv_path)
        except Exception:
            traceback.print_exc()
            self.csv_identical = False
            why = "raised"
        else:
            if self.expected is None:
                self.expected = got
            why = mismatch(got, self.expected)
            if got["csv_sha256"] != self.expected["csv_sha256"]:
                self.csv_identical = False
                if self.exact:
                    why = why or "CSV bytes differ from the first pass"
        if why is None:
            return seconds
        print(f"pass {self.attempted}: {why}", file=sys.stderr)
        self.failed += 1
        return None


def _per_layer(profile, trials, untraced_tps, traced_tps,
               csv_identical) -> dict:
    table, counts = profile.table, profile.counts

    def us(name):
        return table[name][1] / trials * 1e6 if name in table else 0.0

    def calls(name):
        return table[name][0] / trials if name in table else 0.0

    module_self = profile.module_self()
    m = {
        "numerics.SeededRng.us": us("numerics.SeededRng"),
        "numerics.SeededRng.calls": calls("numerics.SeededRng"),
        "numerics.dft.us": us("numerics.dft"),
        "numerics.dft.calls": calls("numerics.dft"),
        "sequences.us": sum(us(n) for n in table if n.startswith("sequences.")),
        "sequences.modulate.calls": calls("sequences.modulate"),
        "transmitter.generate_otfdm.us": us("transmitter.generate_otfdm"),
        "transmitter.generate_otfdm.calls": calls("transmitter.generate_otfdm"),
        "channel.tdlc_realization.us": us("channel.tdlc_realization"),
        "channel.hst_realization.us": us("channel.hst_realization"),
        "channel.flat_realization.us": us("channel.flat_realization"),
        "channel.gain_samples": counts["channel.gain_samples"] / trials,
        "channel.apply_channel.us": us("channel.apply_channel"),
        "channel.apply_channel.convolutions":
            counts["channel.apply_channel.convolutions"] / trials,
        "channel.apply_channel.macs":
            counts["channel.apply_channel.macs"] / trials,
    }
    for stage in RECEIVER_STAGES:
        m[f"receiver.{stage}.us"] = us(f"receiver.{stage}")
        m[f"receiver.{stage}.calls"] = calls(f"receiver.{stage}")
    m["harness.self_us"] = module_self["harness"] / trials * 1e6
    m["harness.csv_identical"] = 1 if csv_identical else 0
    m["trace.overhead_frac"] = 1.0 - traced_tps / untraced_tps
    m["trace.coverage"] = profile.runner_children / profile.runner_wall
    for module, self_s in module_self.items():
        m[f"share.{module}"] = self_s / profile.runner_wall
    return m


def _print_table(rows) -> None:
    for name, value, unit in rows:
        print(f"  {name:<38} {value:>14.6g} {unit}")


def _print_profile(profile) -> None:
    """Where the time went: self time per module, then per function."""
    runner_wall = profile.runner_wall
    print("self-time share per module (traced passes):")
    for module, self_s in sorted(profile.module_self().items(),
                                 key=lambda kv: -kv[1]):
        print(f"  {module:<14} {100 * self_s / runner_wall:6.1f}%")
    print("per function: calls, inclusive and self share of runner wall time:")
    for name, (n, incl, self_s) in sorted(profile.table.items(),
                                          key=lambda kv: -kv[1][2]):
        print(f"  {name:<34} {n:>9d} {100 * incl / runner_wall:6.1f}% "
              f"{100 * self_s / runner_wall:6.1f}%")


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """One benchmark run; returns the contract's result object."""
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    harness = import_otfdm()
    runs = workloads.build(name, seed, tiny)
    expected = None if tiny else load_reference(name, seed)
    OUT.mkdir(exist_ok=True)
    info = manifest(name, seed, runs, tiny)
    trials = info["trials_per_pass"]
    info["reference"] = "seed commit" if expected else "first pass of the run"
    print("manifest " + json.dumps(info, sort_keys=True))

    passes = Passes(harness, name, seed, runs, expected)
    passes.run()  # warm-up: fills lazy state, checked but not timed
    speed = calibration.Speed()
    untraced, traced, setup = [], [], []
    profile = tracer.Profile()
    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
        if not trace:
            # Set-up probes alternate with passes, so both sample the
            # machine over the same stretch of time.
            untraced.append(speed.scale(passes.run()))
            setup.append(speed.scale(setup_seconds(name, seed)))
            continue
        # Untraced and traced passes alternate, and so does which of the
        # two goes first, so both sample the machine alike.
        traced_first = len(traced) % 2 == 0
        if not traced_first:
            untraced.append(speed.scale(passes.run()))
        with tracer.Tracer() as tr:
            seconds = passes.run(tr)
        traced.append(speed.scale(seconds))
        if seconds is not None:
            profile.add(tr)
        if traced_first:
            untraced.append(speed.scale(passes.run()))

    def tps(times):
        ok = [trials / s for s in times if s is not None]
        if not ok:
            raise BenchError("every pass failed")
        return statistics.median(ok)

    error_rate = passes.failed / passes.attempted
    if trace:
        traced_ok = sum(1 for s in traced if s is not None)
        metrics = _per_layer(profile, traced_ok * trials, tps(untraced),
                             tps(traced), passes.csv_identical)
        units = dict(PER_LAYER)
        tr.write_jsonl(OUT / f"{name}-seed{seed}.spans.jsonl")
        _print_profile(profile)
    else:
        metrics = {"trials_per_s": tps(untraced),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = dict(END_TO_END)
    print(f"{name} seed {seed}: {passes.attempted} passes of {trials} trials")
    kernel_ms = 1e3 * statistics.median(speed.kernel_s)
    _print_table([(k, v, units[k]) for k, v in metrics.items()]
                 + [("error_rate", error_rate, "fraction"),
                    ("calibration kernel (median)", kernel_ms, "ms")])
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="ascii") as fh:
        json.dump({"manifest": info, "error_rate": error_rate,
                   "untraced_pass_s": untraced, "traced_pass_s": traced,
                   "setup_s": setup, "kernel_s": speed.kernel_s,
                   "result": result}, fh, indent=1)
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of the end-to-end
    metrics plus error_rate."""
    rows, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<17} {'trials_per_s':>14} {'setup_s':>9} "
          f"{'peak_rss_mb':>12} {'error_rate':>11}")
    print(f"{'':<17} {'(trials/s)':>14} {'(s)':>9} {'(MiB)':>12} "
          f"{'(fraction)':>11}")
    for name, res in rows.items():
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"{name:<17} {m['trials_per_s']:>14.2f} {m['setup_s']:>9.4f} "
              f"{m['peak_rss_mb']:>12.1f} "
              f"{res['failed'] / res['attempted']:>11.4f}")
        code = code or (0 if res["correct"] else 1)
    print(json.dumps(rows))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="divide trial counts (self-tests only)")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
