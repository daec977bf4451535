"""Minor page faults per harness trial of each benchmark workload, in total
and split by the functions that `otfdm.harness` imports.

Run from the root of a checkout:

    python3 tools/faults.py
    python3 tools/faults.py --workload ber_mobility --passes 40
    python3 tools/faults.py --tiny

Each workload runs in a fresh process, as `perfbench/run.py --workload all`
runs them, with one OpenBLAS thread. Its passes are built by
`perfbench/workloads.py`, which is only imported. After WARM_PASSES passes,
minor faults (`getrusage(RUSAGE_SELF).ru_minflt`) are counted over
`--passes` passes: in total, and around every call of a function that
`otfdm.harness` imports from another otfdm module (the names the
benchmark's tracer wraps). A call is charged its own faults, without those
of such calls inside it; `harness` is the rest, the runners' own code.
Counts are per harness trial (`workloads.harness_trials`). A warm pass that
allocates no large array faults nothing in steady state; a count above zero
is glibc giving heap or mapped memory back and faulting it in again. Fault
counts depend on the host's allocator and kernel, so they are reported and
never gated on. `--tiny` divides the trial counts as the benchmark's
self-tests do, for a smoke run.
"""

from __future__ import annotations

import argparse
import inspect
import os
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARM_PASSES = 5
PASSES = 20
TINY_PASSES = 2


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _charge(harness, faults: dict) -> None:
    """Replace every function `harness` imports from another otfdm module by
    one that adds its call's own faults to `faults[name]`."""
    nested = [0]  # faults of the charged calls inside each open call

    def wrap(name, fn):
        def charged(*args, **kwargs):
            start = _minflt()
            nested.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                total = _minflt() - start
                faults[name] += total - nested.pop()
                nested[-1] += total

        return charged

    for attr, obj in list(vars(harness).items()):
        owner = getattr(obj, "__module__", "")
        if (inspect.isfunction(obj) and owner.startswith("otfdm.")
                and owner != "otfdm.harness"):
            setattr(harness, attr, wrap(attr, obj))


def count(name: str, seed: int, passes: int, tiny: bool) -> tuple:
    """(harness trials counted, total faults, {function: own faults}) of
    `passes` warm passes of workload `name`."""
    import otfdm.harness as harness

    runs = workloads.build(name, seed, tiny)
    faults = defaultdict(int)
    _charge(harness, faults)

    def one_pass():
        for runner, cfg in runs:
            getattr(harness, runner)(cfg)

    for _ in range(WARM_PASSES):
        one_pass()
    faults.clear()
    start = _minflt()
    for _ in range(passes):
        one_pass()
    total = _minflt() - start
    trials = passes * sum(workloads.harness_trials(r, c) for r, c in runs)
    return trials, total, dict(faults)


def report(name: str, seed: int, passes: int, tiny: bool) -> None:
    trials, total, faults = count(name, seed, passes, tiny)
    faults["harness"] = total - sum(faults.values())
    print(f"{name} (seed {seed}, {passes} passes, {trials} harness trials): "
          f"{total / trials:.2f} minor faults per trial")
    for fn, n in sorted(faults.items(), key=lambda kv: -kv[1]):
        if n:
            print(f"  {fn:<22} {n / trials:8.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--passes", type=int,
                        help=f"counted passes (default {PASSES}, "
                        f"{TINY_PASSES} with --tiny)")
    parser.add_argument("--tiny", action="store_true",
                        help="divide trial counts (smoke runs only)")
    args = parser.parse_args(argv)
    passes = (args.passes if args.passes is not None
              else TINY_PASSES if args.tiny else PASSES)
    if passes < 1:
        parser.error("--passes must be >= 1")
    if args.workload != "all":
        for var in THREAD_VARS:
            os.environ[var] = "1"
        report(args.workload, args.seed, passes, args.tiny)
        return 0
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--passes", str(passes),
             *(["--tiny"] if args.tiny else [])], check=False)
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
