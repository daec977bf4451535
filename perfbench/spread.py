"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--out perfbench/baseline.json]

Every workload of BENCHMARK.json runs once per seed, for `run_seconds`,
untraced. For every workload and end-to-end metric it prints the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`) and the
quartile distance as a share of the median, next to the metric's bound.
Runs are made one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report, code = {}, 0
    for name in (w["name"] for w in SPEC["workloads"]):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                timeout=180)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exited with {proc.returncode}",
                      file=sys.stderr)
                code = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect", file=sys.stderr)
                code = 1
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        report[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            report[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "values": vals}
            bound = bounds[metric]
            print(f"{name:<16} {metric:<36} median {med:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                  f"bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "seconds": SPEC["run_seconds"], "trace": 0,
             "workloads": report}, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
