"""Regenerate the reference records the benchmark checks passes against.

Run only on a commit whose records are known good (the reference was made
on the commit that added the benchmark):

    python3 perfbench/make_reference.py

For every workload and every seed in SEEDS it runs one pass and stores the
CSV hash, the hash of the non-value record fields and the full-precision
values in `reference/records.json`; the CSV of the default seed is also kept
as `reference/<workload>.csv` for reading and diffing.
"""

import json
import shutil

import run
import workloads

SEEDS = range(32)


def main() -> None:
    harness = run.import_otfdm()
    run.OUT.mkdir(exist_ok=True)
    csv_path = run.OUT / "reference.csv"
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for seed in SEEDS:
            records = [rec for runner, cfg in workloads.build(name, seed)
                       for rec in getattr(harness, runner)(cfg)]
            table[name][str(seed)] = run.fingerprint(harness, records, csv_path)
            if seed == workloads.DEFAULT_SEED:
                shutil.copyfile(csv_path, run.HERE / "reference" / f"{name}.csv")
        print(name, "done", flush=True)
    with open(run.REFERENCE, "w", encoding="ascii") as fh:
        json.dump({"seeds": [min(SEEDS), max(SEEDS)], "workloads": table}, fh,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
