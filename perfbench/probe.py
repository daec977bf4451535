"""Set-up probe: import numpy and otfdm, build a workload's configs, resolve
them, then print `ready`. `run.py` times this from process start.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401  (its import is part of set-up)

import workloads  # noqa: E402

if __name__ == "__main__":
    for _, cfg in workloads.build(sys.argv[1], int(sys.argv[2])):
        cfg.resolve()
    print("ready", flush=True)
