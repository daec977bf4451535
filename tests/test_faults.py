"""The fault probe `tools/faults.py`: a tiny run of every workload, each in
its own process, reports faults per trial. The counts depend on the host's
allocator, so they are not checked."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_run_reports_every_workload():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "faults.py"),
                           "--tiny"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("papr_qpsk", "ber_awgn_qam64", "mse_tdlc_static",
                 "ber_mobility"):
        assert f"\n{name} (seed 1, 2 passes" in f"\n{proc.stdout}"
    assert proc.stdout.count("minor faults per trial") == 4


@pytest.mark.parametrize("passes", ["0", "-1"])
def test_fewer_than_one_pass_refused(passes):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "faults.py"),
                           "--tiny", "--passes", passes],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--passes must be >= 1" in proc.stderr
    assert proc.stdout == ""
