"""The paired speed-claim tool `tools/pairs.py`: its claim rule on
synthetic numbers, and a same-revision smoke run that must not claim."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import pairs  # noqa: E402

BASE = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 100.0, 101.0, 99.0, 100.0]


@pytest.mark.parametrize("change, higher, claimed", [
    # every pair won by 5, far beyond the base's quartile distance
    ([b + 5.0 for b in BASE], True, True),
    # nine of ten won is enough
    ([b + 5.0 for b in BASE[:9]] + [BASE[9] - 1.0], True, True),
    # eight of ten is not
    ([b + 5.0 for b in BASE[:8]] + [b - 1.0 for b in BASE[8:]], True, False),
    # every pair won, but the median gap is within the base's IQR
    ([b + 0.1 for b in BASE], True, False),
    # nine pairs are too few, whatever they show
    ([b + 5.0 for b in BASE[:9]], True, False),
    # lower is better: the same numbers are losses, and their mirror wins
    ([b + 5.0 for b in BASE], False, False),
    ([b - 5.0 for b in BASE], False, True),
])
def test_claim_rule(change, higher, claimed):
    got = pairs.claim(BASE[: len(change)], change, higher)
    assert got["claim"] is claimed
    assert got["pairs"] == len(change)
    q1, med, q3 = pairs.quartiles(BASE[: len(change)])
    assert got["base_iqr"] == q3 - q1 > 0
    sign = 1 if higher else -1
    assert got["gap"] == sign * (pairs.quartiles(change)[1] - med)


def test_layout_spread_compares_path_lengths():
    values = [10.0, 12.0, 10.0, 12.0]
    assert pairs.layout_spread(values, [1, 10, 1, 10]) == pytest.approx(2 / 11)
    assert pairs.layout_spread(values, [1, 1, 1, 1]) == 0.0


def test_same_revision_smoke_run_does_not_claim(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), "--base", "HEAD",
         "--change", "HEAD", "--workload", "papr_qpsk", "--pairs", "2",
         "--seeds", "5", "--seconds", "0", "--tiny",
         "--scratch", str(tmp_path / "copies"), "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["failed_pairs"] == 0
    assert [r["pad"] for r in result["runs"]] == list(pairs.PADS)
    assert [r["first"] for r in result["runs"]] == ["base", "change"]
    assert set(result["summary"]) == {m["name"] for m in pairs.SPEC["end_to_end"]}
    assert not any(s["claim"] for s in result["summary"].values())
