"""Paired speed comparison of a base revision against the working tree.

Run from the root of a git checkout:

    python3 tools/pairs.py --base HEAD --workload ber_awgn_qam64 \\
        --pairs 10 --seeds 901-910 --seconds 10 --out pairs.json

Both sides are exported into a scratch directory (`--scratch`, by default a
new temporary one that is removed afterwards), each at two path lengths: the
base with `git archive`, the change (`--change`, by default the working tree)
as `git archive` of that revision or as a copy of the files git tracks or
would track. Nothing in `.git` changes. Pair i runs one untraced
`perfbench/run.py` per side, at seed i of `--seeds` (cycled), in the copy
of path length i mod 2; the side that runs first alternates with i, so
both orders meet both lengths.

For each end-to-end metric of BENCHMARK.json it reports per side the median
and quartiles (`statistics.quantiles(values, n=4)`), the pairs the change
wins, the median gap in the metric's better direction against the base's
quartile distance, and the layout spread: the largest gap between one
side's medians at its two path lengths, as a share of its median. The same
code at two path lengths differs by memory layout alone, so a gap below the
spread does not tell code from layout. A metric is claimed (`claim`) if
there are at least 10 pairs, the change wins at least nine tenths of them
and the gap exceeds the base's quartile distance. Runs are made one after
another, never in parallel. The result is printed and, with `--out`,
written as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Suffix lengths of the two copies of each side: the same code at paths
# that differ only in length.
PADS = (1, 10)
MIN_PAIRS = 10
WIN_SHARE = 0.9
TIMEOUT_S = 600


def seeds(text: str) -> list:
    """The seeds of `N` or of the range `LO-HI`; an empty range raises, so
    that argparse refuses it like a malformed value."""
    lo, _, hi = text.partition("-")
    got = list(range(int(lo), int(hi or lo) + 1))
    if not got:
        raise ValueError(f"empty seed range {text!r}")
    return got


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, timeout=TIMEOUT_S).stdout


def export(rev: str | None, dest: Path) -> None:
    """Revision `rev` (`git archive`), or with None the working tree's files
    that git tracks or would track, into the new directory `dest`."""
    dest.mkdir(parents=True)
    if rev is not None:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar",
                                                  rev))) as tar:
            tar.extractall(dest, filter="data")
        return
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(copy: Path, workload: str, seed: int, seconds: float,
             tiny: bool) -> dict | None:
    """The result object of one untraced benchmark run in `copy`, or None if
    it ran past TIMEOUT_S, exited with an error or found incorrect records."""
    cmd = [sys.executable, str(copy / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", *(["--tiny"] if tiny else [])]
    try:
        proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{copy.name} seed {seed}: timed out after {TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{copy.name} seed {seed}: exited with {proc.returncode}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{copy.name} seed {seed}: incorrect records", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def claim(base: list, change: list, higher_is_better: bool) -> dict:
    """The paired claim rule on one metric: base[i] and change[i] are pair
    i's values. The gap is the change's median minus the base's, signed so
    that positive is better."""
    sign = 1.0 if higher_is_better else -1.0
    (b1, bmed, b3), (c1, cmed, c3) = quartiles(base), quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gap = sign * (cmed - bmed)
    return {
        "base": {"median": bmed, "q1": b1, "q3": b3},
        "change": {"median": cmed, "q1": c1, "q3": c3},
        "pairs": len(base), "wins": wins, "gap": gap, "base_iqr": b3 - b1,
        "claim": (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
                  and gap > b3 - b1),
    }


def layout_spread(values: list, pads: list) -> float:
    """Largest gap between the medians of one side's runs at each path
    length, over the median of all its runs; 0.0 with one length."""
    medians = [statistics.median([v for v, p in zip(values, pads) if p == pad])
               for pad in sorted(set(pads))]
    return (max(medians) - min(medians)) / statistics.median(values)


def compare(base: str, change: str | None, workload: str, pairs: int,
            seed_list: list, seconds: float, tiny: bool, scratch: Path) -> dict:
    copies = {}
    for side, rev in (("base", base), ("change", change)):
        for pad in PADS:
            copies[side, pad] = scratch / f"{side}{'_' * pad}"
            export(rev, copies[side, pad])
    runs = []
    for i in range(pairs):
        seed, pad = seed_list[i % len(seed_list)], PADS[i % len(PADS)]
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {side: run_once(copies[side, pad], workload, seed, seconds, tiny)
               for side in order}
        runs.append({"seed": seed, "pad": pad, "first": order[0], **got})
        print(f"pair {i}: seed {seed}, pad {pad}, {order[0]} first: "
              + ", ".join(f"{s} {got[s] and round(got[s]['trials_per_s'], 1)}"
                          for s in ("base", "change")), flush=True)
    ok = [r for r in runs if r["base"] and r["change"]]
    summary = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        if not ok:
            break
        base_v = [r["base"][name] for r in ok]
        change_v = [r["change"][name] for r in ok]
        pads = [r["pad"] for r in ok]
        summary[name] = dict(
            claim(base_v, change_v, metric["better"] == "higher"),
            layout_spread={"base": layout_spread(base_v, pads),
                           "change": layout_spread(change_v, pads)})
        if len(ok) < len(runs):
            summary[name]["claim"] = False
    return {"base": base, "change": change or "working tree",
            "workload": workload, "seconds": seconds, "tiny": tiny,
            "seeds": seed_list, "failed_pairs": len(runs) - len(ok),
            "runs": runs, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--change", help="changed git revision "
                        "(default: the working tree)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seeds", type=seeds, default=seeds("901-910"))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--tiny", action="store_true",
                        help="tiny trial counts (self-tests only)")
    parser.add_argument("--scratch", type=Path,
                        help="directory for the exported copies, which must "
                        "not be in it yet (default: a temporary one, removed "
                        "after)")
    parser.add_argument("--out", type=Path, help="write the result as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        result = compare(args.base, args.change, args.workload, args.pairs,
                         args.seeds, args.seconds, args.tiny, scratch)
    finally:
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)
    for name, s in result["summary"].items():
        print(f"{name:<13} base {s['base']['median']:.6g} "
              f"[{s['base']['q1']:.6g}, {s['base']['q3']:.6g}]  change "
              f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
              f"{s['change']['q3']:.6g}]  wins {s['wins']}/{s['pairs']}  "
              f"gap {s['gap']:+.6g} vs base IQR {s['base_iqr']:.6g}  layout "
              f"spread {s['layout_spread']['base']:.2%}/"
              f"{s['layout_spread']['change']:.2%}  claim {s['claim']}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 1 if result["failed_pairs"] else 0


if __name__ == "__main__":
    sys.exit(main())
