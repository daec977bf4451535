"""Command-line front end: waveform export plus the Monte-Carlo experiments.

Experiment parameters come from a JSON config file (one object, or a list of
objects, each of which a metric command runs) with ExperimentConfig field
names; --seed and --trials override the file. Results land in the
fixed-schema CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .harness import RUNNERS, ExperimentConfig, _estimator, sweep, transmit_frame
from .numerics import SeededRng
from .receiver import (dump_diagnostics, estimate_channel, fold_spectrum,
                       front_end, mmse_equalize)
from .transmitter import write_waveform


def _load_configs(path, overrides) -> list[ExperimentConfig]:
    if path:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = {}
    items = raw if isinstance(raw, list) else [raw]
    known = {f.name for f in fields(ExperimentConfig)}
    configs = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"config entry {index} is not a JSON object: {item!r}")
        unknown = sorted(set(item) - known)
        if unknown:
            raise ValueError(f"config entry {index}: unknown field(s) "
                             f"{', '.join(unknown)}")
        item = dict(item)
        item.update(overrides)
        if "snr_db" in item and not isinstance(item["snr_db"], (list, tuple)):
            item["snr_db"] = [item["snr_db"]]
        try:
            configs.append(ExperimentConfig(**item))
        except ValueError as err:
            raise ValueError(f"config entry {index}: {err}") from err
    return configs


def _overrides(args) -> dict:
    out = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        out["trials"] = args.trials
    return out


def _cmd_tx(args) -> int:
    configs = _load_configs(args.config, _overrides(args))
    if len(configs) != 1:
        raise ValueError(f"tx needs exactly one config entry, got {len(configs)}")
    (cfg,) = configs
    scheme, layout, filt, grid = cfg.resolve()
    # the runners' estimator rule, checked before anything is written
    est_cfg = _estimator(scheme, layout, filt, cfg.ridge) if args.verbose else None
    ((_, time, rs_core, _, _),) = transmit_frame(((layout, filt, grid),), scheme,
                                                 SeededRng(cfg.seed, 0))
    write_waveform(args.out, time, scheme, layout, filt, grid,
                   seed_info=f"{cfg.seed}/0")
    print(f"wrote {time.size} samples to {args.out}")
    if args.verbose:
        demapped = front_end(time, grid)
        folded = fold_spectrum(demapped, filt)
        response = estimate_channel(folded, filt, layout, rs_core, est_cfg)
        # no ARS stage runs here, so the phase step is 0
        print(dump_diagnostics(demapped, folded, response,
                               mmse_equalize(folded, response, 0.0), 0.0, layout))
    return 0


def _report(records, out_path) -> int:
    """Say where the records were written (or print them), then print each
    distinct record warning, in record order, to stderr."""
    if out_path:
        print(f"wrote {len(records)} records to {out_path}")
    else:
        for r in records:
            print(f"{r.metric} {r.iv_name}={r.iv_value:g} -> {r.value:.6g}")
    for w in dict.fromkeys(r.warning for r in records if r.warning):
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    """Run the metrics (a metric command's own, or sweep's --metrics) over
    every config entry."""
    configs = _load_configs(args.config, _overrides(args))
    return _report(sweep(configs, args.metrics.split(","), args.out), args.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="otfdm",
        description="OTFDM link-level simulator: waveform export and "
        "Monte-Carlo metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True, trials=True):
        p.add_argument("--config", help="JSON experiment config", default=None)
        p.add_argument("--seed", type=int, default=None)
        if trials:
            p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", required=needs_out,
                       help="output path" if needs_out else "CSV output path",
                       default=None if not needs_out else argparse.SUPPRESS)

    p_tx = sub.add_parser("tx", help="emit one waveform file plus text header")
    common(p_tx, needs_out=True, trials=False)
    p_tx.add_argument("-v", "--verbose", action="store_true",
                      help="also print the receiver's diagnostics of the symbol")
    p_tx.set_defaults(func=_cmd_tx)

    for name, runner in RUNNERS.items():
        # argparse %-formats help text, and a docstring may say "1%"
        doc = " ".join((runner.__doc__ or "").split()).replace("%", "%%")
        p = sub.add_parser(name, help=doc)
        common(p, needs_out=False)
        p.set_defaults(func=_cmd_sweep, metrics=name)

    p_sw = sub.add_parser("sweep", help="run metrics over a config grid to CSV")
    common(p_sw, needs_out=True)
    p_sw.add_argument("--metrics", default="overhead",
                      help=f"comma-separated: {','.join(RUNNERS)}")
    p_sw.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"otfdm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
