"""Command-line front end: waveform export plus the Monte-Carlo experiments.

Experiment parameters come from a JSON config file (one object, or a list of
objects for `sweep`) with ExperimentConfig field names; --seed and --trials
override the file. Results land in the fixed-schema CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ExperimentConfig,
    run_ber,
    run_mse,
    run_papr,
    run_pulse_decay,
    sweep,
    window_for,
    write_csv,
)
from .numerics import SeededRng
from .receiver import dump_diagnostics, estimate_channel, fold_spectrum, front_end
from .receiver import EstimatorConfig, mmse_equalize
from .transmitter import generate_otfdm, write_waveform


def _load_configs(path, overrides) -> list[ExperimentConfig]:
    if path:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = {}
    items = raw if isinstance(raw, list) else [raw]
    configs = []
    for item in items:
        item = dict(item)
        item.update(overrides)
        if "snr_db" in item and not isinstance(item["snr_db"], (list, tuple)):
            item["snr_db"] = [item["snr_db"]]
        for key in ("snr_db", "gamma_sweep_pct", "rs_sweep_pct"):
            if key in item:
                item[key] = tuple(item[key])
        configs.append(ExperimentConfig(**item))
    return configs


def _overrides(args) -> dict:
    out = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        out["trials"] = args.trials
    return out


def _cmd_tx(args) -> int:
    cfg = _load_configs(args.config, _overrides(args))[0]
    scheme, layout, filt, grid = cfg.resolve()
    rng = SeededRng(cfg.seed, 0)
    bits = rng.bits(layout.data_len * scheme.bits_per_symbol)
    symbol = generate_otfdm(bits, scheme, layout, filt, grid, rng)
    write_waveform(args.out, symbol, seed_info=f"{cfg.seed}/0")
    print(f"wrote {symbol.time_samples.size} samples to {args.out}")
    if args.verbose:
        folded = fold_spectrum(front_end(symbol.time_samples, grid), filt)
        est = estimate_channel(
            folded, layout, symbol.rs_core,
            EstimatorConfig(window_len=window_for(cfg.scheme, layout),
                            ridge=cfg.ridge),
        )
        eq = mmse_equalize(folded, est, 0.0)
        print(dump_diagnostics(folded, est, eq))
    return 0


def _run_and_write(records, out_path) -> int:
    if out_path:
        write_csv(records, out_path)
        print(f"wrote {len(records)} records to {out_path}")
    else:
        for r in records:
            print(f"{r.metric} {r.iv_name}={r.iv_value:g} -> {r.value:.6g}")
    warned = {r.warning for r in records if r.warning}
    for w in warned:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _cmd_metric(runner):
    def cmd(args) -> int:
        cfg = _load_configs(args.config, _overrides(args))[0]
        return _run_and_write(runner(cfg), args.out)

    return cmd


def _cmd_sweep(args) -> int:
    configs = _load_configs(args.config, _overrides(args))
    metrics = args.metrics.split(",")
    records = sweep(configs, metrics, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


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
        p.add_argument("-v", "--verbose", action="store_true")

    p_tx = sub.add_parser("tx", help="emit one waveform file plus text header")
    common(p_tx, needs_out=True, trials=False)
    p_tx.set_defaults(func=_cmd_tx)

    for name, runner, text in (
        ("papr", run_papr, "instantaneous-power CCDF and quantile gain"),
        ("mse", run_mse, "channel-estimation MSE sweeps"),
        ("ber", run_ber, "uncoded BER and EVM versus SNR"),
        ("pulse", run_pulse_decay, "effective-pulse tail decay"),
    ):
        p = sub.add_parser(name, help=text)
        common(p, needs_out=False)
        p.set_defaults(func=_cmd_metric(runner))

    p_sw = sub.add_parser("sweep", help="run metrics over a config grid to CSV")
    common(p_sw, needs_out=True)
    p_sw.add_argument("--metrics", default="overhead",
                      help="comma-separated: papr,mse,ber,pulse,overhead")
    p_sw.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"otfdm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
