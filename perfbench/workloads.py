"""The benchmark's workloads: which public runners run on which configs.

Every workload is a closed loop in one process and one thread: a pass calls
its runners in order with `n_workers=1`, and the next pass starts when the
last runner returns. The benchmark seed becomes `ExperimentConfig.seed`; the
runners see nothing else of the benchmark. Trial counts are sized so that a
pass takes 0.2-0.5 s on one core of a 2-core x86 machine: a run then has
dozens of passes, and their median is robust to the bursts of contention
that shared machines show.
"""

from __future__ import annotations

# Default seed of the benchmark; its records are the stored reference CSVs.
DEFAULT_SEED = 1

# Trial counts are divided by this (at least one trial per config) in the
# tiny mode the self-tests use.
TINY_DIVISOR = 50

# name -> ((runner name, ExperimentConfig keyword arguments), ...)
WORKLOADS = {
    # Criterion 5's config. Only the transmitter and the harness CCDF and
    # quantile pooling work; channel and receiver do nothing.
    "papr_qpsk": (
        ("run_papr", dict(scheme="QPSK", alloc_size=240, extension_pct=5.0,
                          rs_overhead_pct=8.0, trials=500)),
    ),
    # The receiver dominates (demapper and estimator); the channel is a
    # flat tap. Fold constants and the demapper show here.
    "ber_awgn_qam64": (
        ("run_ber", dict(scheme="QAM64", alloc_size=240, extension_pct=5.0,
                         channel="AWGN", snr_db=(14.0, 18.0, 22.0),
                         trials=100)),
    ),
    # Static 24-tap TDL-C: channel application and the per-trial delay
    # kernels dominate. No demapping, so demapper work is bypassed.
    "mse_tdlc_static": (
        ("run_mse", dict(scheme="QPSK", alloc_size=480, channel="TDLC",
                         delay_spread_ns=1000.0, speed_kmh=0.0,
                         snr_db=(30.0,), rs_overhead_pct=8.0,
                         gamma_sweep_pct=(0.0, 5.0, 10.0),
                         rs_sweep_pct=(5.0, 8.0, 12.0), trials=6)),
    ),
    # Time-varying channel realization is nearly all the work; the two
    # halves take a similar share of a pass. Only workload with ARS.
    "ber_mobility": (
        ("run_ber", dict(scheme="QAM64", alloc_size=240, extension_pct=5.0,
                         channel="TDLC", delay_spread_ns=1000.0,
                         speed_kmh=120.0, snr_db=(30.0,), trials=4)),
        ("run_ber", dict(scheme="QAM256", alloc_size=240, extension_pct=5.0,
                         ars_pct=2.0, channel="HST", speed_kmh=500.0,
                         fc_ghz=7.0, snr_db=(30.0,), trials=28)),
    ),
}


def build(name: str, seed: int, tiny: bool = False):
    """[(runner name, ExperimentConfig), ...] for one pass of a workload."""
    from otfdm.harness import ExperimentConfig

    runs = []
    for runner, kwargs in WORKLOADS[name]:
        kwargs = dict(kwargs, seed=seed, n_workers=1)
        if tiny:
            kwargs["trials"] = max(kwargs["trials"] // TINY_DIVISOR, 1)
        runs.append((runner, ExperimentConfig(**kwargs)))
    return runs


def harness_trials(runner: str, cfg) -> int:
    """Number of `SeededRng(seed, trial)` streams the runner builds: one
    symbol pair per trial for run_papr, one symbol per SNR for run_ber, one
    symbol per sweep point for run_mse."""
    if runner == "run_papr":
        return cfg.trials
    if runner == "run_ber":
        return cfg.trials * len(cfg.snr_db)
    if runner == "run_mse":
        return cfg.trials * (len(cfg.gamma_sweep_pct) + len(cfg.rs_sweep_pct))
    raise ValueError(f"harness_trials: unknown runner {runner!r}")
