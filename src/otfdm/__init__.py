"""Link-level simulation of the OTFDM waveform.

One OTFDM symbol time-multiplexes a guarded reference sequence, data, and an
optional phase-tracking tail before joint DFT precoding; excess-bandwidth
spectrum shaping localizes the effective channel so a single symbol carries
everything needed to estimate and equalize it. The receiver matched-filters
and folds the spectrum back to symbol rate, estimates the composite channel
from the embedded RS, equalizes with MMSE, and optionally derotates a
residual per-sample phase ramp measured on the tail pilots.
"""

from .channel import (
    ChannelRealization,
    HstConfig,
    apply_channel,
    custom_realization,
    flat_realization,
    hst_realization,
    tdlc_realization,
)
from .harness import (
    MOD_PROFILES,
    ExperimentConfig,
    MetricRecord,
    ModProfile,
    filter_for,
    grid_for,
    layout_for,
    run_ber,
    run_mse,
    run_papr,
    run_pulse_decay,
    sweep,
)
from .numerics import SeededRng, ccdf, dft, evm_db
from .receiver import (
    DegenerateEqualizer,
    EstimatorConfig,
    SingularReference,
    ars_phase_correct,
    check_equalizer,
    check_reference,
    estimate_channel,
    fold_spectrum,
    front_end,
    hard_bits,
    mmse_equalize,
)
from .sequences import (
    MOD_SCHEMES,
    PI2_BPSK,
    QAM16,
    QAM64,
    QAM256,
    QPSK,
    FrameLayout,
    ModScheme,
    ShapingFilter,
    build_rs_block,
    make_rs_core,
    make_sqrc_filter,
    make_taps_filter,
    modulate,
    zadoff_chu,
)
from .transmitter import (
    WaveformGrid,
    effective_pulse,
    generate_otfdm,
    map_and_modulate,
    multiplex_symbol,
    precode_extend_shape,
    write_waveform,
)

__version__ = "0.1.0"
