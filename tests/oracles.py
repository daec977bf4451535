"""Independent reference implementations used as test oracles.

Everything here is deliberately written from definitions (direct summation,
decision-region integration, quadrature) rather than reusing library code, so
the tests check the fast paths against slow but obviously-correct math.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def dft_direct(x, inverse=False):
    """O(n^2) summation DFT; forward unnormalized, inverse with 1/n."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    sign = 1j if inverse else -1j
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        acc = 0.0 + 0.0j
        for m in range(n):
            acc += x[m] * np.exp(sign * 2.0 * np.pi * k * m / n)
        out[k] = acc
    return out / n if inverse else out


def extend_and_shape_direct(x_t, weights, excess):
    """Direct recomputation of precode + cyclic extension + shaping."""
    x_t = np.asarray(x_t, dtype=np.complex128)
    m = x_t.size
    spectrum = dft_direct(x_t)
    out = np.empty(m + 2 * excess, dtype=np.complex128)
    for j in range(m + 2 * excess):
        k_ext = j - excess
        out[j] = weights[j] * spectrum[k_ext % m]
    return out


def fold_direct(demapped, weights, alloc_size, excess):
    """Direct triple-sum spectrum fold over the aliases of each output bin."""
    y = np.asarray(demapped, dtype=np.complex128)
    out = np.zeros(alloc_size, dtype=np.complex128)
    for k in range(alloc_size):
        for p in (-1, 0, 1):
            j = k + p * alloc_size + excess
            if 0 <= j < y.size:
                out[k] += np.conj(weights[j]) * y[j]
    return out


def cyclic_fold_direct(x, length, offset=0):
    """Alias x onto `length` cyclic bins one element at a time, in ascending
    index order: x[j] lands in bin (j - offset) mod length."""
    x = np.asarray(x)
    out = np.zeros(length, dtype=x.dtype)
    for j in range(x.size):
        out[(j - offset) % length] += x[j]
    return out


def fold_composite_direct(weights, alloc_size, excess, channel_bins):
    """True folded composite response: sum of |w|^2 H over each bin's aliases."""
    out = np.zeros(alloc_size, dtype=np.complex128)
    for k in range(alloc_size):
        for p in (-1, 0, 1):
            j = k + p * alloc_size + excess
            if 0 <= j < weights.size:
                out[k] += abs(weights[j]) ** 2 * channel_bins[j]
    return out


def jakes_direct(powers, num_samples, doppler_hz, sample_rate_hz, rng,
                 num_sinusoids=32):
    """Per-tap sum-of-sinusoids Rayleigh gains with one complex exponential per
    (sinusoid, sample). Tap after tap it draws the phases, then (at nonzero
    Doppler) the arrival angles; a zero Doppler holds one constant gain."""
    rows = []
    for p in powers:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=num_sinusoids)
        if doppler_hz == 0.0:
            g = np.sum(np.exp(1j * phases)) / np.sqrt(num_sinusoids)
            rows.append(np.sqrt(p) * np.full(num_samples, g, dtype=np.complex128))
            continue
        angles = rng.uniform(0.0, 2.0 * np.pi, size=num_sinusoids)
        t = np.arange(num_samples) / sample_rate_hz
        arg = 2.0 * np.pi * doppler_hz * np.outer(np.cos(angles), t) + phases[:, None]
        rows.append(np.sqrt(p) * np.sum(np.exp(1j * arg), axis=0)
                    / np.sqrt(num_sinusoids))
    return np.stack(rows)


def apply_per_tap_direct(signal, kernels, gains):
    """Time-varying tap sum with one np.convolve per tap: tap t's full
    convolution weighted sample by sample by its gain trajectory, the last
    gain held over the convolution tail; no noise."""
    x = np.asarray(signal, dtype=np.complex128)
    out_len = x.size + kernels.shape[1] - 1
    y = np.zeros(out_len, dtype=np.complex128)
    for kernel, traj in zip(kernels, gains):
        if traj.size < out_len:
            traj = np.concatenate([traj, np.full(out_len - traj.size, traj[-1])])
        y += traj[:out_len] * np.convolve(x, kernel)
    return y


def tap_sum_one_product(signal, kernels, gains):
    """Time-varying tap sum as one real matrix product over the whole sliding
    window (the reversed kernels times every shift of the zero-padded
    signal's interleaved floats), each tap weighted by its gains, the last
    gain held over the tail, then summed over taps; no noise. The tiled
    channel code must equal it byte for byte."""
    x = np.asarray(signal, dtype=np.complex128)
    ir_len = kernels.shape[1]
    out_len = x.size + ir_len - 1
    padded = np.zeros(x.size + 2 * (ir_len - 1), dtype=np.complex128)
    padded[ir_len - 1 : ir_len - 1 + x.size] = x
    window = sliding_window_view(padded.view(np.float64), 2 * out_len)[::2]
    conv = (np.ascontiguousarray(kernels[:, ::-1])
            @ np.ascontiguousarray(window)).view(np.complex128)
    span = min(gains.shape[1], out_len)
    np.multiply(gains[:, :span], conv[:, :span], out=conv[:, :span])
    np.multiply(gains[:, -1:], conv[:, span:], out=conv[:, span:])
    return conv.sum(axis=0)


def hst_phase_direct(cfg, t):
    """Closed-form HST carrier phase at one time t, in Python floats:
    2*pi*fd_max/v * (d(0) - d(t)), d(u) the distance to the site at u."""
    def dist(u):
        return float(np.hypot(cfg.dmin_m, cfg.ds_m / 2.0 - cfg.speed_ms * u))

    return 2.0 * np.pi * cfg.max_doppler_hz / cfg.speed_ms * (dist(0.0) - dist(t))


def nearest_point_bits(rx, points, labels):
    """Brute-force hard demapper over the full constellation.

    points[i] carries the bit row labels[i]. Per received sample: the bits
    of the nearest point, flattened sample by sample.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    bits = np.empty((rx.size, labels.shape[1]), dtype=np.int64)
    for n, r in enumerate(rx):
        bits[n] = labels[np.argmin(np.abs(r - points) ** 2)]
    return bits.ravel()


def qfunc(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _gray_pam_levels(bits_per_axis):
    """(levels, bit patterns) for the Gray PAM axis used by square QAM."""
    count = 2**bits_per_axis
    patterns = [
        [(i >> (bits_per_axis - 1 - c)) & 1 for c in range(bits_per_axis)]
        for i in range(count)
    ]
    levels = []
    for bits in patterns:
        acc = 0
        idx = 0
        for b in bits:
            acc ^= b
            idx = 2 * idx + acc
        levels.append(2 * idx - (count - 1))
    return np.array(levels, dtype=float), np.array(patterns, dtype=int)


def qam_ber_exact(bits_per_symbol, noise_var):
    """Exact Gray square-QAM bit error rate in complex noise of the given
    variance, for a unit-average-power constellation, via decision-region
    integration on each PAM axis."""
    per_axis = bits_per_symbol // 2
    levels, patterns = _gray_pam_levels(per_axis)
    scale = math.sqrt(2.0 * (4**per_axis - 1) / 3.0)
    pts = np.sort(levels) / scale
    order = np.argsort(levels)
    pat_sorted = patterns[order]
    bounds = (pts[:-1] + pts[1:]) / 2.0
    sigma = math.sqrt(noise_var / 2.0)

    total = 0.0
    count = len(pts)
    for i, x in enumerate(pts):
        # probability of deciding each region given x was sent
        upper = np.concatenate([bounds, [np.inf]])
        lower = np.concatenate([[-np.inf], bounds])
        for j in range(count):
            lo = 1.0 if lower[j] == -np.inf else qfunc((lower[j] - x) / sigma)
            hi = 0.0 if upper[j] == np.inf else qfunc((upper[j] - x) / sigma)
            p_region = lo - hi
            nbit_err = int(np.sum(pat_sorted[i] != pat_sorted[j]))
            total += p_region * nbit_err
    # average over equiprobable levels and per-axis bits; both axes identical
    return total / (count * per_axis)


def bessel_j0(x):
    """J0 via midpoint quadrature of its integral representation."""
    phi = (np.arange(4000) + 0.5) * (np.pi / 4000)
    return float(np.mean(np.cos(x * np.sin(phi))))


def ccdf_scan(values, grid):
    """Pr[value > t] by one full scan of the values per threshold t."""
    values = np.asarray(values, dtype=float)
    return [(float(t), float(np.mean(values > t)))
            for t in np.asarray(grid, dtype=float)]


# --------------------------------------------------------------------------
# Per-trial Monte-Carlo runners. Unlike the rest of this module these reuse
# the library: they are the one-symbol-at-a-time composition of the 1-D
# receiver stages, with the same per-trial streams, draws, channels and
# pooling as the runners, so a runner that stacks trials must give the same
# values to the bit.
# --------------------------------------------------------------------------

from otfdm import harness as h  # noqa: E402
from otfdm.channel import apply_channel  # noqa: E402
from otfdm.numerics import SeededRng, cyclic_fold  # noqa: E402
from otfdm.receiver import (  # noqa: E402
    EstimatorConfig,
    ars_phase_correct,
    estimate_channel,
    fold_spectrum,
    front_end,
    hard_bits,
    mmse_equalize,
)
from otfdm.sequences import FrameLayout  # noqa: E402
from otfdm.transmitter import generate_otfdm  # noqa: E402


def _composite_truth_1d(ch, grid, filt):
    """Oracle folded composite of one realization mid first symbol: the
    fft_size-point transform of its impulse response on the mapped bins,
    times the squared shaping gain, aliased to the allocation grid."""
    mid = grid.cp_len + grid.fft_size // 2
    response = np.fft.fft(ch.impulse_response(mid), grid.fft_size)
    h_bins = response[grid.mapped_bins()]
    return cyclic_fold((filt.weights**2) * h_bins, grid.alloc_size, grid.excess)


def _mmse_bias_1d(response, inv_snr):
    power = np.abs(response) ** 2
    return max(float(np.mean(power / (power + inv_snr))), 1e-6)


def _data_errors_1d(data, response, inv_snr, scheme, bits, sent):
    data = data / _mmse_bias_1d(response, inv_snr)
    hard = hard_bits(data, scheme)
    return (int(np.count_nonzero(hard != bits)), bits.size,
            float(np.sum(np.abs(data - sent) ** 2)),
            float(np.sum(np.abs(sent) ** 2)))


def otfdm_trial(cfg, scheme, layout, filt, grid, est_cfg, snr_db, trial):
    """One end-to-end OTFDM symbol; (bit_errors, bits, error_power,
    reference_power) on its data segment."""
    time_var, inv_snr = h._noise_vars(grid, snr_db)
    rng = SeededRng(cfg.seed, trial)
    bits = h._data_bits(rng, layout, scheme)
    tx, rs_core, data, ars = generate_otfdm(bits, scheme, layout, filt, grid,
                                            rng)
    ch = h._make_channel(cfg, grid, rng, num_samples=tx.size)
    rx = apply_channel(tx, ch)
    if time_var:
        rx += rng.complex_normal(rx.size, time_var)
    folded = fold_spectrum(front_end(rx, grid), filt)
    if cfg.genie_channel:
        response = _composite_truth_1d(ch, grid, filt)
    else:
        response = estimate_channel(folded, filt, layout, rs_core, est_cfg)
    eq = mmse_equalize(folded, response, inv_snr)
    if layout.ars_len and cfg.ars_correction:
        eq, _ = ars_phase_correct(eq, ars, layout)
    return _data_errors_1d(eq[layout.data_start : layout.ars_start], response,
                           inv_snr, scheme, bits, data)


def dfts_baseline_trial(cfg, scheme, grid, snr_db, trial):
    """One two-symbol DFT-s-OFDM reference trial (dedicated RS symbol, LS
    estimate reused on the data symbol)."""
    m = cfg.alloc_size
    layout = FrameLayout(0, 0, 0, m, 0)
    filt = h.filter_for("NONE", m, 0.0)
    time_var, inv_snr = h._noise_vars(grid, snr_db)
    rng = SeededRng(cfg.seed, trial)
    rs_time, rs_core, _, _ = generate_otfdm(np.zeros(0, dtype=np.int64), scheme,
                                            FrameLayout(m, 0, 0, 0, 0), filt,
                                            grid, rng)
    bits = rng.bits(m * scheme.bits_per_symbol)
    data_time, _, data, _ = generate_otfdm(bits, scheme, layout, filt, grid, rng)
    tx = np.concatenate([rs_time, data_time])
    ch = h._make_channel(cfg, grid, rng, num_samples=tx.size)
    rx = apply_channel(tx, ch)
    if time_var:
        rx += rng.complex_normal(rx.size, time_var)
    half = grid.fft_size + grid.cp_len
    y_rs = fold_spectrum(front_end(rx[:half], grid), filt)
    y_data = fold_spectrum(front_end(rx[half:], grid), filt)
    response = y_rs / np.fft.fft(rs_core)
    eq = mmse_equalize(y_data, response, inv_snr)
    return _data_errors_1d(eq, response, inv_snr, scheme, bits, data)


def _pooled_ber_evm(rows):
    errors, bits, err_pow, ref_pow = (sum(col) for col in zip(*rows))
    evm = 10.0 * math.log10(err_pow / ref_pow) if err_pow > 0 else float("-inf")
    return [errors / bits, evm]


def ber_values(cfg):
    """run_ber's record values, one trial at a time."""
    scheme, layout, filt, grid = cfg.resolve()
    est_cfg = EstimatorConfig(window_len=h.window_for(cfg.scheme, layout),
                              ridge=cfg.ridge)
    base_grid = h.grid_for(cfg.alloc_size, 0, cfg.scs_khz)
    values = []
    for snr_db in cfg.snr_db:
        values += _pooled_ber_evm(
            [otfdm_trial(cfg, scheme, layout, filt, grid, est_cfg, snr_db, t)
             for t in range(cfg.trials)])
        if cfg.compare_baseline:
            values += _pooled_ber_evm(
                [dfts_baseline_trial(cfg, scheme, base_grid, snr_db, t)
                 for t in range(cfg.trials)])
    return values


def mse_point(cfg, ext_pct, rs_pct, snr_db):
    """Mean over trials of the per-trial estimate-vs-truth MSE."""
    scheme, layout, filt, grid = cfg.resolve(extension_pct=ext_pct,
                                             rs_overhead_pct=rs_pct)
    est_cfg = EstimatorConfig(window_len=h.window_for(cfg.scheme, layout),
                              ridge=cfg.ridge)
    time_var, _ = h._noise_vars(grid, snr_db)
    per_trial = []
    for trial in range(cfg.trials):
        rng = SeededRng(cfg.seed, trial)
        tx, rs_core, _, _ = generate_otfdm(h._data_bits(rng, layout, scheme),
                                           scheme, layout, filt, grid, rng)
        ch = h._make_channel(cfg, grid, rng, num_samples=tx.size)
        rx = apply_channel(tx, ch)
        if time_var:
            rx += rng.complex_normal(rx.size, time_var)
        folded = fold_spectrum(front_end(rx, grid), filt)
        est = estimate_channel(folded, filt, layout, rs_core, est_cfg)
        truth = _composite_truth_1d(ch, grid, filt)
        per_trial.append(float(np.mean(np.abs(est - truth) ** 2)))
    return float(np.mean(per_trial))


def mse_values(cfg):
    """run_mse's record values, one trial at a time."""
    snr_db = cfg.snr_db[0]
    rs_fixed = cfg.rs_overhead_pct if cfg.rs_overhead_pct is not None else 8.0
    return ([mse_point(cfg, ext, rs_fixed, snr_db) for ext in cfg.gamma_sweep_pct]
            + [mse_point(cfg, cfg.extension_pct, rs, snr_db)
               for rs in cfg.rs_sweep_pct])


def papr_values(cfg, ccdf_point=0.01):
    """run_papr's record values, one trial at a time, with the CCDF taken
    by `ccdf_scan`."""
    scheme, layout, filt, grid = cfg.resolve()
    base_layout = FrameLayout(0, 0, 0, cfg.alloc_size, 0)
    base_filt = h.filter_for("NONE", cfg.alloc_size, 0.0)
    base_grid = h.grid_for(cfg.alloc_size, 0, cfg.scs_khz)

    def power(sym, grid):
        p = np.abs(sym[0][grid.cp_len :]) ** 2
        return p / p.mean()

    shaped, plain = [], []
    for trial in range(cfg.trials):
        rng = SeededRng(cfg.seed, trial)
        shaped.append(power(generate_otfdm(
            h._data_bits(rng, layout, scheme), scheme, layout, filt, grid, rng),
            grid))
        plain.append(power(generate_otfdm(
            h._data_bits(rng, base_layout, scheme), scheme, base_layout,
            base_filt, base_grid, rng), base_grid))
    shaped, plain = np.concatenate(shaped), np.concatenate(plain)
    grid_lin = 10.0 ** (np.asarray(h.PAPR_CCDF_GRID_DB) / 10.0)
    values = []
    for (_, p_shaped), (_, p_plain) in zip(ccdf_scan(shaped, grid_lin),
                                           ccdf_scan(plain, grid_lin)):
        values += [p_shaped, p_plain]
    q_shaped, q_plain = (float(10.0 * np.log10(np.quantile(p, 1.0 - ccdf_point)))
                         for p in (shaped, plain))
    return values + [q_shaped, q_plain, q_plain - q_shaped]


# --------------------------------------------------------------------------
# Analytic AWGN anchors: the absolute scale of the estimator MSE and of the
# genie EVM, which the SNR convention, the front-end scale, the fold and the
# estimator window set together. On a fold-flat (SQRC) filter the folded
# time symbol carries white noise of variance inv_snr per sample. Both
# anchors hold without ridge only, so tap filters are not covered.
# --------------------------------------------------------------------------

from otfdm.receiver import PRE_MARGIN, _reference  # noqa: E402
from otfdm.sequences import make_rs_core  # noqa: E402


def mse_awgn_oracle(cfg, ext_pct, rs_pct, snr_db):
    """(mean, per-trial standard deviation) of the per-trial estimate-vs-
    truth MSE of a Zadoff-Chu RS on AWGN with an SQRC filter.

    LS on the L_r-sample core divides white noise by the reference spectrum
    R (`receiver._reference`); its impulse noise n is circulant with lag d
    covariance inv_snr * ifft(1 / |R|^2)[d]. The estimator keeps W + margin
    taps (margin = min(PRE_MARGIN, L_r - W)), and by Parseval a trial's MSE
    is the power n^H n of the kept taps, whose covariance C gives mean
    tr(C) = inv_snr * (W + margin) * mean_k 1/|R_k|^2 and variance tr(C^2)
    (van de Beek et al., VTC 1995; Morelli & Mengali, IEEE TSP 2001).
    """
    scheme, layout, filt, _ = cfg.resolve(extension_pct=ext_pct,
                                          rs_overhead_pct=rs_pct)
    composite = filt.folded_square()
    assert filt.kind == "SQRC" and np.allclose(composite, 1.0, atol=1e-12)
    est_cfg = EstimatorConfig(window_len=h.window_for(cfg.scheme, layout))
    spectrum, _ = _reference(make_rs_core(layout.rs_len, scheme), layout,
                             filt, est_cfg)
    inv_snr = 10.0 ** (-snr_db / 10.0)
    l_r, w = layout.rs_len, est_cfg.window_len
    margin = min(PRE_MARGIN, l_r - w)
    kept = np.r_[0:w, l_r - margin : l_r]
    lag = inv_snr * np.fft.ifft(1.0 / np.abs(spectrum) ** 2)
    cov = lag[(kept[:, None] - kept[None, :]) % l_r]
    return (float(np.trace(cov).real),
            float(np.sqrt(np.sum(np.abs(cov) ** 2))))


def genie_evm_awgn_oracle(scheme, data_len, snr_db):
    """(error-to-reference power ratio, its per-trial standard deviation) of
    the genie receiver on AWGN with an SQRC filter, whose pooled ratio is
    the record's EVM in dB.

    Unbiased MMSE on a flat unit channel leaves each data symbol its white
    noise of variance inv_snr, so the ratio is inv_snr. Over one trial's D
    symbols, the error power has relative variance 1/D and the reference
    power (E|s|^4 - 1)/D, so the ratio's is E|s|^4 / D (delta method).
    """
    bps = scheme.bits_per_symbol
    labels = (np.arange(2**bps)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
    kurtosis = float(np.mean(np.abs(modulate_direct(labels.ravel(), scheme)) ** 4))
    inv_snr = 10.0 ** (-snr_db / 10.0)
    return inv_snr, inv_snr * math.sqrt(kurtosis / data_len)


# --------------------------------------------------------------------------
# The transmit chain written out stage by stage, with nothing cached: the
# Gray formula per call, the ZC core, RS block and extension index rebuilt
# per symbol, and every stage output a fresh array. The library's
# transmitter must give the same symbol to the bit.
# --------------------------------------------------------------------------

from otfdm.sequences import ZC_ROOT  # noqa: E402


def _gray_pam_direct(bits):
    """Gray-coded PAM levels {-(L-1), ..., L-1} of the rows of `bits`."""
    n, m = bits.shape
    level = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    for c in range(m):
        acc ^= bits[:, c]
        level = 2 * level + acc
    return 2 * level - (2**m - 1)


def modulate_direct(bits, scheme):
    """Unit-average-power constellation symbols, computed per bit group."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    bps = scheme.bits_per_symbol
    nsym = bits.size // bps
    if scheme.name == "PI2_BPSK":
        bpsk = (1 - 2 * bits) * (1 + 1j) / np.sqrt(2.0)
        rot = np.where(np.arange(nsym) % 2 == 1, 1j, 1.0 + 0j)
        return bpsk * rot
    if scheme.name == "QPSK":
        return ((1 - 2 * bits[0::2]) + 1j * (1 - 2 * bits[1::2])) / np.sqrt(2.0)
    grouped = bits.reshape(nsym, bps)
    i = _gray_pam_direct(grouped[:, 0::2])
    q = _gray_pam_direct(grouped[:, 1::2])
    levels = 2 ** (bps // 2)
    scale = math.sqrt(2.0 * (levels * levels - 1) / 3.0)
    return (i + 1j * q) / scale


def _largest_prime_le_direct(n):
    while n >= 2 and any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


def _reference_core_direct(length, scheme, rng):
    if length == 0:
        return np.zeros(0, dtype=np.complex128)
    if scheme.name == "PI2_BPSK":
        return modulate_direct(rng.bits(length), scheme)
    prime = _largest_prime_le_direct(length) if length >= 2 else 1
    n = np.arange(prime, dtype=np.float64)
    base = np.exp(-1j * np.pi * ZC_ROOT * n * (n + 1) / prime)
    return base[np.arange(length) % prime]


def _rs_block_direct(core, layout):
    head = core[core.size - layout.rs_cp :] if layout.rs_cp else core[:0]
    return np.concatenate([head, core, core[: layout.rs_cs]])


def generate_otfdm_direct(bits, scheme, layout, filt, grid, rng):
    """(symbol, multiplexed, shaped): generate_otfdm's (time samples, RS
    core, data, ARS), drawing the RS then the ARS from `rng` as the library
    does, and the two stage outputs the chain computed on the way."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    rs_core = _reference_core_direct(layout.rs_len, scheme, rng)
    rs_block = _rs_block_direct(rs_core, layout)
    data = modulate_direct(bits, scheme)
    ars = _reference_core_direct(layout.ars_len, scheme, rng)
    multiplexed = np.concatenate([rs_block, data, ars])

    m, g, n = grid.alloc_size, grid.excess, grid.fft_size
    spectrum = np.fft.fft(multiplexed)
    j = np.arange(m + 2 * g)
    shaped = filt.weights * spectrum[(j - g) % m]
    mapped = np.zeros(n, dtype=np.complex128)
    mapped[(grid.first_subcarrier + j) % n] = shaped
    body = np.fft.ifft(mapped) * (n / m)
    time = np.concatenate([body[n - grid.cp_len :], body]) if grid.cp_len else body
    return (time, rs_core, data, ars), multiplexed, shaped
