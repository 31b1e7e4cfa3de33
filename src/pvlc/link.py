"""Baseband PAM4 link through the nonlinear PV receiver.

Pipeline: bits -> Gray-mapped PAM4 symbols -> rectangular NRZ illuminance
waveform -> additive DC light sources -> samplewise OE conversion with
thermal and shot noise -> DC removal -> trained symbol slicer -> bits.

`simulate` is the one staged pipeline; `run_link`, the sweeps, the CLI eye
and the demos all call it.  Against the public per-sample stages it keeps
this contract, and tests compare both:
- The raw waveform is `receive`'s bit for bit.  Rectangular NRZ puts one
  illuminance per PAM4 level on the receiver, so the voltage and the noise
  variance come from a four-entry level table, and the waveform is built in
  blocks of BLOCK_SYMBOLS symbols that draw the same normals in the same
  order, even with both noise sources off (z * 0 adds +-0).
- mu is the in-order sum of the block sums over the sample count, not
  numpy's pairwise mean.  The plain statistics are the raw ones minus mu:
  the samplewise `ac_couple` -> `detect_pam4` pipeline up to rounding, with
  the same error counts.
- The receiver list alone decides what a cell keeps.  The waveform exists
  only for an entry that is not None; a `PostDistortionConfig` entry
  slices statistics taken block by block from it, and only a callable
  entry gets it AC-coupled in place and read-only.  One realization serves
  every receiver, so a plain/compensated comparison sees the same noise.
- The optional single-pole low-pass needs rectangular NRZ input: it runs at
  the symbol rate (`_single_pole_lowpass`), in `receive` as in `simulate`.

The default noise values (thermal_sigma_v, noise_bandwidth_hz) are
calibrated, not measured; see the README's calibration notes.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal

from .compensation import PostDistortionConfig, affine_tail, clip_bounds, invert_clipped
from .device import ModuleSpec, Q_E, check_count, check_number, module_voltage

FEC_BER_THRESHOLD = 2.0e-2
BIT_RATE = 1e6   # the paper's 1 Mbit/s; 2 bits per PAM4 symbol

LEVELS = (2.0 * np.arange(4) - 3.0) / 3.0   # -1, -1/3, +1/3, +1
BLOCK_SYMBOLS = 4096   # symbols per block of the level-table receiver: 256 KiB of float64 at 8 sps
TIED_CENTROID_ULPS = 16   # centroids this many ulps of the largest centroid magnitude apart are one level


class DetectionError(RuntimeError):
    """The slicer could not be trained from the given training symbols."""


@dataclass(frozen=True)
class LinkConfig:
    """Everything a single link run needs besides the module itself.

    mod_index is the peak AC illuminance divided by the DC illuminance, so
    PAM4 symbol s produces tx_dc_lux * (1 + mod_index * s) and stays
    nonnegative for mod_index <= 1.  The bit rate is the constant BIT_RATE.
    These checks are the only ones on link values; the sweeps rely on them.
    """

    samples_per_symbol: int = 8
    mod_index: float = 0.3
    tx_dc_lux: float = 425.0
    dcl_lux: float = 0.0
    ambient_lux: float = 0.0
    thermal_sigma_v: float = 1.5e-3        # calibrated, volts RMS
    noise_bandwidth_hz: float = 3.0e9      # calibrated effective value, Hz; 0 disables shot noise
    lpf_cutoff_hz: float | None = None
    training_symbols: int = 256
    seed: int = 0

    def __post_init__(self):
        check_count("samples_per_symbol", self.samples_per_symbol, 2)
        if check_number("mod_index", self.mod_index, 0, strict=True) > 1:
            raise ValueError(f"mod_index must be in (0, 1], got {self.mod_index!r}")
        check_number("tx_dc_lux", self.tx_dc_lux, 0, strict=True)
        for name in ("dcl_lux", "ambient_lux", "thermal_sigma_v", "noise_bandwidth_hz"):
            check_number(name, getattr(self, name), 0)
        if self.lpf_cutoff_hz is not None:
            check_number("lpf_cutoff_hz", self.lpf_cutoff_hz, 0, strict=True)
        check_count("training_symbols", self.training_symbols, 64)
        check_count("seed", self.seed, 0)

    @property
    def sample_rate(self) -> float:
        return BIT_RATE / 2.0 * self.samples_per_symbol


@dataclass(frozen=True)
class BerReport:
    """Bit error accounting for one link run: checked counts, and the BER and FEC verdict they give."""

    bits_total: int
    bits_errored: int
    ber: float = field(init=False)
    pass_fec: bool = field(init=False)

    def __post_init__(self):
        check_count("bits_total", self.bits_total, 1)
        if check_count("bits_errored", self.bits_errored, 0) > self.bits_total:
            raise ValueError(f"bits_errored must be <= bits_total ({self.bits_total}), got {self.bits_errored!r}")
        object.__setattr__(self, "bits_total", int(self.bits_total))
        object.__setattr__(self, "bits_errored", int(self.bits_errored))
        object.__setattr__(self, "ber", self.bits_errored / self.bits_total)
        object.__setattr__(self, "pass_fec", self.ber < FEC_BER_THRESHOLD)


def _check_bits(bits):
    bits = np.asarray(bits)
    if bits.size % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.size}")
    if bits.size:
        if bits.dtype.kind in "biu":
            binary = bits.min() >= 0 and bits.max() <= 1
        else:
            binary = np.isin(bits, (0, 1)).all()
        if not binary:
            raise ValueError("bits must be 0 or 1")
    return bits.astype(np.int64, copy=False)


def _dibits(bits):
    """Checked bits to uint8 dibit values 0..3, first bit most significant, with no int64 temporaries."""
    dibits = bits[0::2].astype(np.uint8)
    dibits <<= 1
    return np.bitwise_or(dibits, bits[1::2], out=dibits, casting="unsafe")


def _gray(codes):
    """Gray code x ^ (x >> 1): level index 0..3 <-> dibit value 00,01,11,10, self-inverse on 0..3."""
    return codes ^ (codes >> 1)


def bits_to_levels(bits):
    """Gray-map bit pairs to level indices 0..3 (00,01,11,10 in order)."""
    return _gray(_dibits(_check_bits(bits)))


def levels_to_bits(level_indices):
    """Inverse Gray mapping from level indices (integers 0..3) back to bits."""
    levels = np.asarray(level_indices)
    if levels.dtype.kind not in "iu" or (levels.size and (levels.min() < 0 or levels.max() > 3)):
        raise ValueError(f"level indices must be integers in 0..3, got {levels.dtype} {levels}")
    codes = _gray(levels)
    bits = np.empty(2 * codes.size, dtype=np.int64)
    bits[0::2] = codes >> 1
    bits[1::2] = codes & 1
    return bits


def encode_pam4(bits):
    """Map an even-length bit sequence to PAM4 amplitudes in {-1,-1/3,1/3,1}."""
    return LEVELS[bits_to_levels(bits)]


def tx_waveform(symbols, config: LinkConfig):
    """Rectangular NRZ illuminance waveform, lux per sample."""
    symbols = np.asarray(symbols, dtype=float)
    return config.tx_dc_lux * (1.0 + config.mod_index * np.repeat(symbols, config.samples_per_symbol))


def channel(tx, config: LinkConfig):
    """Receiver-plane illuminance: DC light sources add to the signal."""
    return np.asarray(tx, dtype=float) + config.dcl_lux + config.ambient_lux


def shot_noise_sigma(lux, spec: ModuleSpec, config: LinkConfig):
    """Shot-noise voltage RMS at illuminance L.

    The photocurrent shot density 2*q*I_PH*B is mapped to volts through the
    small-signal conversion slope dV/dI = N*n*v_t/(eta*L + i0).  It is 0
    when config.noise_bandwidth_hz is 0.
    """
    p = spec.params
    lux = np.asarray(lux, dtype=float)
    current_rms = np.sqrt(2.0 * Q_E * p.eta * lux * config.noise_bandwidth_hz)
    slope = spec.scale / (p.eta * lux + p.i0)
    return current_rms * slope


def _single_pole_lowpass(x, sps, cutoff_hz, sample_rate, state=None, out=None):
    """The low-passed samples of the rectangular NRZ waveform with symbol voltages x, and the filter's final state.

    The filter is y[n] = beta*y[n-1] + (1-beta)*v[n] at the sample rate,
    with beta = exp(-2*pi*cutoff_hz/sample_rate).  All sps samples of symbol
    j equal x[j], so the states s[j] at the symbol boundaries follow
    s[j+1] = gamma*s[j] + (1-gamma)*x[j], with gamma = beta**sps (one
    `lfilter` at the symbol rate), and sample k of symbol j is
    x[j] + (s[j] - x[j])*beta**(k+1).  Returns the (symbols, sps) samples,
    written into `out` when given, and the last state, which continues the
    filter bit for bit in a next call.  Without a `state` the filter starts
    at rest at x[0].
    """
    powers = math.exp(-2.0 * math.pi * cutoff_hz / sample_rate) ** np.arange(1, sps + 1)
    gamma = powers[-1]
    state = x[0] if state is None else state
    ends, _ = sp_signal.lfilter([1.0 - gamma], [1.0, -gamma], x, zi=[gamma * state])
    starts = np.concatenate(([state], ends[:-1]))
    starts -= x
    # sample k of every symbol at once: numpy's inner loop runs over the symbols,
    # which is fastest when `out` is the transpose of a C-ordered (sps, symbols) array
    columns = np.multiply(powers[:, None], starts, out=None if out is None else out.T)
    columns += x
    return columns.T, ends[-1]


def _voltage_and_variance(l_rx, spec: ModuleSpec, config: LinkConfig):
    """Noiseless module voltage and noise variance at each illuminance."""
    return module_voltage(l_rx, spec), config.thermal_sigma_v**2 + shot_noise_sigma(l_rx, spec, config) ** 2


def receive(l_rx, spec: ModuleSpec, config: LinkConfig, rng):
    """Samplewise OE conversion plus noise.

    The optional single-pole low-pass models the module bandwidth and is
    applied to the noiseless voltage; noise is added after it.  The filter
    takes rectangular NRZ input: with it on, l_rx must hold whole symbols of
    samples_per_symbol equal samples, at least one.  It runs in the
    symbol-rate form of `_single_pole_lowpass`, as `simulate` runs it, so
    both build the same waveform bit for bit.
    """
    l_rx = np.asarray(l_rx, dtype=float)
    v, variance = _voltage_and_variance(l_rx, spec, config)
    if config.lpf_cutoff_hz is not None:
        sps = config.samples_per_symbol
        if l_rx.size == 0:
            raise ValueError("the low-pass needs at least one symbol, got an empty waveform")
        if l_rx.size % sps or not (l_rx.reshape(-1, sps) == l_rx[::sps, None]).all():
            raise ValueError(f"the low-pass takes rectangular NRZ input: {l_rx.size} samples are not "
                             f"whole symbols of samples_per_symbol = {sps} equal samples")
        v = _single_pole_lowpass(v[::sps], sps, config.lpf_cutoff_hz, config.sample_rate)[0].ravel()
    return v + rng.standard_normal(l_rx.size) * np.sqrt(variance)


def _received(level_indices, spec: ModuleSpec, config: LinkConfig, rng, keep):
    """AC-coupled symbol statistics of these levels' received NRZ waveform, its mean mu, and the raw waveform if kept.

    Returns (read-only statistics, mu, raw (symbols, sps) waveform or None).
    One loop builds the waveform, `receive`'s bit for bit, from a level
    table, BLOCK_SYMBOLS symbols at a time.  Each block lands in its rows of
    the whole array with `keep`, or else in one reused buffer; its
    statistics go into their slice and its `block.sum()` onto the running
    total before the next block is drawn.  The low-pass filters each
    block's symbol voltages into one reused block of samples and carries
    its state to the next.  mu is the total over the sample count.
    """
    symbols, sps = level_indices.size, int(config.samples_per_symbol)   # numpy integers would overflow the check
    rows = symbols if keep else min(symbols, BLOCK_SYMBOLS)
    if rows * sps * 8 > np.iinfo(np.intp).max:   # numpy's limit on an array's bytes
        raise ValueError(f"samples_per_symbol {sps} is too large: a {rows} x {sps} float64 "
                         "array exceeds numpy's maximum array size")
    out = np.empty((rows, sps))
    level_lux = channel(config.tx_dc_lux * (1.0 + config.mod_index * LEVELS), config)
    v_level, variance_level = _voltage_and_variance(level_lux, spec, config)
    sigma_level = np.sqrt(variance_level)
    lowpassed = None if config.lpf_cutoff_hz is None else np.empty((sps, min(symbols, BLOCK_SYMBOLS))).T
    lpf_state = None
    stats = np.empty(symbols)
    total = 0.0
    for start in range(0, symbols, BLOCK_SYMBOLS):
        stop = min(start + BLOCK_SYMBOLS, symbols)
        # numpy gathers by intp at twice its uint8 speed
        idx = level_indices[start:stop].astype(np.intp)
        block = out[start:stop] if keep else out[: stop - start]
        v = v_level[idx]
        if lowpassed is None:
            v = v[:, None]
        else:
            v, lpf_state = _single_pole_lowpass(v, sps, config.lpf_cutoff_hz, config.sample_rate,
                                                lpf_state, lowpassed[: stop - start])
        # receive's v + z * sigma, evaluated in place: the blocks draw the
        # same normals in the same order and IEEE multiplication and
        # addition commute, so every sample carries the same bits.
        rng.standard_normal(out=block)
        block *= sigma_level[idx][:, None]
        block += v
        symbol_statistics(block, sps, out=stats[start:stop])
        total += block.sum()
    mu = total / (symbols * sps)
    stats -= mu
    stats.flags.writeable = False   # every plain receiver of the cell shares it
    return stats, mu, out if keep else None


def _post_distorted_statistics(v, mu, spec: ModuleSpec, cfg: PostDistortionConfig):
    """Symbol statistics of `post_distort(v - mu, spec, cfg)` for a raw (symbols, sps) waveform v of mean mu.

    No copy of v is made.  One loop takes BLOCK_SYMBOLS symbols at a time
    through the clipped inverse, whose bounds fold in mu, into one scratch
    block, and writes that block's statistics into their slice and adds
    its sum to the running total.  The affine tail then acts on the
    statistics, with the total over the sample count as the mean.  Tests
    compare it with `post_distort`.
    """
    symbols, sps = v.shape
    bounds = clip_bounds(mu, spec, cfg)
    scratch = np.empty((min(symbols, BLOCK_SYMBOLS), sps))
    stats = np.empty(symbols)
    total = 0.0
    for start in range(0, symbols, BLOCK_SYMBOLS):
        stop = min(start + BLOCK_SYMBOLS, symbols)
        block = invert_clipped(v[start:stop], scratch[: stop - start], bounds, spec)
        symbol_statistics(block, sps, out=stats[start:stop])
        total += block.sum()
    return affine_tail(stats, total / v.size, bounds, spec, cfg)


def ac_couple(v):
    """Remove the DC component (subtract the mean)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("cannot AC-couple an empty waveform")
    return v - v.mean()


def symbol_statistics(v, samples_per_symbol, out=None):
    """Per-symbol decision statistic: mean of the central half of each symbol.

    The central columns are summed left to right and the sum divided by
    their count.  That is numpy's `mean(axis=1)` bit for bit for fewer than
    8 central samples (samples_per_symbol <= 13); for wider windows numpy
    sums pairwise, and the two may differ in the last bits.  `out`, when
    given, is the one-per-symbol array the statistics are written into.
    """
    v = np.asarray(v, dtype=float)
    check_count("samples_per_symbol", samples_per_symbol, 2)
    if v.size % samples_per_symbol != 0:
        raise ValueError("waveform length must be a multiple of samples_per_symbol")
    lo = samples_per_symbol // 4
    hi = samples_per_symbol - lo
    rows = v.reshape(-1, samples_per_symbol)
    stats = np.add(rows[:, lo], rows[:, lo + 1], out=out)
    for column in range(lo + 2, hi):
        stats += rows[:, column]
    stats /= hi - lo
    return stats


def train_slicer(stats, training_levels):
    """Estimate level centroids and midpoint thresholds from training symbols.

    Returns (centroids, thresholds).  The thresholds are the midpoints of
    the centroids in ascending order, so they are sorted even when noise
    leaves the centroids out of level order.  Raises DetectionError unless
    all four levels appear in the training sequence.
    """
    training_levels = np.asarray(training_levels, dtype=np.int64)
    stats = np.asarray(stats, dtype=float)
    if stats.size != training_levels.size:
        raise ValueError("one training statistic per training symbol required")
    centroids = np.empty(4)
    for level in range(4):
        mask = training_levels == level
        if not mask.any():
            raise DetectionError(f"training sequence never transmits level {level}")
        centroids[level] = stats[mask].mean()
    ascending = np.sort(centroids)
    return centroids, 0.5 * (ascending[:-1] + ascending[1:])


def _slice(stats, training_levels):
    """Train a slicer on the first symbols and slice the rest.

    Returns (centroids, thresholds, payload level indices).  Each symbol
    goes to its nearest centroid: the count of thresholds below it indexes
    the levels in ascending centroid order (a tie goes to the lower one).
    Ascending centroids at most TIED_CENTROID_ULPS ulps of the largest
    centroid magnitude apart are one group: a gain-capped post-distortion
    clips neighbouring levels to one value, and the last bits of rounding
    would pick between them (two ways of computing the same post-distorted
    statistics put such centroids up to 4 ulps apart).  Every symbol of a
    group goes to its lowest level index, so the decision does not depend
    on rounding.
    """
    n_train = len(training_levels)
    if stats.size < n_train:
        raise ValueError("waveform shorter than the training sequence")
    centroids, thresholds = train_slicer(stats[:n_train], training_levels)
    payload = stats[n_train:]
    # integer counts: numpy adds two bool arrays as a logical or
    counts = (payload > thresholds[0]).astype(np.uint8)
    counts += payload > thresholds[1]
    counts += payload > thresholds[2]
    order = np.argsort(centroids, kind="stable")
    ascending = centroids[order]
    tied = np.diff(ascending) <= TIED_CENTROID_ULPS * np.spacing(np.abs(ascending).max())
    group = np.concatenate(([0], np.cumsum(~tied)))
    decided = [order[group == g].min() for g in group]
    # the decided level of each rank, two bits each in one byte: shifting it right by
    # 2 * counts gathers decided[counts] faster, and with no intp copy of the index
    packed = np.uint8(sum(int(level) << 2 * rank for rank, level in enumerate(decided)))
    return centroids, thresholds, (packed >> (counts << 1)) & 3


def detect_pam4(v, config: LinkConfig, training_levels):
    """Slice a received voltage waveform back to payload bits.

    The first len(training_levels) symbols are known to the receiver and
    used to train the slicer; only payload bits are returned.
    """
    stats = symbol_statistics(v, config.samples_per_symbol)
    return levels_to_bits(_slice(stats, training_levels)[2])


def training_sequence(config: LinkConfig):
    """Deterministic cyclic training level pattern (all four levels present)."""
    reps = -(-config.training_symbols // 4)
    return np.tile(np.arange(4, dtype=np.uint8), reps)[: config.training_symbols]


@dataclass(frozen=True)
class LinkTrace:
    """What one receiver of `simulate` saw and decided.

    v is what a callable entry returned from the AC-coupled waveform,
    training symbols first; None for the plain receiver and for a
    `PostDistortionConfig` entry.
    """

    v: np.ndarray | None
    stats: np.ndarray          # per-symbol decision statistics
    centroids: np.ndarray      # trained level centroids, by level index
    thresholds: np.ndarray     # ascending midpoints of the centroids
    detected: np.ndarray       # payload level indices
    report: BerReport


def simulate(config: LinkConfig, spec: ModuleSpec, payload_bits, postprocesses=(None,)):
    """Run the link once and slice it with one receiver per entry of `postprocesses`.

    Returns one LinkTrace per entry, all from one noise realization.  An
    entry of None is the plain receiver, which slices block statistics; a
    `PostDistortionConfig` entry slices post-distorted statistics of the raw
    waveform, with the mean folded into its clip bounds; a callable entry
    returns a new array from the AC-coupled waveform (the identity
    `lambda v: v` returns that waveform itself).  Any other entry is a
    TypeError before any work.  The list alone decides what the cell keeps:
    an entry that is not None keeps the raw waveform, and only a callable
    entry gets it AC-coupled in place and read-only.  Deterministic for a
    fixed config (the RNG derives from config.seed).  Errors are counted per
    symbol: a decision costs as many bits as its Gray code differs from the
    sent dibit in.
    """
    for entry in postprocesses:
        if not (entry is None or isinstance(entry, PostDistortionConfig) or callable(entry)):
            raise TypeError("a postprocesses entry must be None, a PostDistortionConfig or a callable, "
                            f"got {entry!r}")
    payload_bits = _check_bits(payload_bits)
    if payload_bits.size == 0:
        raise ValueError("payload must contain at least one bit pair")
    sent = _dibits(payload_bits)
    train = training_sequence(config)
    levels = np.concatenate([train, _gray(sent)])
    rng = np.random.default_rng(config.seed)
    plain, mu, v = _received(levels, spec, config, rng, any(entry is not None for entry in postprocesses))
    # post-distorted statistics read the raw waveform, before any AC coupling
    entry_stats = [_post_distorted_statistics(v, mu, spec, entry) if isinstance(entry, PostDistortionConfig)
                   else plain for entry in postprocesses]
    if any(map(callable, postprocesses)):
        v -= mu   # ac_couple, in place
        v.flags.writeable = False
    traces = []
    for postprocess, stats in zip(postprocesses, entry_stats):
        out = None
        if callable(postprocess):
            out = postprocess(v.ravel())
            stats = symbol_statistics(out, config.samples_per_symbol)
        centroids, thresholds, detected = _slice(stats, train)
        wrong = _gray(detected) ^ sent   # the bits each decision got wrong
        errors = int(np.count_nonzero(wrong & 1) + np.count_nonzero(wrong & 2))
        report = BerReport(payload_bits.size, errors)
        traces.append(LinkTrace(out, stats, centroids, thresholds, detected, report))
    return tuple(traces)


def run_link(config: LinkConfig, spec: ModuleSpec, payload_bits, postprocess=None):
    """BerReport of one link run (`simulate` with a single receiver).

    `postprocess`, when given, is a `simulate` entry: a `PostDistortionConfig`,
    which reads the raw waveform, or a callable, which gets it AC-coupled and
    read-only and returns a new array.  Without one the cell keeps no waveform.
    """
    return simulate(config, spec, payload_bits, (postprocess,))[0].report
