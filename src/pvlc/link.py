"""Baseband PAM4 link through the nonlinear PV receiver.

Pipeline: bits -> Gray-mapped PAM4 symbols -> rectangular NRZ illuminance
waveform -> additive DC light sources -> samplewise OE conversion with
thermal and shot noise -> DC removal -> trained symbol slicer -> bits.

Rectangular NRZ puts only four illuminances on the receiver, one per PAM4
level, so `run_link` evaluates the OE voltage and the noise variance once
per level (a level table) and gathers them by symbol, instead of once per
sample as the public `receive` does.  Both paths apply the same operations
to the same values and draw the same normals, so the waveform, and with it
every error count, is bit-identical; tests compare the two.

The committed default noise values (thermal_sigma_v, noise_bandwidth_hz)
are calibrated rather than measured: the effective noise bandwidth absorbs
receiver amplification that the otherwise open-circuit voltage model does
not represent.  See README for the calibration notes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

from .device import ModuleSpec, Q_E, module_voltage

FEC_BER_THRESHOLD = 2.0e-2

# Gray code per level: level index 0..3 <-> dibit value 00,01,11,10.
# The permutation is self-inverse, so the same table encodes and decodes.
GRAY = np.array([0, 1, 3, 2])
LEVELS = (2.0 * np.arange(4) - 3.0) / 3.0   # -1, -1/3, +1/3, +1
_BIT_COUNT = np.array([0, 1, 1, 2])          # set bits in a dibit value 0..3


class DetectionError(RuntimeError):
    """The slicer could not be trained from the given training symbols."""


@dataclass(frozen=True)
class LinkConfig:
    """Everything a single link run needs besides the module itself.

    mod_index is the peak AC illuminance divided by the DC illuminance, so
    PAM4 symbol s produces tx_dc_lux * (1 + mod_index * s) and stays
    nonnegative for mod_index <= 1.
    """

    bit_rate: float = 1e6
    samples_per_symbol: int = 8
    mod_index: float = 0.3
    tx_dc_lux: float = 425.0
    dcl_lux: float = 0.0
    ambient_lux: float = 0.0
    thermal_sigma_v: float = 1.5e-3        # calibrated, volts RMS
    shot_noise_enabled: bool = True
    noise_bandwidth_hz: float = 3.0e9      # calibrated effective value, Hz
    lpf_cutoff_hz: float | None = None
    training_symbols: int = 256
    seed: int = 0

    def __post_init__(self):
        if not (self.bit_rate > 0):
            raise ValueError("bit_rate must be > 0")
        if not (isinstance(self.samples_per_symbol, (int, np.integer)) and self.samples_per_symbol >= 2):
            raise ValueError("samples_per_symbol must be an integer >= 2")
        if not (0 < self.mod_index <= 1):
            raise ValueError(f"mod_index must be in (0, 1], got {self.mod_index}")
        if not (self.tx_dc_lux > 0):
            raise ValueError("tx_dc_lux must be > 0")
        if self.dcl_lux < 0 or self.ambient_lux < 0:
            raise ValueError("dcl_lux and ambient_lux must be >= 0")
        if self.thermal_sigma_v < 0:
            raise ValueError("thermal_sigma_v must be >= 0")
        if self.noise_bandwidth_hz < 0:
            raise ValueError("noise_bandwidth_hz must be >= 0")
        if self.lpf_cutoff_hz is not None and not (self.lpf_cutoff_hz > 0):
            raise ValueError("lpf_cutoff_hz must be positive or None")
        if not (isinstance(self.training_symbols, (int, np.integer)) and self.training_symbols >= 64):
            raise ValueError("training_symbols must be an integer >= 64")

    @property
    def symbol_rate(self) -> float:
        return self.bit_rate / 2.0   # 2 bits per PAM4 symbol

    @property
    def sample_rate(self) -> float:
        return self.symbol_rate * self.samples_per_symbol


@dataclass(frozen=True)
class BerReport:
    """Bit error accounting for one link run."""

    bits_total: int
    bits_errored: int
    ber: float
    pass_fec: bool

    @classmethod
    def from_counts(cls, bits_total, bits_errored):
        if bits_total <= 0:
            raise ValueError("bits_total must be > 0")
        ber = bits_errored / bits_total
        return cls(int(bits_total), int(bits_errored), ber, ber < FEC_BER_THRESHOLD)


def _check_bits(bits):
    bits = np.asarray(bits)
    if bits.size % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.size}")
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    return bits.astype(np.int64)


def _dibits(bits):
    """Checked bits to dibit values 0..3, first bit most significant."""
    return 2 * bits[0::2] + bits[1::2]


def bits_to_levels(bits):
    """Gray-map bit pairs to level indices 0..3 (00,01,11,10 in order)."""
    return GRAY[_dibits(_check_bits(bits))]


def levels_to_bits(level_indices):
    """Inverse Gray mapping from level indices back to bits."""
    codes = GRAY[np.asarray(level_indices, dtype=np.int64)]
    bits = np.empty(2 * codes.size, dtype=np.int64)
    bits[0::2] = codes >> 1
    bits[1::2] = codes & 1
    return bits


def encode_pam4(bits):
    """Map an even-length bit sequence to PAM4 amplitudes in {-1,-1/3,1/3,1}."""
    return LEVELS[bits_to_levels(bits)]


def decode_pam4(symbols):
    """Map PAM4 amplitudes back to bits (nearest level)."""
    idx = np.argmin(np.abs(np.asarray(symbols, dtype=float)[:, None] - LEVELS[None, :]), axis=1)
    return levels_to_bits(idx)


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
    small-signal conversion slope dV/dI = N*n*v_t/(eta*L + i0).
    """
    p = spec.params
    lux = np.asarray(lux, dtype=float)
    current_rms = np.sqrt(2.0 * Q_E * p.eta * lux * config.noise_bandwidth_hz)
    slope = spec.cell_count * p.n * p.v_t / (p.eta * lux + p.i0)
    return current_rms * slope


def _single_pole_lowpass(v, cutoff_hz, sample_rate):
    alpha = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz / sample_rate)
    zi = np.array([(1.0 - alpha) * v[0]])
    out, _ = sp_signal.lfilter([alpha], [1.0, alpha - 1.0], v, zi=zi)
    return out


def _voltage_and_variance(l_rx, spec: ModuleSpec, config: LinkConfig):
    """Noiseless module voltage and noise variance at each illuminance."""
    v = module_voltage(l_rx, spec)
    variance = np.full(l_rx.shape, config.thermal_sigma_v**2)
    if config.shot_noise_enabled:
        variance = variance + shot_noise_sigma(l_rx, spec, config) ** 2
    return v, variance


def receive(l_rx, spec: ModuleSpec, config: LinkConfig, rng):
    """Samplewise OE conversion plus noise.

    The optional single-pole low-pass models the module bandwidth and is
    applied to the noiseless voltage; noise is added after it.
    """
    l_rx = np.asarray(l_rx, dtype=float)
    v, variance = _voltage_and_variance(l_rx, spec, config)
    if config.lpf_cutoff_hz is not None:
        v = _single_pole_lowpass(v, config.lpf_cutoff_hz, config.sample_rate)
    if not variance.any():
        return v
    return v + rng.standard_normal(l_rx.size) * np.sqrt(variance)


def receive_levels(level_indices, spec: ModuleSpec, config: LinkConfig, rng):
    """Received voltage waveform for a sequence of PAM4 level indices.

    Bit-identical to ``receive(channel(tx_waveform(LEVELS[level_indices],
    config), config), spec, config, rng)``, with the OE voltage and the
    noise computed once per level and gathered per symbol.
    """
    level_indices = np.asarray(level_indices, dtype=np.int64)
    sps = config.samples_per_symbol
    level_lux = channel(config.tx_dc_lux * (1.0 + config.mod_index * LEVELS), config)
    v_level, variance_level = _voltage_and_variance(level_lux, spec, config)
    v = np.repeat(v_level[level_indices], sps)
    if config.lpf_cutoff_hz is not None:
        v = _single_pole_lowpass(v, config.lpf_cutoff_hz, config.sample_rate)
    sigma = np.sqrt(variance_level)[level_indices]
    if not sigma.any():
        return v
    # receive's v + z * sigma, evaluated in place: the draws come in the
    # same order and IEEE multiplication and addition commute, so every
    # sample carries the same bits.
    out = rng.standard_normal((level_indices.size, sps))
    out *= sigma[:, None]
    out = out.ravel()
    out += v
    return out


def ac_couple(v):
    """Remove the DC component (subtract the mean)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("cannot AC-couple an empty waveform")
    return v - v.mean()


def symbol_statistics(v, samples_per_symbol):
    """Per-symbol decision statistic: mean of the central half of each symbol."""
    v = np.asarray(v, dtype=float)
    if v.size % samples_per_symbol != 0:
        raise ValueError("waveform length must be a multiple of samples_per_symbol")
    lo = samples_per_symbol // 4
    hi = samples_per_symbol - lo
    return v.reshape(-1, samples_per_symbol)[:, lo:hi].mean(axis=1)


def train_slicer(stats, training_levels):
    """Estimate level centroids and midpoint thresholds from training symbols.

    Returns (centroids, thresholds); raises DetectionError unless all four
    levels appear in the training sequence.
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
    thresholds = 0.5 * (centroids[:-1] + centroids[1:])
    return centroids, thresholds


def _detect_levels(v, config: LinkConfig, training_levels):
    """Payload level indices sliced by a slicer trained on the first symbols."""
    stats = symbol_statistics(v, config.samples_per_symbol)
    n_train = len(training_levels)
    if stats.size < n_train:
        raise ValueError("waveform shorter than the training sequence")
    _, thresholds = train_slicer(stats[:n_train], training_levels)
    return np.searchsorted(thresholds, stats[n_train:])


def detect_pam4(v, config: LinkConfig, training_levels):
    """Slice a received voltage waveform back to payload bits.

    The first len(training_levels) symbols are known to the receiver and
    used to train the slicer; only payload bits are returned.
    """
    return levels_to_bits(_detect_levels(v, config, training_levels))


def training_sequence(config: LinkConfig):
    """Deterministic cyclic training level pattern (all four levels present)."""
    reps = -(-config.training_symbols // 4)
    return np.tile(np.arange(4), reps)[: config.training_symbols]


def run_link(config: LinkConfig, spec: ModuleSpec, payload_bits, postprocess=None):
    """Run the full pipeline and count payload bit errors.

    `postprocess`, when given, is applied to the AC-coupled voltage
    waveform before detection (used for receiver-side compensation).
    Deterministic for a fixed config (the RNG derives from config.seed).
    Errors are counted per symbol: a decision costs as many bits as its
    Gray code differs from the sent dibit in.
    """
    payload_bits = _check_bits(payload_bits)
    if payload_bits.size == 0:
        raise ValueError("payload must contain at least one bit pair")
    sent = _dibits(payload_bits)
    train = training_sequence(config)
    levels = np.concatenate([train, GRAY[sent]])
    v = receive_levels(levels, spec, config, np.random.default_rng(config.seed))
    v = ac_couple(v)
    if postprocess is not None:
        v = postprocess(v)
    detected = _detect_levels(v, config, train)
    errors = int(_BIT_COUNT[GRAY[detected] ^ sent].sum())
    return BerReport.from_counts(payload_bits.size, errors)


def export_waveform_csv(v, destination):
    """Write a waveform as ``sample_index,value`` CSV for debugging."""
    v = np.asarray(v, dtype=float)
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write("sample_index,value\n")
        for k, value in enumerate(v):
            handle.write(f"{k},{value:.17g}\n")
