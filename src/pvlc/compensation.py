"""Distortion mitigation: gain-capped post-distortion of the received waveform.

Bias lighting, the other receiver-side strategy against the logarithmic
OE nonlinearity, is `LinkConfig.dcl_lux` and needs no code here
(`experiments.sweep_ber_vs_dcl` sweeps it).  `post_distort` digitally
inverts the OE curve around a known operating point, with the inverse's
small-signal gain capped so noise in the compressed upper region is not
amplified without bound.  It is an elementwise inverse (`invert_clipped`)
and an affine tail (`affine_tail`), each defined once here.

For a waveform v of mean mu, the exact inverse of the re-biased, clipped
voltage is (i0/eta)*expm1((v - mu + v_dc)/s), with s = N*n*v_t: that is
(i0/eta)*exp((v_dc - mu)/s) times exp(v/s), minus i0/eta.  The tail
subtracts the mean, which removes that constant (the expm1's -1), and
scales by the slope, into which the constant factor folds.  The re-bias by
v_dc and the AC coupling by mu fold into the clip bounds (`clip_bounds`,
once per waveform), so no pass over the samples adds or subtracts either.
`post_distort` passes mu = 0 for its AC-coupled input; a
`PostDistortionConfig` entry of `link.simulate` passes the cell's mean,
reads the raw waveform block by block and applies the tail to the symbol
statistics.

The operating point is supplied by the caller: transmitter DC, bias light
and ambient level are all configuration, so the receiver knows the total
DC illuminance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .device import ModuleSpec, first_derivative, is_finite, module_voltage

DEFAULT_GAIN_CAP = 4.0


@dataclass(frozen=True)
class PostDistortionConfig:
    """Inversion operating point and gain cap.

    operating_lux is the receiver's total DC illuminance (transmitter DC
    plus compensation and ambient light), assumed known at the receiver.
    gain_cap bounds the inverse's local gain relative to the gain at the
    operating point; may be math.inf for perfect inversion.
    """

    operating_lux: float
    gain_cap: float = DEFAULT_GAIN_CAP

    def __post_init__(self):
        if not (is_finite(self.operating_lux) and self.operating_lux > 0):
            raise ValueError(f"operating_lux must be a finite number > 0, got {self.operating_lux!r}")
        if not ((is_finite(self.gain_cap) or self.gain_cap == math.inf) and self.gain_cap >= 1):
            raise ValueError(f"gain_cap must be a number >= 1 or math.inf, got {self.gain_cap!r}")


def clip_bounds(mu, spec: ModuleSpec, cfg: PostDistortionConfig):
    """`invert_clipped`'s interval for a waveform of mean mu: (mu - v_dc, mu + N*n*v_t*ln(gain_cap)).

    The floor keeps v - mu + v_dc in the inverse's range (>= 0); the ceiling
    caps the inverse's local gain at gain_cap times the operating-point gain.
    """
    return mu - module_voltage(cfg.operating_lux, spec), mu + spec.scale * math.log(cfg.gain_cap)


def invert_clipped(v, out, bounds, spec: ModuleSpec):
    """post_distort's elementwise part: exp(clip(v, *bounds) / (N*n*v_t)), into `out` (which may be v).

    That is the clipped exact inverse up to a constant factor and offset,
    which `affine_tail` deals with (see the module docstring).
    """
    np.clip(v, *bounds, out=out)
    out *= 1.0 / spec.scale
    return np.exp(out, out=out)


def affine_tail(x, mean, bounds, spec: ModuleSpec, cfg: PostDistortionConfig):
    """post_distort's affine last step, in place: (x - mean) times the operating-point slope.

    The slope carries the factor `invert_clipped` left out of x and mean,
    (i0/eta)*exp((v_dc - mu)/(N*n*v_t)), whose exponent is -bounds[0]/(N*n*v_t).
    """
    p = spec.params
    x -= mean
    x *= first_derivative(cfg.operating_lux, spec, "exact") * (p.i0 / p.eta) * math.exp(-bounds[0] / spec.scale)
    return x


def post_distort(v_ac, spec: ModuleSpec, cfg: PostDistortionConfig):
    """Invert the OE nonlinearity on an AC-coupled voltage waveform.

    The waveform is re-biased to the operating-point voltage, clamped so the
    inverse is evaluated only where its gain stays within cfg.gain_cap times
    the operating-point gain, mapped through the exact inverse, and returned
    zero-mean, rescaled by the operating-point slope so the amplitude scale
    is again volts-like for the downstream slicer.
    """
    v_ac = np.asarray(v_ac, dtype=float)
    if v_ac.size == 0:
        raise ValueError("empty waveform")
    # einsum's own loop: no squared temporary, and no BLAS threads in pool workers
    flat = v_ac.ravel()
    rms = float(np.sqrt(np.einsum("i,i->", flat, flat) / flat.size))
    mean = float(v_ac.mean())
    if not abs(mean) <= 1e-6 * rms:   # a NaN sample makes both NaN, and fails the test
        raise ValueError(f"input must be AC-coupled (zero mean) and hold no NaN, got mean {mean!r}")
    # every step runs in place on one new array
    bounds = clip_bounds(0.0, spec, cfg)
    out = invert_clipped(v_ac, np.empty(v_ac.shape), bounds, spec)
    return affine_tail(out, out.mean(), bounds, spec, cfg)
