"""Distortion mitigation: gain-capped post-distortion of the received waveform.

Bias lighting, the other receiver-side strategy against the logarithmic
OE nonlinearity, is `LinkConfig.dcl_lux` and needs no code here
(`experiments.sweep_ber_vs_dcl` sweeps it).  `post_distort` digitally
inverts the OE curve around a known operating point, with the inverse's
small-signal gain capped so noise in the compressed upper region is not
amplified without bound.  It is an elementwise inverse (`invert_clipped`)
and an affine tail (`affine_tail`), each defined once here: a `PostDistortionConfig` entry of
`link.simulate` applies them block by block and to symbol statistics.

The operating point is supplied by the caller: transmitter DC, bias light
and ambient level are all configuration, so the receiver knows the total
DC illuminance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .device import ModuleSpec, first_derivative, inverse_voltage_in_place, is_finite, module_voltage

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


def invert_clipped(v_ac, out, spec: ModuleSpec, cfg: PostDistortionConfig):
    """post_distort's elementwise part: the exact inverse of v_ac + v_dc, clipped to [0, v_ceiling], into `out`.

    `out` may be v_ac itself.  v_dc is the operating-point voltage; the
    ceiling v_dc + N*n*v_t*ln(gain_cap) caps the exponential inverse's
    local gain at gain_cap times the operating-point gain, and the floor
    keeps the voltages in the inverse's range.
    """
    v_dc = module_voltage(cfg.operating_lux, spec)
    np.add(v_ac, v_dc, out=out)
    np.clip(out, 0.0, v_dc + spec.scale * np.log(cfg.gain_cap), out=out)
    return inverse_voltage_in_place(out, spec)


def affine_tail(x, mean, spec: ModuleSpec, cfg: PostDistortionConfig):
    """post_distort's affine last step, in place: (x - mean) times the operating-point slope."""
    x -= mean
    x *= first_derivative(cfg.operating_lux, spec, "exact")
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
    if abs(float(v_ac.mean())) > 1e-6 * rms:
        raise ValueError("input must be AC-coupled (zero mean)")
    # every step runs in place on one new array
    out = invert_clipped(v_ac, np.empty(v_ac.shape), spec, cfg)
    return affine_tail(out, out.mean(), spec, cfg)
