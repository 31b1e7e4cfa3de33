"""Distortion mitigation: bias-lighting optimization and post-distortion.

Two receiver-side strategies against the logarithmic OE nonlinearity:

* `optimize_dcl` sweeps the illuminance of a local DC compensation light
  placed at the receiver and reports the bias with the lowest BER.
* `post_distort` digitally inverts the OE curve around a known operating
  point, with the inverse's small-signal gain capped so noise in the
  compressed upper region is not amplified without bound.

The operating point is supplied by the caller: transmitter DC, bias light
and ambient level are all configuration, so the receiver knows the total
DC illuminance.  A blind variant that estimates the operating voltage
from the waveform mean before AC coupling would be a straightforward
extension but is deliberately not the default.
"""

from dataclasses import dataclass, replace

import numpy as np

from .device import ModuleSpec, first_derivative, inverse_voltage_in_place, module_voltage
from .link import LinkConfig, run_link
from .seeding import payload_bits, point_seed

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
        if not (self.operating_lux > 0):
            raise ValueError("operating_lux must be > 0")
        if not (self.gain_cap >= 1):
            raise ValueError("gain_cap must be >= 1")


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
    rms = float(np.sqrt(np.mean(v_ac**2)))
    if abs(float(v_ac.mean())) > 1e-6 * rms:
        raise ValueError("input must be AC-coupled (zero mean)")
    p = spec.params
    scale = spec.cell_count * p.n * p.v_t
    v_dc = module_voltage(cfg.operating_lux, spec)
    # Capping v at v_dc + N*n*v_t*ln(gain_cap) caps the exponential inverse's
    # local gain at gain_cap times the operating-point gain.
    v_ceiling = v_dc + scale * np.log(cfg.gain_cap)
    # every step after the first sum runs in place on one new array; the
    # clip keeps the voltages in the inverse's range
    out = v_ac + v_dc
    np.clip(out, 0.0, v_ceiling, out=out)
    inverse_voltage_in_place(out, spec)
    out -= out.mean()
    out *= first_derivative(cfg.operating_lux, spec, "exact")
    return out


def optimize_dcl(base_config: LinkConfig, spec: ModuleSpec, dcl_grid, payload=None):
    """BER across a grid of compensation-light illuminances.

    Runs the link once per grid value with a fixed payload and per-point
    derived seeds; returns (best_dcl, curve) where curve is a list of
    (dcl_lux, ber) and ties resolve to the smaller illuminance.
    """
    dcl_grid = [float(d) for d in dcl_grid]
    if not dcl_grid:
        raise ValueError("dcl_grid must not be empty")
    if any(b <= a for a, b in zip(dcl_grid, dcl_grid[1:])):
        raise ValueError("dcl_grid must be strictly ascending")
    if any(d < 0 for d in dcl_grid):
        raise ValueError("dcl_lux must be >= 0")
    if payload is None:
        payload = payload_bits(500_000, base_config.seed)
    curve = []
    for dcl in dcl_grid:
        config = replace(
            base_config,
            dcl_lux=dcl,
            seed=point_seed(base_config.seed, base_config.tx_dc_lux, base_config.mod_index, dcl, 0),
        )
        report = run_link(config, spec, payload)
        curve.append((dcl, report.ber))
    bers = [ber for _, ber in curve]
    best_dcl = curve[int(np.argmin(bers))][0]   # argmin takes the first, i.e. smallest dcl
    return best_dcl, curve
