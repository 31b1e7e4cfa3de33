"""Closed-form physics of a photovoltaic module used as an optical receiver.

A single cell converts illuminance to an open-circuit voltage through the
diode equation: V = n*v_t*ln(eta*L/i0 + 1).  A module of N identical cells
in series multiplies that voltage by N; `ModuleSpec.scale` is N*n*v_t.  The
classes, `is_finite` and `check_count` hold the input rules the other modules
reuse.  All operations here are pure functions, valid for scalars or numpy arrays.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# Physical constants (CODATA exact values)
K_B = 1.380649e-23       # Boltzmann constant, J/K
Q_E = 1.602176634e-19    # elementary charge, C

DEFAULT_TEMPERATURE = 300.0  # K


def is_finite(value) -> bool:
    """True for a finite real number that is not a bool (JSON true parses as one, an int).

    Python's json reads Infinity and NaN as floats and integers of any size as
    ints; an int of any size is compared exactly, never overflows.
    """
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)))


def check_count(name, value, minimum):
    """`value` if it is an int or numpy integer >= `minimum` that passes `is_finite` (no bool), else a ValueError."""
    if not (isinstance(value, (int, np.integer)) and is_finite(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class PVCellParams:
    """Electrical parameters of one PV cell.

    n            diode ideality factor (dimensionless)
    i0           reverse saturation current, A
    eta          illuminance-to-photocurrent conversion factor, A/lux
    temperature  junction temperature, K
    """

    n: float
    i0: float
    eta: float
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        for name in ("n", "i0", "eta", "temperature"):
            value = getattr(self, name)
            if not (is_finite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
            object.__setattr__(self, name, float(value))

    @property
    def v_t(self) -> float:
        """Thermal voltage k_B*T/q, volts."""
        return K_B * self.temperature / Q_E


@dataclass(frozen=True)
class ModuleSpec:
    """A module of `cell_count` identical series cells."""

    cell_count: int
    params: PVCellParams

    def __post_init__(self):
        check_count("cell_count", self.cell_count, 1)

    @property
    def scale(self) -> float:
        """The module's voltage scale N*n*v_t, volts."""
        return self.cell_count * self.params.n * self.params.v_t


@dataclass(frozen=True)
class CellElectrical:
    """Small-signal cell equivalent: current source plus shunt resistor."""

    i_ph: float
    r_shunt: float

    def __post_init__(self):
        if not (is_finite(self.i_ph) and self.i_ph >= 0):
            raise ValueError(f"photocurrent must be >= 0, got {self.i_ph}")
        if not (is_finite(self.r_shunt) and self.r_shunt > 0):
            raise ValueError(f"shunt resistance must be > 0, got {self.r_shunt}")


def _as_lux_array(lux, allow_zero=True):
    arr = np.asarray(lux, dtype=float)
    # one pass each, written so that NaN, which fails every comparison, fails the check
    if allow_zero and not (arr >= 0).all():
        raise ValueError("illuminance must be >= 0, not negative or NaN")
    if not allow_zero and not (arr > 0).all():
        raise ValueError("illuminance must be > 0 for the asymptotic form, not NaN")
    return arr


def _match(value, template):
    """Return a python float when the caller passed a scalar."""
    return float(value) if np.ndim(template) == 0 else value


def photocurrent(lux, params: PVCellParams):
    """Photocurrent eta*L generated by one cell, amperes."""
    arr = _as_lux_array(lux)
    return _match(params.eta * arr, lux)


def cell_voltage(lux, params: PVCellParams):
    """Open-circuit voltage of one cell: n*v_t*ln(eta*L/i0 + 1), volts."""
    arr = _as_lux_array(lux)
    v = params.n * params.v_t * np.log1p(params.eta * arr / params.i0)
    return _match(v, lux)


def module_voltage(lux, spec: ModuleSpec):
    """Module voltage, exactly cell_count times the single-cell voltage."""
    return _match(spec.cell_count * cell_voltage(lux, spec.params), lux)


def short_circuit_current(cells):
    """Short-circuit current of series cells: sum(i_ph*r) / sum(r).

    Reduces exactly to i_ph when all cells are identical (done algebraically
    so the reduction is not subject to summation rounding).
    """
    cells = list(cells)
    if not cells:
        raise ValueError("need at least one cell")
    first = cells[0]
    if all(c.i_ph == first.i_ph for c in cells):
        return first.i_ph
    num = np.array([c.i_ph * c.r_shunt for c in cells], dtype=float)
    den = np.array([c.r_shunt for c in cells], dtype=float)
    return float(np.sum(num) / np.sum(den))


def first_derivative(lux, spec: ModuleSpec, form: str = "exact"):
    """Slope of the module OE curve dV/dL, volts per lux.

    'exact' differentiates the module voltage: N*n*v_t*eta/(eta*L + i0).
    'asymptotic' is its eta*L >> i0 limit N*n*v_t/L, which requires L > 0.
    """
    return _derivative(lux, spec, form, 1)


def second_derivative(lux, spec: ModuleSpec, form: str = "exact"):
    """Curvature d2V/dL2, volts per lux^2; negative everywhere (concave)."""
    return _derivative(lux, spec, form, 2)


def _derivative(lux, spec: ModuleSpec, form, order):
    """d^k V/dL^k for k = `order` 1 or 2: +-N*n*v_t*eta^k/(eta*L + i0)^k, or +-N*n*v_t/L^k."""
    p = spec.params
    scale = spec.scale if order == 1 else -spec.scale
    if form == "exact":
        arr = _as_lux_array(lux)
        d = scale * p.eta**order / (p.eta * arr + p.i0) ** order
    elif form == "asymptotic":
        arr = _as_lux_array(lux, allow_zero=False)
        d = scale / arr**order
    else:
        raise ValueError(f"form must be 'exact' or 'asymptotic', got {form!r}")
    return _match(d, lux)


def inverse_voltage(volts, spec: ModuleSpec):
    """Illuminance that produces a given module voltage (exact inverse).

    L = (i0/eta) * (exp(V / (N*n*v_t)) - 1).  Negative and NaN voltages are
    outside the model's range and raise; callers that may produce them (for
    example noisy waveforms) must clamp first.
    """
    arr = np.asarray(volts, dtype=float)
    if not (arr >= 0).all():
        raise ValueError("voltage must be >= 0, not negative or NaN")
    lux = np.divide(arr, spec.scale, out=np.empty(arr.shape))   # an array even for a scalar
    np.expm1(lux, out=lux)
    lux *= spec.params.i0 / spec.params.eta
    return _match(lux, volts)
