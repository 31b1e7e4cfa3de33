"""Closed-form physics of a photovoltaic module used as an optical receiver.

A single cell converts illuminance to an open-circuit voltage through the
diode equation: V = n*v_t*ln(eta*L/i0 + 1).  A module of N identical cells
in series multiplies that voltage by N.  All operations here are pure
functions; everything is valid for scalars or numpy arrays of illuminance.
"""

import sys
from dataclasses import dataclass

import numpy as np

# Physical constants (CODATA exact values)
K_B = 1.380649e-23       # Boltzmann constant, J/K
Q_E = 1.602176634e-19    # elementary charge, C

DEFAULT_TEMPERATURE = 300.0  # K


def is_finite(value) -> bool:
    """True for a finite real number; an int of any size is compared exactly, never overflows."""
    return abs(value) <= sys.float_info.max


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
        if not (self.n > 0):
            raise ValueError(f"ideality factor must be > 0, got {self.n}")
        if not (self.i0 > 0):
            raise ValueError(f"saturation current must be > 0, got {self.i0}")
        if not (self.eta > 0):
            raise ValueError(f"conversion factor must be > 0, got {self.eta}")
        if not (self.temperature > 0):
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

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
        if not (isinstance(self.cell_count, (int, np.integer)) and self.cell_count >= 1):
            raise ValueError(f"cell_count must be an integer >= 1, got {self.cell_count}")


@dataclass(frozen=True)
class CellElectrical:
    """Small-signal cell equivalent: current source plus shunt resistor."""

    i_ph: float
    r_shunt: float

    def __post_init__(self):
        if not (self.i_ph >= 0):
            raise ValueError(f"photocurrent must be >= 0, got {self.i_ph}")
        if not (self.r_shunt > 0):
            raise ValueError(f"shunt resistance must be > 0, got {self.r_shunt}")


def _as_lux_array(lux, allow_zero=True):
    arr = np.asarray(lux, dtype=float)
    if allow_zero:
        if np.any(arr < 0):
            raise ValueError("illuminance must be >= 0")
    else:
        if np.any(arr <= 0):
            raise ValueError("illuminance must be > 0 for the asymptotic form")
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
    p = spec.params
    scale = spec.cell_count * p.n * p.v_t
    if form == "exact":
        arr = _as_lux_array(lux)
        d = scale * p.eta / (p.eta * arr + p.i0)
    elif form == "asymptotic":
        arr = _as_lux_array(lux, allow_zero=False)
        d = scale / arr
    else:
        raise ValueError(f"form must be 'exact' or 'asymptotic', got {form!r}")
    return _match(d, lux)


def second_derivative(lux, spec: ModuleSpec, form: str = "exact"):
    """Curvature d2V/dL2, volts per lux^2; negative everywhere (concave)."""
    p = spec.params
    scale = spec.cell_count * p.n * p.v_t
    if form == "exact":
        arr = _as_lux_array(lux)
        d = -scale * p.eta**2 / (p.eta * arr + p.i0) ** 2
    elif form == "asymptotic":
        arr = _as_lux_array(lux, allow_zero=False)
        d = -scale / arr**2
    else:
        raise ValueError(f"form must be 'exact' or 'asymptotic', got {form!r}")
    return _match(d, lux)


def inverse_voltage(volts, spec: ModuleSpec):
    """Illuminance that produces a given module voltage (exact inverse).

    L = (i0/eta) * (exp(V / (N*n*v_t)) - 1).  Negative voltages are outside
    the model's range and raise; callers that may produce them (for example
    noisy waveforms) must clamp first.
    """
    arr = np.asarray(volts, dtype=float)
    if np.any(arr < 0):
        raise ValueError("voltage must be >= 0")
    return _match(inverse_voltage_in_place(arr.copy(), spec), volts)


def inverse_voltage_in_place(volts, spec: ModuleSpec):
    """`inverse_voltage` without the range check, overwriting `volts`.

    `volts` must be a float ndarray of voltages >= 0; it is returned
    holding the illuminances.
    """
    p = spec.params
    volts /= spec.cell_count * p.n * p.v_t
    np.expm1(volts, out=volts)
    volts *= p.i0 / p.eta
    return volts
