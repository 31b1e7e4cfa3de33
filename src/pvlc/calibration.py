"""Fit the logarithmic OE model to measured (illuminance, voltage) data.

The measured curve V(L) = N*n*v_t*ln(a*L + 1) is identified by two
parameters only: the ideality factor n and the gain ratio a = eta/i0.
Illuminance data cannot separate eta from i0 (they enter the model only
through a), so the fitter estimates (n, a); `to_i0` backs out i0 once an
externally calibrated eta is supplied.  The model is linear in n, so the
fit is a variable projection: for each a the best n is a least-squares
ratio, and only log a is searched.  Value rules come from `pvlc.device`:
its classes, and `check_number` for the samples, the fit result, eta and
the model card's rmse; the scale N*v_t is `ModuleSpec.scale`.  This module's
own checks are on file formats only.
"""

import csv
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .device import ModuleSpec, PVCellParams, check_number

# fit configuration
N_BOUNDS = (0.5, 5.0)          # ideality factor search range
A_BOUNDS = (1e-4, 1e6)         # gain ratio search range, 1/lux
MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-8          # step in log a (relative change of a) declaring convergence
INIT_GRID_A = 10.0 ** np.arange(-2, 4)   # 1e-2 .. 1e3 per lux

AMBIENT_OFFSET_WARN_V = 1e-3   # zero-lux voltage above this suggests stray light


class ParseError(ValueError):
    """Malformed calibration CSV; message names the offending line."""


class SchemaError(ValueError):
    """Model card document does not match the expected schema."""


class DegenerateDataError(ValueError):
    """Calibration data cannot identify the model parameters."""


@dataclass(frozen=True)
class ResponseSample:
    """One measured calibration point."""

    lux: float
    volts: float

    def __post_init__(self):
        for name in ("lux", "volts"):
            check_number(name, getattr(self, name), 0)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a response fit.

    iterations counts the accepted Gauss-Newton steps in log a, and
    cost_history holds the profile cost (the residual sum of squares at the
    best n) at the best INIT_GRID_A point and after each accepted step; it
    is diagnostic only.  converged means a step fell below STEP_TOLERANCE
    within MAX_ITERATIONS with n and a strictly inside their bounds.
    """

    n_hat: float
    a_hat: float
    rmse: float
    iterations: int
    converged: bool
    cost_history: tuple = ()

    def __post_init__(self):
        check_number("n_hat", self.n_hat, 0, strict=True)
        check_number("a_hat", self.a_hat, 0, strict=True)
        check_number("rmse", self.rmse, 0)


def load_samples(source):
    """Parse calibration samples from CSV with header ``lux,volts``.

    `source` may be a path, bytes, or a file-like object (text or binary).
    Rows are returned in input order.  Raises ParseError with the line
    number for malformed rows and ValueError with it for rejected values.
    """
    text = _read_text(source)
    reader = csv.reader(io.StringIO(text))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise ParseError("line 1: empty input, expected header 'lux,volts'")
    header_line, header = rows[0]
    if [h.strip().lstrip("﻿").lower() for h in header] != ["lux", "volts"]:
        raise ParseError(f"line {header_line}: expected header 'lux,volts', got {','.join(header)!r}")
    samples = []
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise ParseError(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            lux, volts = float(row[0]), float(row[1])
        except ValueError:
            raise ParseError(f"line {lineno}: could not parse {row!r} as numbers") from None
        try:
            samples.append(ResponseSample(lux, volts))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if lux == 0 and volts > AMBIENT_OFFSET_WARN_V:
            warnings.warn(
                f"line {lineno}: {volts} V at zero lux suggests ambient light "
                "during calibration",
                stacklevel=2,
            )
    return samples


def _read_text(source):
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    if isinstance(source, bytes):
        return source.decode("utf-8")
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def fit_response(samples, cell_count: int, temperature: float = 300.0) -> FitResult:
    """Least-squares fit of (n, a) to measured response samples.

    Needs at least 4 samples whose nonzero illuminances span a decade.
    The model is linear in n, so the fit searches log a alone (variable
    projection): Gauss-Newton steps from the best point of INIT_GRID_A,
    each clipped to A_BOUNDS and halved until the cost falls.  `iterations`
    counts the accepted steps.  `converged` is true once a step falls below
    STEP_TOLERANCE within the budget with n and a strictly inside their
    bounds.  Raises DegenerateDataError for unidentifiable data and for
    samples that overflow the fit's arithmetic or make it divide by zero.
    """
    # the model is prefactor * n * ln(a*L + 1); with unit n, i0 and eta, scale is N*v_t
    prefactor = ModuleSpec(cell_count, PVCellParams(1.0, 1.0, 1.0, temperature)).scale
    samples = list(samples)
    if len(samples) < 4:
        raise ValueError(f"need at least 4 samples, got {len(samples)}")
    # sorting makes the result independent of input order
    samples.sort(key=lambda s: (s.lux, s.volts))
    lux = np.array([s.lux for s in samples])
    volts = np.array([s.volts for s in samples])
    nonzero = lux[lux > 0]
    if nonzero.size == 0 or nonzero.max() < 10.0 * nonzero.min():
        raise DegenerateDataError(
            "samples must span at least one decade of nonzero lux; "
            "the (n, a) pair is unidentifiable otherwise"
        )

    lo, hi = math.log(A_BOUNDS[0]), math.log(A_BOUNDS[1])
    converged = False
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cost, n_hat, step, log_a = min(
                _profile(t, lux, volts, prefactor) + (t,) for t in np.log(INIT_GRID_A).tolist())
            history = [cost]
            for _ in range(MAX_ITERATIONS):
                target = min(max(log_a + step, lo), hi)
                while abs(target - log_a) >= STEP_TOLERANCE:
                    trial = _profile(target, lux, volts, prefactor)
                    if trial[0] < cost:
                        break
                    target = log_a + (target - log_a) / 2
                else:
                    converged = N_BOUNDS[0] < n_hat < N_BOUNDS[1] and lo < log_a < hi
                    break
                (cost, n_hat, step), log_a = trial, target
                history.append(cost)
    except FloatingPointError as exc:
        raise DegenerateDataError(
            f"{exc} fitting samples with volts up to {float(volts.max())!r} V "
            f"and nonzero lux {float(nonzero.min())!r} to {float(nonzero.max())!r}"
        ) from None

    return FitResult(
        n_hat=n_hat,
        a_hat=math.exp(log_a),
        rmse=math.sqrt(cost / len(samples)),
        iterations=len(history) - 1,
        converged=converged,
        cost_history=tuple(history),
    )


def _profile(log_a, lux, volts, prefactor):
    """(cost, best n, Gauss-Newton step in log a) at one log a.

    For fixed a the model prefactor*n*b, b = ln(a*L + 1), is linear in n, so
    the best n is a least-squares ratio clipped to N_BOUNDS.  The step uses
    Kaufman's Jacobian: the model's derivative in log a with its component
    along b removed.
    """
    a_lux = math.exp(log_a) * lux
    basis = np.log1p(a_lux)
    bb = np.dot(basis, basis)
    n = min(max(float(np.dot(volts, basis) / bb) / prefactor, N_BOUNDS[0]), N_BOUNDS[1])
    residual = prefactor * n * basis - volts
    slope = a_lux / (a_lux + 1.0)
    jac = prefactor * n * (slope - np.dot(slope, basis) / bb * basis)
    return float(np.dot(residual, residual)), n, float(-np.dot(jac, residual) / np.dot(jac, jac))


def to_i0(fit: FitResult, eta: float) -> float:
    """Back out the saturation current i0 = eta / a_hat, amperes."""
    return check_number("eta", eta, 0, strict=True) / fit.a_hat


MODEL_CARD_FIELDS = {"cell_count", "n", "i0", "eta", "temperature", "fit"}
MODEL_CARD_FIT_FIELDS = {"rmse", "converged"}


def atomic_write_text(destination, text):
    """Write UTF-8 text through a temp file in the same directory.

    `os.replace` swaps it in, so readers see the old file or the new one,
    never a partial write.
    """
    destination = Path(destination)
    fd, tmp = tempfile.mkstemp(dir=destination.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, destination)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model_card(spec: ModuleSpec, fit: FitResult, destination):
    """Write a fitted module description as JSON, atomically."""
    card = {"cell_count": spec.cell_count, **asdict(spec.params), "fit": {"rmse": fit.rmse, "converged": fit.converged}}
    atomic_write_text(destination, json.dumps(card, indent=2) + "\n")


def load_model_card(source) -> ModuleSpec:
    """Load a model card written by `save_model_card`; strict schema."""
    text = _read_text(source)
    try:
        card = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model card is not valid JSON: {exc}") from None
    if not isinstance(card, dict):
        raise SchemaError("model card must be a JSON object")
    if set(card) != MODEL_CARD_FIELDS:
        missing = MODEL_CARD_FIELDS - set(card)
        extra = set(card) - MODEL_CARD_FIELDS
        raise SchemaError(f"model card fields missing={sorted(missing)} extra={sorted(extra)}")
    if not isinstance(card["fit"], dict) or set(card["fit"]) != MODEL_CARD_FIT_FIELDS:
        raise SchemaError("model card 'fit' must contain exactly rmse and converged")
    if card["fit"]["converged"] is not True:
        raise SchemaError(f"model card converged must be true, got {card['fit']['converged']!r}")
    try:
        check_number("rmse", card["fit"]["rmse"], 0)
        params = PVCellParams(n=card["n"], i0=card["i0"], eta=card["eta"], temperature=card["temperature"])
        return ModuleSpec(cell_count=card["cell_count"], params=params)
    except ValueError as exc:
        raise SchemaError(f"model card {exc}") from None
