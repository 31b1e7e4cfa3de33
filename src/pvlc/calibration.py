"""Fit the logarithmic OE model to measured (illuminance, voltage) data.

The measured curve V(L) = N*n*v_t*ln(a*L + 1) is identified by two
parameters only: the ideality factor n and the gain ratio a = eta/i0.
Illuminance data cannot separate eta from i0 (they enter the model only
through a), so the fitter estimates (n, a); `to_i0` backs out i0 once an
externally calibrated eta is supplied.
"""

import csv
import io
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .device import ModuleSpec, PVCellParams, K_B, Q_E

# fit configuration
N_BOUNDS = (0.5, 5.0)          # ideality factor search range
A_BOUNDS = (1e-4, 1e6)         # gain ratio search range, 1/lux
MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-8          # relative parameter change declaring convergence
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
        if not (self.lux >= 0):
            raise ValueError(f"lux must be >= 0, got {self.lux}")
        if not (self.volts >= 0):
            raise ValueError(f"volts must be >= 0, got {self.volts}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a response fit.

    cost_history holds the residual sum of squares after each accepted
    optimizer step (first entry is the initial guess) and is diagnostic
    only.
    """

    n_hat: float
    a_hat: float
    rmse: float
    iterations: int
    converged: bool
    cost_history: tuple = ()

    def __post_init__(self):
        if not (self.n_hat > 0 and self.a_hat > 0 and self.rmse >= 0):
            raise ValueError("invalid fit result")


def load_samples(source):
    """Parse calibration samples from CSV with header ``lux,volts``.

    `source` may be a path, bytes, or a file-like object (text or binary).
    Rows are returned in input order.  Raises ParseError with the line
    number for malformed rows and ValueError for negative values.
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
        if lux < 0:
            raise ValueError(f"line {lineno}: lux must be >= 0, got {lux}")
        if volts < 0:
            raise ValueError(f"line {lineno}: volts must be >= 0, got {volts}")
        if lux == 0 and volts > AMBIENT_OFFSET_WARN_V:
            warnings.warn(
                f"line {lineno}: {volts} V at zero lux suggests ambient light "
                "during calibration",
                stacklevel=2,
            )
        samples.append(ResponseSample(lux, volts))
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
    Optimizes log-parameters with a damped Gauss-Newton iteration so both
    estimates stay positive; `converged` is true once the relative
    parameter change drops below 1e-8 within the iteration budget.
    """
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

    v_t = K_B * temperature / Q_E
    prefactor = cell_count * v_t  # model is prefactor * n * ln(a*L + 1)

    def cost_at(theta):
        return float(np.sum(_residuals(theta, lux, volts, prefactor) ** 2))

    theta = _initial_guess(lux, volts, prefactor)
    cost = cost_at(theta)
    history = [cost]
    lam = 1e-3
    iterations = 0
    converged = False

    for _ in range(MAX_ITERATIONS):
        r, jac = _residuals_and_jacobian(theta, lux, volts, prefactor)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        accepted = False
        while lam < 1e14:
            step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)) + 1e-30 * np.eye(2), -jtr)
            if np.max(np.abs(step)) < STEP_TOLERANCE:
                converged = True
                break
            trial = _project(theta + step)
            trial_cost = cost_at(trial)
            if trial_cost < cost:
                theta, cost = trial, trial_cost
                history.append(cost)
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if converged:
            break
        if not accepted:
            # no descent step available: treat as a stationary point
            converged = True
            break
        iterations += 1
        if np.max(np.abs(step)) < STEP_TOLERANCE:
            converged = True
            break

    n_hat, a_hat = np.exp(theta)
    rmse = float(np.sqrt(cost / len(samples)))
    return FitResult(
        n_hat=float(n_hat),
        a_hat=float(a_hat),
        rmse=rmse,
        iterations=iterations,
        converged=converged,
        cost_history=tuple(history),
    )


def _residuals(theta, lux, volts, prefactor):
    n, a = np.exp(theta)
    return prefactor * n * np.log1p(a * lux) - volts


def _residuals_and_jacobian(theta, lux, volts, prefactor):
    n, a = np.exp(theta)
    basis = np.log1p(a * lux)
    model = prefactor * n * basis
    jac = np.column_stack([model, prefactor * n * a * lux / (a * lux + 1.0)])
    return model - volts, jac


def _project(theta):
    lo = np.log([N_BOUNDS[0], A_BOUNDS[0]])
    hi = np.log([N_BOUNDS[1], A_BOUNDS[1]])
    return np.clip(theta, lo, hi)


def _initial_guess(lux, volts, prefactor):
    """Grid over a; the prefactor c = N*n*v_t is linear given a."""
    best = None
    for a in INIT_GRID_A:
        basis = np.log1p(a * lux)
        denom = float(basis @ basis)
        if denom == 0.0:
            continue
        c = float(volts @ basis) / denom
        n = np.clip(c / prefactor, *N_BOUNDS)
        theta = _project(np.log([n, a]))
        cost = float(np.sum(_residuals(theta, lux, volts, prefactor) ** 2))
        if best is None or cost < best[0]:
            best = (cost, theta)
    return best[1]


def to_i0(fit: FitResult, eta: float) -> float:
    """Back out the saturation current i0 = eta / a_hat, amperes."""
    if not (eta > 0):
        raise ValueError(f"eta must be > 0, got {eta}")
    return eta / fit.a_hat


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
    card = {
        "cell_count": spec.cell_count,
        "n": spec.params.n,
        "i0": spec.params.i0,
        "eta": spec.params.eta,
        "temperature": spec.params.temperature,
        "fit": {"rmse": fit.rmse, "converged": fit.converged},
    }
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
    if not (isinstance(card["fit"]["rmse"], (int, float)) and card["fit"]["rmse"] >= 0):
        raise ValueError("model card rmse must be >= 0")
    # JSON true/false parse as bool, a subclass of int: reject them too.
    if isinstance(card["cell_count"], bool) or not isinstance(card["cell_count"], int):
        raise SchemaError(f"model card cell_count must be an integer, got {card['cell_count']!r}")
    for key in ("n", "i0", "eta", "temperature"):
        if isinstance(card[key], bool) or not isinstance(card[key], (int, float)):
            raise SchemaError(f"model card {key} must be a number, got {card[key]!r}")
    params = PVCellParams(
        n=float(card["n"]),
        i0=float(card["i0"]),
        eta=float(card["eta"]),
        temperature=float(card["temperature"]),
    )
    return ModuleSpec(cell_count=card["cell_count"], params=params)
