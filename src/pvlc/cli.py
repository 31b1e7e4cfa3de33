"""Command-line interface: calibration fits, single link runs, and sweeps.

Every flag can also be supplied through a JSON config file (--config); an
explicit flag wins over the file.  Randomized commands never seed from the
clock: a seed must come from --seed or the config file.  The effective
parameters of each run are echoed to run_manifest.json beside the outputs.

Exit codes: 0 success, 1 computation-level failure (non-convergence,
unidentifiable data), 2 usage or validation error.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, experiments
from .compensation import DEFAULT_GAIN_CAP
from .calibration import (
    DegenerateDataError,
    atomic_write_text,
    fit_response,
    load_model_card,
    load_samples,
    save_model_card,
    to_i0,
)
from .device import ModuleSpec, PVCellParams
# `receive` is unused here but stays importable as pvlc.cli.receive: the
# traced CLI session in perfbench/workload.py wraps that attribute.
from .link import LinkConfig, receive, run_link, simulate  # noqa: F401
from .experiments import export_eye, write_csv, write_eye_csv, CSV_HEADERS
from .seeding import payload_bits

import numpy as np

SWEEP_KINDS = (*CSV_HEADERS, "eye")
DEFAULT_ETA = 2e-9  # A/lux, assumed conversion factor when none is calibrated
POSITIONALS = {"command", "kind", "model", "samples"}   # not settable from a config file

# (flag key, LinkConfig field, type, help) of every link flag but --no-shot
LINK_FLAGS = (
    ("bit_rate", "bit_rate", float, None),
    ("sps", "samples_per_symbol", int, "samples per symbol"),
    ("mod_index", "mod_index", float, None),
    ("tx_dc", "tx_dc_lux", float, "transmitter DC illuminance, lux"),
    ("dcl", "dcl_lux", float, "compensation light illuminance, lux"),
    ("ambient", "ambient_lux", float, None),
    ("thermal_sigma", "thermal_sigma_v", float, "thermal noise RMS, volts"),
    ("noise_bandwidth", "noise_bandwidth_hz", float, None),
    ("lpf_cutoff", "lpf_cutoff_hz", float, "single-pole low-pass cutoff, Hz"),
    ("training", "training_symbols", int, "training symbols"),
    ("seed", "seed", int, "RNG seed (required; never clock-seeded)"),
)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge_config(args)
        if args.command == "fit":
            return _cmd_fit(merged)
        if args.command == "simulate":
            return _cmd_simulate(merged)
        return _cmd_sweep(merged)
    except DegenerateDataError as exc:
        print(f"error: unidentifiable calibration data: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:   # calibration's ParseError and SchemaError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(prog="pvlc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pvlc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a module model card from a lux,volts CSV")
    fit.add_argument("samples", help="calibration CSV with header lux,volts")
    fit.add_argument("--config", help="JSON file with flag defaults")
    fit.add_argument("--cells", type=int, help="number of series cells (default 1)")
    fit.add_argument("--temp", type=float, help="temperature in kelvin (default 300)")
    fit.add_argument("--eta", type=float, help=f"conversion factor A/lux (default {DEFAULT_ETA})")
    fit.add_argument("--out", help="model card path (default model.json)")

    sim = sub.add_parser("simulate", help="run one PAM4 link and print a BER report")
    _add_link_flags(sim)
    sim.add_argument("--payload-symbols", type=int, help="payload length (default 250000)")

    sweep = sub.add_parser("sweep", help="write sweep CSV datasets")
    sweep.add_argument("kind", choices=SWEEP_KINDS)
    _add_link_flags(sweep)
    sweep.add_argument("--out-dir", help="output directory (default .)")
    sweep.add_argument("--payload-symbols", type=int)
    sweep.add_argument("--reps", type=int, help="repetitions per BER point (default 5)")
    sweep.add_argument("--jobs", type=int, help="worker threads (default 1)")
    sweep.add_argument("--lux-max", type=float, help="response/derivative grid end (default 2000)")
    sweep.add_argument("--lux-step", type=float, help="response/derivative grid step (default 10)")
    sweep.add_argument("--cells-list", help="comma list of cell counts (default 1,2,4,8)")
    sweep.add_argument("--m-grid", help="comma list of modulation indices")
    sweep.add_argument("--illuminances", help="comma list of tx DC illuminances (ber_vs_m)")
    sweep.add_argument("--dcl-grid", help="comma list of DCL illuminances (ber_vs_dcl)")
    sweep.add_argument("--dcl-m-list", help="comma list of m values (ber_vs_dcl)")
    sweep.add_argument("--gain-cap", type=float, help=f"post-distortion gain cap (default {DEFAULT_GAIN_CAP:g})")
    sweep.add_argument("--traces", type=int, help="eye traces to export (default 64)")
    return parser


def _add_link_flags(cmd):
    cmd.add_argument("model", help="model card JSON from 'pvlc fit'")
    cmd.add_argument("--config", help="JSON file with flag defaults")
    for key, _, kind, help_text in LINK_FLAGS:
        cmd.add_argument(_flag(key), type=kind, help=help_text)
    cmd.add_argument("--no-shot", action="store_true", default=None, help="disable shot noise")


def _merge_config(args):
    """Overlay CLI flags on the optional JSON config; flags win.

    Every file key must name an option of the command, so a misspelt key
    fails instead of being ignored.
    """
    merged = dict(vars(args))
    config_path = merged.pop("config", None)
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ValueError(f"config file not found: {path}")
        try:
            file_values = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        flags = set(merged) - POSITIONALS
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if key not in flags:
                raise ValueError(f"unknown config file key {key!r} for 'pvlc {merged['command']}'")
            if merged.get(key) is None:
                merged[key] = value
    return merged


def _require_file(path_str, what):
    path = Path(path_str)
    if not path.is_file():
        raise ValueError(f"{what} not found: {path}")
    return path


def _link_config(merged):
    """LinkConfig from the link flags given; the others keep its defaults."""
    if merged.get("seed") is None:
        raise ValueError("an explicit --seed (or config 'seed') is required")
    fields = {field: _typed(merged, key, kind) for key, field, kind, _ in LINK_FLAGS
              if merged.get(key) is not None}
    if merged.get("no_shot") is not None:
        fields["shot_noise_enabled"] = not _typed(merged, "no_shot", bool)
    return LinkConfig(**fields)


def _write_manifest(directory, merged, extra=None):
    manifest = {k: v for k, v in merged.items() if v is not None and k != "command"}
    manifest["command"] = merged.get("command")
    manifest["version"] = __version__
    if extra:
        manifest.update(extra)
    atomic_write_text(Path(directory) / "run_manifest.json", json.dumps(manifest, indent=2, default=str) + "\n")


def _cmd_fit(merged):
    samples_path = _require_file(merged["samples"], "samples CSV")
    cells = _positive(merged, "cells", 1)
    temp = _positive(merged, "temp", 300.0, float)
    eta = _positive(merged, "eta", DEFAULT_ETA, float)
    out = Path(_given(merged, "out", "model.json"))
    samples = load_samples(samples_path)
    fit = fit_response(samples, cells, temp)
    if not fit.converged:
        print(f"error: fit did not converge within the iteration budget (rmse={fit.rmse:.3e})", file=sys.stderr)
        return 1
    spec = ModuleSpec(cell_count=cells, params=PVCellParams(n=fit.n_hat, i0=to_i0(fit, eta), eta=eta, temperature=temp))
    save_model_card(spec, fit, out)
    _write_manifest(out.parent, merged, {"rmse": fit.rmse, "iterations": fit.iterations})
    print(json.dumps({
        "model": str(out),
        "n": fit.n_hat,
        "i0": spec.params.i0,
        "rmse": fit.rmse,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }))
    return 0


def _cmd_simulate(merged):
    model_path = _require_file(merged["model"], "model card")
    spec = load_model_card(model_path)
    config = _link_config(merged)
    n_symbols = _positive(merged, "payload_symbols", experiments.PAYLOAD_SYMBOLS)
    payload = payload_bits(2 * n_symbols, config.seed)
    report = run_link(config, spec, payload)
    print(json.dumps(asdict(report)))
    return 0


def _cmd_sweep(merged):
    kind = merged["kind"]
    model_path = _require_file(merged["model"], "model card")
    spec = load_model_card(model_path)
    reps = _positive(merged, "reps", experiments.REPETITIONS)
    jobs = _positive(merged, "jobs", 1)
    payload_symbols = _positive(merged, "payload_symbols", experiments.PAYLOAD_SYMBOLS)
    out_dir = Path(_given(merged, "out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    if kind == "postdist" and merged.get("tx_dc") is None:
        merged["tx_dc"] = experiments.POSTDIST_TX_LUX
    config = None if kind in ("response", "derivatives") else _link_config(merged)

    if kind in ("response", "derivatives"):
        lux_max = _positive(merged, "lux_max", 2000.0, float)
        lux_step = _positive(merged, "lux_step", 10.0, float)
        grid = np.arange(0.0, lux_max + lux_step / 2, lux_step)
        cells = _parse_list(merged, "cells_list", int, experiments.RESPONSE_CELL_COUNTS)
        if kind == "response":
            rows = experiments.sweep_response(grid, cells, spec)
        else:
            rows = experiments.sweep_derivatives(grid[grid > 0], cells, spec)
    elif kind == "ber_vs_m":
        m_grid = _parse_list(merged, "m_grid", float, experiments.M_GRID)
        illum = _parse_list(merged, "illuminances", float, experiments.BER_VS_M_ILLUMINANCES)
        rows = experiments.sweep_ber_vs_m(m_grid, illum, config, spec, reps, payload_symbols, jobs)
    elif kind == "ber_vs_dcl":
        dcl_grid = _parse_list(merged, "dcl_grid", float, experiments.DCL_GRID)
        m_list = _parse_list(merged, "dcl_m_list", float, experiments.DCL_M_LIST)
        rows = experiments.sweep_ber_vs_dcl(dcl_grid, m_list, config, spec, reps, payload_symbols, jobs)
    elif kind == "postdist":
        m_grid = _parse_list(merged, "m_grid", float, experiments.POSTDIST_M_GRID)
        gain_cap = _positive(merged, "gain_cap", DEFAULT_GAIN_CAP, float)
        rows = experiments.sweep_postdistortion(m_grid, config, spec, gain_cap, reps, payload_symbols, jobs)
    else:  # eye
        traces = _positive(merged, "traces", 64)
        sps = config.samples_per_symbol
        v = simulate(config, spec, payload_bits(2 * max(2 * traces + 8, 256), config.seed))[0].v
        write_eye_csv(export_eye(v[config.training_symbols * sps :], sps, traces), out_dir / "eye.csv")
    if kind in CSV_HEADERS:
        write_csv(out_dir / f"{kind}.csv", CSV_HEADERS[kind], rows)
    _write_manifest(out_dir, merged)
    return 0


def _flag(key):
    return "--" + key.replace("_", "-")


def _given(merged, key, default):
    """The flag's value, or `default` only when the flag was not given."""
    value = merged.get(key)
    return default if value is None else value


def _positive(merged, key, default, kind=int):
    """A count or scale flag: `default` when not given, else a number > 0.

    Zero, negative, non-finite and wrongly typed values (a config file can
    hold any JSON) are rejected, never replaced by the default.
    """
    return default if merged.get(key) is None else _typed(merged, key, kind, positive=True)


def _typed(merged, key, kind, positive=False):
    """A given flag's value, checked to be of type `kind` (int, float or bool).

    A config file can hold any JSON, so its values are checked here, where
    a wrong type gets a message naming the flag; numbers must be finite.
    """
    value = merged[key]
    if kind is bool:
        valid = isinstance(value, bool)
    elif isinstance(value, bool):
        valid = False
    elif kind is int:
        valid = isinstance(value, int)
    else:
        valid = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    if valid and positive:
        valid = value > 0
    if not valid:
        if positive:
            noun = "a positive integer" if kind is int else "a positive number"
        else:
            noun = {bool: "true or false", int: "an integer", float: "a finite number"}[kind]
        raise ValueError(f"{_flag(key)} must be {noun}, got {value!r}")
    return value


def _parse_list(merged, key, conv, default):
    """A comma list flag (or a JSON list from the config file); never empty."""
    text = merged.get(key)
    if text is None:
        return default
    try:
        items = text if isinstance(text, (list, tuple)) else [x for x in str(text).split(",") if x.strip()]
        values = [conv(x) for x in items]
    except (TypeError, ValueError):
        raise ValueError(f"{_flag(key)}: could not parse list {text!r}") from None
    if not values:
        raise ValueError(f"{_flag(key)} must not be empty")
    return values


if __name__ == "__main__":
    sys.exit(main())
