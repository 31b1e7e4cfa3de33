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
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import __version__, experiments
from .calibration import (
    DegenerateDataError,
    ParseError,
    SchemaError,
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
from .link import LinkConfig, ac_couple, bits_to_levels, receive, receive_levels, run_link, training_sequence  # noqa: F401
from .experiments import export_eye, write_csv, write_eye_csv, CSV_HEADERS
from .seeding import payload_bits

import numpy as np

SWEEP_KINDS = ("response", "derivatives", "ber_vs_m", "ber_vs_dcl", "postdist", "eye")
DEFAULT_ETA = 2e-9  # A/lux, assumed conversion factor when none is calibrated


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
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
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
    sweep.add_argument("--jobs", type=int, help="worker processes (default 1)")
    sweep.add_argument("--lux-max", type=float, help="response/derivative grid end (default 2000)")
    sweep.add_argument("--lux-step", type=float, help="response/derivative grid step (default 10)")
    sweep.add_argument("--cells-list", help="comma list of cell counts (default 1,2,4,8)")
    sweep.add_argument("--m-grid", help="comma list of modulation indices")
    sweep.add_argument("--illuminances", help="comma list of tx DC illuminances (ber_vs_m)")
    sweep.add_argument("--dcl-grid", help="comma list of DCL illuminances (ber_vs_dcl)")
    sweep.add_argument("--dcl-m-list", help="comma list of m values (ber_vs_dcl)")
    sweep.add_argument("--gain-cap", type=float, help="post-distortion gain cap (default 4)")
    sweep.add_argument("--traces", type=int, help="eye traces to export (default 64)")
    return parser


def _add_link_flags(cmd):
    cmd.add_argument("model", help="model card JSON from 'pvlc fit'")
    cmd.add_argument("--config", help="JSON file with flag defaults")
    cmd.add_argument("--bit-rate", type=float)
    cmd.add_argument("--sps", type=int, help="samples per symbol")
    cmd.add_argument("--mod-index", type=float)
    cmd.add_argument("--tx-dc", type=float, help="transmitter DC illuminance, lux")
    cmd.add_argument("--dcl", type=float, help="compensation light illuminance, lux")
    cmd.add_argument("--ambient", type=float)
    cmd.add_argument("--thermal-sigma", type=float, help="thermal noise RMS, volts")
    cmd.add_argument("--no-shot", action="store_true", default=None, help="disable shot noise")
    cmd.add_argument("--noise-bandwidth", type=float)
    cmd.add_argument("--lpf-cutoff", type=float, help="single-pole low-pass cutoff, Hz")
    cmd.add_argument("--training", type=int, help="training symbols")
    cmd.add_argument("--seed", type=int, help="RNG seed (required; never clock-seeded)")


def _merge_config(args):
    """Overlay CLI flags on the optional JSON config; flags win."""
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
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if merged.get(key) is None:
                merged[key] = value
    return merged


def _require_file(path_str, what):
    path = Path(path_str)
    if not path.is_file():
        raise ValueError(f"{what} not found: {path}")
    return path


def _link_config(merged):
    defaults = LinkConfig()
    shot = defaults.shot_noise_enabled if merged.get("no_shot") is None else not merged["no_shot"]
    pick = partial(_given, merged)
    if merged.get("seed") is None:
        raise ValueError("an explicit --seed (or config 'seed') is required")
    return LinkConfig(
        bit_rate=pick("bit_rate", defaults.bit_rate),
        samples_per_symbol=pick("sps", defaults.samples_per_symbol),
        mod_index=pick("mod_index", defaults.mod_index),
        tx_dc_lux=pick("tx_dc", defaults.tx_dc_lux),
        dcl_lux=pick("dcl", defaults.dcl_lux),
        ambient_lux=pick("ambient", defaults.ambient_lux),
        thermal_sigma_v=pick("thermal_sigma", defaults.thermal_sigma_v),
        shot_noise_enabled=shot,
        noise_bandwidth_hz=pick("noise_bandwidth", defaults.noise_bandwidth_hz),
        lpf_cutoff_hz=merged.get("lpf_cutoff"),
        training_symbols=pick("training", defaults.training_symbols),
        seed=int(merged["seed"]),
    )


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

    if kind in ("response", "derivatives"):
        lux_max = _given(merged, "lux_max", 2000.0)
        lux_step = _positive(merged, "lux_step", 10.0, float)
        grid = np.arange(0.0, lux_max + lux_step / 2, lux_step)
        cells = _parse_list(merged, "cells_list", int, experiments.RESPONSE_CELL_COUNTS)
        if kind == "response":
            rows = experiments.sweep_response(grid, cells, spec)
        else:
            rows = experiments.sweep_derivatives(grid[grid > 0], cells, spec)
        write_csv(out_dir / f"{kind}.csv", CSV_HEADERS[kind], rows)
    elif kind == "ber_vs_m":
        config = _link_config(merged)
        m_grid = _parse_list(merged, "m_grid", float, experiments.M_GRID)
        illum = _parse_list(merged, "illuminances", float, experiments.BER_VS_M_ILLUMINANCES)
        rows = experiments.sweep_ber_vs_m(m_grid, illum, config, spec, reps, payload_symbols, jobs)
        write_csv(out_dir / "ber_vs_m.csv", CSV_HEADERS[kind], rows)
    elif kind == "ber_vs_dcl":
        config = _link_config(merged)
        dcl_grid = _parse_list(merged, "dcl_grid", float, experiments.DCL_GRID)
        m_list = _parse_list(merged, "dcl_m_list", float, experiments.DCL_M_LIST)
        rows = experiments.sweep_ber_vs_dcl(dcl_grid, m_list, config, spec, reps, payload_symbols, jobs)
        write_csv(out_dir / "ber_vs_dcl.csv", CSV_HEADERS[kind], rows)
    elif kind == "postdist":
        if merged.get("tx_dc") is None:
            merged["tx_dc"] = experiments.POSTDIST_TX_LUX
        config = _link_config(merged)
        m_grid = _parse_list(merged, "m_grid", float, experiments.POSTDIST_M_GRID)
        gain_cap = _positive(merged, "gain_cap", 4.0, float)
        rows = experiments.sweep_postdistortion(m_grid, config, spec, gain_cap, reps, payload_symbols, jobs)
        write_csv(out_dir / "postdist.csv", CSV_HEADERS[kind], rows)
    else:  # eye
        config = _link_config(merged)
        traces = _positive(merged, "traces", 64)
        train = training_sequence(config)
        n_payload = max(2 * traces + 8, 256)
        levels = np.concatenate([train, bits_to_levels(payload_bits(2 * n_payload, config.seed))])
        v = ac_couple(receive_levels(levels, spec, config, np.random.default_rng(config.seed)))
        eye = export_eye(v[len(train) * config.samples_per_symbol :], config.samples_per_symbol, traces)
        write_eye_csv(eye, out_dir / "eye.csv")
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

    Zero, negative and wrongly typed values (a config file can hold any
    JSON) are rejected, never replaced by the default.
    """
    value = _given(merged, key, default)
    types = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, types) or not value > 0:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{_flag(key)} must be a positive {noun}, got {value!r}")
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
