"""Command-line interface: calibration fits, single link runs, and sweeps.

`pvlc fit`, `pvlc simulate` and each `pvlc sweep <kind>` take only the
options they read (`--help` lists them), as flags or as keys of a JSON config
file (--config); an explicit flag wins over the file.  Randomized commands
never seed from the clock: a seed must come from --seed or the config file.
`pvlc fit` and `pvlc sweep` write run_manifest.json beside their outputs: the
positionals, the resolved value of each option read and the LinkConfig used.
`pvlc simulate` prints its BER report with the payload_symbols and the
LinkConfig it ran.

Exit codes: 0 success, 1 computation-level failure (non-convergence,
unidentifiable data), 2 usage or validation error, or arrays too large for memory.
"""

import argparse
import json
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
from .device import ModuleSpec, PVCellParams, is_finite
# `receive` is unused here but stays importable as pvlc.cli.receive: the
# traced CLI session in perfbench/workload.py wraps that attribute.
from .link import LinkConfig, receive, run_link, simulate  # noqa: F401
from .experiments import export_eye, write_csv, write_eye_csv, CSV_HEADERS
from .seeding import payload_bits

import numpy as np

DEFAULT_ETA = experiments.DEFAULT_MODULE.params.eta  # A/lux, assumed when none is calibrated
POSITIONALS = ("command", "kind", "model", "samples")   # not settable from a config file

# (flag key, LinkConfig field, type, help) of every link flag, one per LinkConfig field
LINK_FLAGS = (
    ("sps", "samples_per_symbol", int, "samples per symbol"),
    ("mod_index", "mod_index", float, "modulation index, peak AC over DC illuminance, in (0, 1]"),
    ("tx_dc", "tx_dc_lux", float, "transmitter DC illuminance, lux"),
    ("dcl", "dcl_lux", float, "compensation light illuminance, lux"),
    ("ambient", "ambient_lux", float, "ambient light illuminance, lux"),
    ("thermal_sigma", "thermal_sigma_v", float, "thermal noise RMS, volts"),
    ("noise_bandwidth", "noise_bandwidth_hz", float, "effective shot-noise bandwidth, Hz (0 disables shot noise)"),
    ("lpf_cutoff", "lpf_cutoff_hz", float, "single-pole low-pass cutoff, Hz (at 1 Mbit/s)"),
    ("training", "training_symbols", int, "training symbols"),
    ("seed", "seed", int, "RNG seed (required; never clock-seeded)"),
)
# the commands that take the link flags, each with the LinkConfig defaults it overrides
LINK_COMMANDS = {"simulate": {}, "ber_vs_m": {}, "ber_vs_dcl": {}, "eye": {},
                 "postdist": {"tx_dc_lux": experiments.POSTDIST_TX_LUX}}

# (flag key, kind, default, help) of every other option, per command and sweep kind.  Kind
# int or float takes a positive number, str a string, [int] or [float] a comma list.
OUT_DIR = (("out_dir", str, ".", "output directory"),)
BER_RUNS = (   # in the argument order of the experiments.sweep_ber_* functions
    ("reps", int, experiments.REPETITIONS, "repetitions per BER point"),
    ("payload_symbols", int, experiments.PAYLOAD_SYMBOLS, "payload length per BER cell"),
    ("jobs", int, 1, "threads running BER cells, the calling one included"),
)
LUX_GRID = (
    ("lux_max", float, float(experiments.RESPONSE_LUX_GRID[-1]), "grid end, lux"),
    ("lux_step", float, float(experiments.RESPONSE_LUX_GRID[1] - experiments.RESPONSE_LUX_GRID[0]), "grid step, lux"),
    ("cells_list", [int], experiments.RESPONSE_CELL_COUNTS, "comma list of cell counts"),
)
OPTIONS = {
    "fit": (
        ("cells", int, 1, "number of series cells"),
        ("temp", float, 300.0, "temperature in kelvin"),
        ("eta", float, DEFAULT_ETA, "conversion factor A/lux"),
        ("out", str, "model.json", "model card path"),
    ),
    "simulate": (("payload_symbols", int, experiments.PAYLOAD_SYMBOLS, "payload length"),),
    "response": OUT_DIR + LUX_GRID,
    "derivatives": OUT_DIR + LUX_GRID,
    "ber_vs_m": OUT_DIR + BER_RUNS + (
        ("m_grid", [float], experiments.M_GRID, "comma list of modulation indices"),
        ("illuminances", [float], experiments.BER_VS_M_ILLUMINANCES, "comma list of tx DC illuminances"),
    ),
    "ber_vs_dcl": OUT_DIR + BER_RUNS + (
        ("dcl_grid", [float], experiments.DCL_GRID, "comma list of DCL illuminances"),
        ("dcl_m_list", [float], experiments.DCL_M_LIST, "comma list of modulation indices"),
    ),
    "postdist": OUT_DIR + BER_RUNS + (
        ("m_grid", [float], experiments.POSTDIST_M_GRID, "comma list of modulation indices"),
        ("gain_cap", float, DEFAULT_GAIN_CAP, "post-distortion gain cap"),
    ),
    "eye": OUT_DIR + (("traces", int, 64, "eye traces to export"),),
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge_config(args)
        options = _resolve(merged, OPTIONS[merged.get("kind", args.command)])
        command = {"fit": _cmd_fit, "simulate": _cmd_simulate, "sweep": _cmd_sweep}[args.command]
        return command(merged, options)
    except DegenerateDataError as exc:
        print(f"error: unidentifiable calibration data: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:   # calibration's ParseError and SchemaError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # numpy's _ArrayMemoryError too
        print(f"error: the requested arrays do not fit in memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 2


def _build_parser():
    # no parser takes a prefix of a flag for the flag: it could stand for another command's option
    parser = argparse.ArgumentParser(prog="pvlc", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"pvlc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fit", help="fit a module model card from a lux,volts CSV", allow_abbrev=False)
    sub.add_parser("simulate", help="run one PAM4 link and print a BER report", allow_abbrev=False)
    kinds = sub.add_parser("sweep", help="write sweep CSV datasets", allow_abbrev=False).add_subparsers(
        dest="kind", required=True)
    for name, options in OPTIONS.items():   # one sub-parser per row
        cmd = sub.choices.get(name) or kinds.add_parser(name, help=f"write {name}.csv", allow_abbrev=False)
        if name == "fit":
            cmd.add_argument("samples", help="calibration CSV with header lux,volts")
        else:
            cmd.add_argument("model", help="model card JSON from 'pvlc fit'")
        cmd.add_argument("--config", help="JSON file with flag defaults")
        if name in LINK_COMMANDS:
            for key, field, kind, help_text in LINK_FLAGS:
                if field in LINK_COMMANDS[name]:
                    help_text = f"{help_text} (default {LINK_COMMANDS[name][field]:g})"
                cmd.add_argument(_flag(key), type=kind, help=help_text)
        for key, kind, default, help_text in options:
            if isinstance(kind, list):
                shown = [f"{x:g}" for x in default]
                default = ",".join(shown if len(shown) <= 8 else [*shown[:2], "...", shown[-1]])
            cmd.add_argument(_flag(key), type=None if isinstance(kind, list) else kind,
                             help=f"{help_text} (default {default})")
    return parser


def _merge_config(args):
    """Overlay CLI flags on the optional JSON config; flags win.

    Every file key must name an option of the command and hold a value, so a
    misspelt key or a null fails instead of being ignored or defaulted.
    """
    merged = dict(vars(args))
    config_path = merged.pop("config", None)
    if config_path:
        path = _require_file(config_path, "config file")
        try:
            file_values = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        flags = set(merged).difference(POSITIONALS)
        command = " ".join(merged[key] for key in ("command", "kind") if key in merged)
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if key not in flags:
                raise ValueError(f"unknown config file key {key!r} for 'pvlc {command}'")
            if value is None:
                raise ValueError(f"{_flag(key)} must not be null in the config file")
            if merged.get(key) is None:
                merged[key] = value
    return merged


def _resolve(merged, options):
    """Each option's checked value: the flag, else the config file's, else the table default."""
    values = {}
    for key, kind, default, _ in options:
        if merged.get(key) is None:
            values[key] = default
        elif isinstance(kind, list):
            values[key] = _parse_list(merged, key, kind[0])
        else:
            values[key] = _typed(merged, key, kind, positive=kind is not str)
    return values


def _require_file(path_str, what):
    path = Path(path_str)
    if not path.is_file():
        raise ValueError(f"{what} not found: {path}")
    return path


def _link_config(merged, name):
    """LinkConfig from the link flags given; the others keep command `name`'s defaults."""
    if merged.get("seed") is None:
        raise ValueError("an explicit --seed (or config 'seed') is required")
    fields = LINK_COMMANDS[name] | {field: _typed(merged, key, kind) for key, field, kind, _ in LINK_FLAGS
                                    if merged.get(key) is not None}
    return LinkConfig(**fields)


def _write_manifest(directory, merged, options, config=None, **extra):
    """The positionals, every resolved option and the LinkConfig used."""
    manifest = {key: merged[key] for key in POSITIONALS if key in merged} | options
    if config is not None:
        manifest["link"] = asdict(config)
    manifest |= {"version": __version__, **extra}
    atomic_write_text(Path(directory) / "run_manifest.json", json.dumps(manifest, indent=2) + "\n")


def _cmd_fit(merged, options):
    samples = load_samples(_require_file(merged["samples"], "samples CSV"))
    cells, temp, eta, out = options["cells"], options["temp"], options["eta"], Path(options["out"])
    fit = fit_response(samples, cells, temp)
    if not fit.converged:
        print(f"error: fit did not converge within the iteration budget (rmse={fit.rmse:.3e})", file=sys.stderr)
        return 1
    spec = ModuleSpec(cell_count=cells, params=PVCellParams(n=fit.n_hat, i0=to_i0(fit, eta), eta=eta, temperature=temp))
    save_model_card(spec, fit, out)
    _write_manifest(out.parent, merged, options, rmse=fit.rmse, iterations=fit.iterations)
    print(json.dumps({"model": str(out), "n": fit.n_hat, "i0": spec.params.i0, "rmse": fit.rmse,
                      "iterations": fit.iterations, "converged": fit.converged}))
    return 0


def _cmd_simulate(merged, options):
    spec = load_model_card(_require_file(merged["model"], "model card"))
    config = _link_config(merged, "simulate")
    report = run_link(config, spec, payload_bits(2 * options["payload_symbols"], config.seed))
    print(json.dumps(asdict(report) | {"payload_symbols": options["payload_symbols"], "link": asdict(config)}))
    return 0


def _cmd_sweep(merged, options):
    kind = merged["kind"]
    spec = load_model_card(_require_file(merged["model"], "model card"))
    config = _link_config(merged, kind) if kind in LINK_COMMANDS else None
    out_dir = Path(options["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = [options[key] for key, *_ in BER_RUNS if key in options]   # of each BER point

    if kind in ("response", "derivatives"):
        step = options["lux_step"]
        grid = np.arange(0.0, options["lux_max"] + step / 2, step)
        if kind == "response":
            rows = experiments.sweep_response(grid, options["cells_list"], spec)
        else:
            rows = experiments.sweep_derivatives(grid[grid > 0], options["cells_list"], spec)
    elif kind == "ber_vs_m":
        rows = experiments.sweep_ber_vs_m(options["m_grid"], options["illuminances"], config, spec, *runs)
    elif kind == "ber_vs_dcl":
        rows = experiments.sweep_ber_vs_dcl(options["dcl_grid"], options["dcl_m_list"], config, spec, *runs)
    elif kind == "postdist":
        rows = experiments.sweep_postdistortion(options["m_grid"], config, spec, options["gain_cap"], *runs)
    else:  # eye
        traces, sps = options["traces"], config.samples_per_symbol
        v = simulate(config, spec, payload_bits(2 * max(2 * traces + 8, 256), config.seed), (lambda v: v,))[0].v
        write_eye_csv(export_eye(v[config.training_symbols * sps :], sps, traces), out_dir / "eye.csv")
    if kind in CSV_HEADERS:
        write_csv(out_dir / f"{kind}.csv", CSV_HEADERS[kind], rows)
    _write_manifest(out_dir, merged, options, config)
    return 0


def _flag(key):
    return "--" + key.replace("_", "-")


def _typed(merged, key, kind, positive=False):
    """A given flag's value, checked to be of type `kind` (int, float or str).

    A config file can hold any JSON, so its values are checked here, where a wrong
    type gets a message naming the flag.  Numbers must be finite (a JSON integer
    beyond the float range is not); a float flag returns a float.
    """
    value = merged[key]
    if kind is str:
        valid = isinstance(value, str)
    else:
        number = (int,) if kind is int else (int, float)
        valid = isinstance(value, number) and is_finite(value)
    if valid and positive:
        valid = value > 0
    if not valid:
        if positive:
            noun = "a positive integer" if kind is int else "a positive number"
        else:
            noun = {str: "a string", int: "an integer", float: "a finite number"}[kind]
        raise ValueError(f"{_flag(key)} must be {noun}, got {value!r}")
    return float(value) if kind is float else value


def _parse_list(merged, key, kind):
    """A comma list flag or a JSON list from the config file; never empty, nor with an empty item.

    Each item must pass `_typed`'s rule for `kind`, so a JSON 1.5 or true
    among cell counts is rejected, not truncated.
    """
    value = merged[key]
    if isinstance(value, list):
        items = value
    else:
        try:   # an empty item, as in "425,,", does not parse
            items = [kind(x) for x in str(value).split(",")]
        except ValueError:
            raise ValueError(f"{_flag(key)}: could not parse list {value!r}") from None
    if not items:
        raise ValueError(f"{_flag(key)} must not be empty")
    return [_typed({key: item}, key, kind) for item in items]


if __name__ == "__main__":
    sys.exit(main())
