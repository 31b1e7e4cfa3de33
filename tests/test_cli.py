import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pvlc
from pvlc import calibration, cli, experiments
from pvlc.cli import LINK_FLAGS, OPTIONS, main
from pvlc.calibration import load_model_card
from pvlc.device import K_B, Q_E
from pvlc.link import BerReport, LinkConfig, run_link
from pvlc.seeding import payload_bits


SWEEP_KINDS = [*experiments.CSV_HEADERS, "eye"]
LINKED = ("simulate", "ber_vs_m", "ber_vs_dcl", "postdist", "eye")   # the commands that run the link


@pytest.fixture()
def samples_csv(tmp_path):
    lux = np.logspace(1, 3, 40)
    v_t = K_B * 300.0 / Q_E
    volts = 1.5 * v_t * np.log1p(20.0 * lux)
    lines = ["lux,volts"] + [f"{l},{v}" for l, v in zip(lux, volts)]
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def model_json(tmp_path, samples_csv):
    out = tmp_path / "model.json"
    code = main(["fit", str(samples_csv), "--cells", "1", "--temp", "300", "--out", str(out)])
    assert code == 0
    return out


class TestFit:
    def test_fit_writes_model_card(self, tmp_path, samples_csv, capsys):
        out = tmp_path / "model.json"
        code = main(["fit", str(samples_csv), "--out", str(out)])
        assert code == 0
        spec = load_model_card(out)
        assert spec.params.n == pytest.approx(1.5, rel=1e-5)
        assert spec.params.i0 == pytest.approx(1e-10, rel=1e-4)
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert (tmp_path / "run_manifest.json").is_file()

    def test_missing_file(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv")])
        assert code == 2

    @pytest.mark.parametrize("row", ["100,inf", "inf,0.5"])
    def test_non_finite_sample_rejected(self, tmp_path, samples_csv, capsys, row):
        path = tmp_path / "cal.csv"
        path.write_text(samples_csv.read_text() + row + "\n")
        out = tmp_path / "model.json"
        assert main(["fit", str(path), "--out", str(out)]) == 2
        assert "must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_csv(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("lux,volts\n" + "100,0.3\n" * 6)
        code = main(["fit", str(path)])
        assert code == 1
        assert "unidentifiable" in capsys.readouterr().err

    # an optimum on a bound of n or a (zero, constant, falling volts), and volts that overflow
    @pytest.mark.parametrize("volts,message", [
        ("0,0,0,0", "did not converge"), ("0.3,0.3,0.3,0.3", "did not converge"),
        ("0.4,0.3,0.2,0.1", "did not converge"), ("1e200,1e200,1e200,1e200", "volts up to 1e+200 V"),
    ], ids=["zero", "constant", "falling", "overflow"])
    def test_unfit_data_writes_no_card(self, tmp_path, capsys, volts, message):
        path = tmp_path / "cal.csv"
        path.write_text("lux,volts\n" + "".join(f"{l},{v}\n" for l, v in zip((1, 10, 100, 1000), volts.split(","))))
        out = tmp_path / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_noiseless_gives_zero_ber(self, model_json, capsys):
        code = main(["simulate", str(model_json), "--thermal-sigma", "0", "--noise-bandwidth", "0",
                     "--seed", "5", "--payload-symbols", "2000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ber"] == 0.0
        assert report["pass_fec"] is True

    def test_prints_its_inputs(self, model_json, tmp_path, capsys):
        """Beside the BerReport keys: the resolved payload length and LinkConfig, flag, file or default."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "lpf_cutoff": 5e5}))
        assert main(["simulate", str(model_json), "--config", str(cfg), "--mod-index", "0.4",
                     "--payload-symbols", "300"]) == 0
        printed = json.loads(capsys.readouterr().out)
        config = LinkConfig(seed=3, lpf_cutoff_hz=5e5, mod_index=0.4)
        report = run_link(config, load_model_card(model_json), payload_bits(600, 3))
        assert printed == dataclasses.asdict(report) | {"payload_symbols": 300, "link": dataclasses.asdict(config)}
        assert main(["simulate", str(model_json), "--seed", "3"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["payload_symbols"] == experiments.PAYLOAD_SYMBOLS
        assert printed["link"] == dataclasses.asdict(LinkConfig(seed=3))

    def test_same_seed_same_output(self, model_json, capsys):
        args = ["simulate", str(model_json), "--seed", "21", "--payload-symbols", "2000"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_invalid_mod_index(self, model_json, capsys):
        code = main(["simulate", str(model_json), "--mod-index", "1.5", "--seed", "1"])
        assert code == 2
        assert "mod_index" in capsys.readouterr().err

    def test_seed_required(self, model_json, capsys):
        code = main(["simulate", str(model_json)])
        assert code == 2
        assert "seed" in capsys.readouterr().err.lower()

    def test_seed_from_config_file(self, model_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "payload_symbols": 2000, "thermal_sigma": 0.0, "noise_bandwidth": 0.0}))
        code = main(["simulate", str(model_json), "--config", str(cfg)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ber"] == 0.0

    def test_flag_overrides_config(self, model_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "payload_symbols": 2000, "mod_index": 2.0}))
        code = main(["simulate", str(model_json), "--config", str(cfg), "--mod-index", "0.3",
                     "--thermal-sigma", "0", "--noise-bandwidth", "0"])
        assert code == 0


# A valid value other than the default for every LinkConfig field.
NON_DEFAULT_LINK = dict(
    samples_per_symbol=4, mod_index=0.25, tx_dc_lux=300.0, dcl_lux=50.0,
    ambient_lux=10.0, thermal_sigma_v=2e-3, noise_bandwidth_hz=1e9,
    lpf_cutoff_hz=2e5, training_symbols=128, seed=9,
)


class TestLinkFlags:
    """One table maps the link flags to LinkConfig; a field without a flag fails here."""

    def test_table_covers_every_field(self):
        fields = [field for _, field, _, _ in LINK_FLAGS]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(LinkConfig))

    def test_config_file_values_reach_their_fields(self, model_json, tmp_path, monkeypatch):
        defaults = LinkConfig()
        assert all(getattr(defaults, f) != v for f, v in NON_DEFAULT_LINK.items())
        file_values = {key: NON_DEFAULT_LINK[field] for key, field, _, _ in LINK_FLAGS}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_values))
        seen = []

        def fake_run_link(config, spec, payload):
            seen.append(config)
            return BerReport(payload.size, 0)

        monkeypatch.setattr(cli, "run_link", fake_run_link)
        assert main(["simulate", str(model_json), "--config", str(cfg), "--payload-symbols", "100"]) == 0
        assert seen == [LinkConfig(**NON_DEFAULT_LINK)]


class TestSweep:
    def test_response_sweep(self, model_json, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "response", str(model_json), "--out-dir", str(out),
                     "--lux-max", "100", "--lux-step", "10"])
        assert code == 0
        lines = (out / "response.csv").read_text().splitlines()
        assert lines[0] == "lux,cells,volts"
        zero_rows = [l for l in lines[1:] if l.startswith("0,")]
        assert zero_rows and all(float(l.split(",")[2]) == 0.0 for l in zero_rows)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["kind"] == "response"
        assert manifest["lux_max"] == 100.0

    def test_response_defaults_are_the_experiments_grid(self, model_json, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "response", str(model_json), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert (manifest["lux_max"], manifest["lux_step"]) == (2000.0, 10.0)
        expected = tmp_path / "expected.csv"
        rows = experiments.sweep_response(experiments.RESPONSE_LUX_GRID, experiments.RESPONSE_CELL_COUNTS,
                                          load_model_card(model_json))
        experiments.write_csv(expected, experiments.CSV_HEADERS["response"], rows)
        assert (out / "response.csv").read_bytes() == expected.read_bytes()
        with pytest.raises(SystemExit):
            main(["sweep", "response", "--help"])
        assert "(default 2000.0)" in capsys.readouterr().out

    def test_unknown_kind_exits_2_with_choices(self, model_json, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "nonsense", str(model_json)])
        assert exc.value.code == 2
        assert "response" in capsys.readouterr().err

    def test_ber_sweep_writes_csv(self, model_json, tmp_path):
        out = tmp_path / "ber"
        code = main(["sweep", "ber_vs_m", str(model_json), "--out-dir", str(out),
                     "--m-grid", "0.2,0.4", "--illuminances", "425", "--seed", "3",
                     "--payload-symbols", "2000", "--reps", "1"])
        assert code == 0
        lines = (out / "ber_vs_m.csv").read_text().splitlines()
        assert lines[0] == "tx_dc_lux,mod_index,ber,pass_fec"
        assert len(lines) == 3

    @pytest.mark.parametrize("kind,grid,rows", [
        ("ber_vs_dcl", ["--dcl-grid", "0,300", "--dcl-m-list", "0.2,0.4"], 4),
        ("postdist", ["--m-grid", "0.2,0.3,0.4"], 3),
    ])
    def test_ber_sweep_csv_independent_of_jobs(self, model_json, tmp_path, kind, grid, rows):
        csvs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            code = main(["sweep", kind, str(model_json), "--out-dir", str(out), *grid, "--seed", "5",
                         "--thermal-sigma", "1.5e-3", "--payload-symbols", "2000", "--reps", "2",
                         "--jobs", jobs])
            assert code == 0
            csvs.append((out / f"{kind}.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].count(b"\n") == 1 + rows

    def test_eye_sweep(self, model_json, tmp_path):
        out = tmp_path / "eye"
        code = main(["sweep", "eye", str(model_json), "--out-dir", str(out),
                     "--seed", "2", "--traces", "16", "--thermal-sigma", "0",
                     "--noise-bandwidth", "0"])
        assert code == 0
        lines = (out / "eye.csv").read_text().splitlines()
        assert len(lines) == 17

    def test_ber_sweep_needs_seed(self, model_json, tmp_path, capsys):
        code = main(["sweep", "ber_vs_m", str(model_json), "--out-dir", str(tmp_path)])
        assert code == 2


class TestBoundary:
    """Zero, negative or mistyped counts are rejected, never swapped for defaults."""

    @pytest.mark.parametrize("flag,value", [
        ("--cells", "0"), ("--temp", "0"), ("--eta", "0"), ("--cells", "-2"),
        ("--eta", "inf"), ("--temp", "inf"), ("--eta", "nan"),
    ])
    def test_fit_rejects(self, samples_csv, tmp_path, capsys, flag, value):
        code = main(["fit", str(samples_csv), "--out", str(tmp_path / "m.json"), flag, value])
        assert code == 2
        assert f"{flag} must be a positive" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_simulate_rejects_zero_payload(self, model_json, capsys):
        code = main(["simulate", str(model_json), "--seed", "1", "--payload-symbols", "0"])
        assert code == 2
        assert "--payload-symbols must be a positive" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,flag,value", [
        ("ber_vs_m", "--reps", "0"),
        ("ber_vs_m", "--payload-symbols", "0"),
        ("ber_vs_m", "--jobs", "0"),
        ("ber_vs_m", "--jobs", "-3"),
        ("eye", "--traces", "0"),
        ("postdist", "--gain-cap", "0"),
        ("postdist", "--gain-cap", "inf"),
        ("response", "--lux-max", "inf"),
        ("response", "--lux-step", "0"),
        ("ber_vs_m", "--m-grid", ","),
        ("ber_vs_m", "--m-grid", "0.3,"),
        ("ber_vs_m", "--illuminances", "425,,"),
        ("ber_vs_dcl", "--dcl-grid", ",0"),
        ("response", "--cells-list", "1, ,2"),
    ])
    def test_sweep_rejects(self, model_json, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "out"
        seed = ["--seed", "1"] if kind in LINKED else []
        code = main(["sweep", kind, str(model_json), "--out-dir", str(out), *seed, flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    def test_derivatives_without_positive_lux_exits_2(self, model_json, tmp_path, capsys):
        """--lux-max below the first step leaves the derivatives no lux point above 0."""
        out = tmp_path / "out"
        code = main(["sweep", "derivatives", str(model_json), "--out-dir", str(out),
                     "--lux-max", "5", "--lux-step", "10"])
        assert code == 2
        assert "lux_grid must not be empty" in capsys.readouterr().err
        assert not (out / "derivatives.csv").exists()
        assert not (out / "run_manifest.json").exists()

    def test_unconverged_model_card_rejected(self, model_json, capsys):
        card = json.loads(model_json.read_text())
        card["fit"]["converged"] = False
        model_json.write_text(json.dumps(card))
        code = main(["simulate", str(model_json), "--seed", "1", "--payload-symbols", "100"])
        assert code == 2
        assert "converged" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, 2.5, "3", True])
    def test_config_file_value_rejected(self, model_json, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": value}))
        code = main(["sweep", "ber_vs_m", str(model_json), "--config", str(cfg), "--seed", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--reps must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("values,flag", [
        ({"seed": 1, "mod_index": "0.3"}, "--mod-index"),
        ({"seed": 1, "dcl": [1]}, "--dcl"),
        ({"seed": 1, "lpf_cutoff": "fast"}, "--lpf-cutoff"),
        ({"seed": 1, "sps": 8.0}, "--sps"),
        ({"seed": 1, "training": True}, "--training"),
        ({"seed": "1"}, "--seed"),
        ({"seed": 1.5}, "--seed"),
    ])
    def test_config_file_link_value_rejected(self, model_json, tmp_path, capsys, values, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code = main(["simulate", str(model_json), "--config", str(cfg), "--payload-symbols", "500"])
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [
        (["sweep", "ber_vs_m"], "reps"), (["sweep", "ber_vs_m"], "m_grid"), (["sweep", "response"], "lux_step"),
        (["sweep", "eye"], "tx_dc"), (["sweep", "postdist"], "gain_cap"), (["simulate"], "payload_symbols"),
        (["simulate"], "seed"),
    ], ids=lambda x: x if isinstance(x, str) else x[-1])
    def test_config_file_null_rejected(self, model_json, tmp_path, capsys, command, key):
        """A null is an error naming the flag, never the table default."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        out = tmp_path / "out"
        argv = [*command, str(model_json), "--config", str(cfg)]
        code = main(argv + (["--out-dir", str(out)] if command[0] == "sweep" else []))
        assert code == 2
        assert f"{cli._flag(key)} must not be null in the config file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "eye"]], ids=["simulate", "eye"])
    def test_unallocatable_sps_rejected(self, model_json, tmp_path, capsys, command):
        """--sps passes every count rule here; the receiver names it before it allocates."""
        out = ["--out-dir", str(tmp_path)] if command[0] == "sweep" else []
        code = main([*command, str(model_json), "--seed", "1", "--sps", str(10**30), *out])
        assert code == 2
        assert f"samples_per_symbol {10**30} is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--dcl", "--mod-index", "--thermal-sigma"])
    def test_non_finite_link_flag_rejected(self, model_json, capsys, flag):
        code = main(["simulate", str(model_json), "--seed", "1", flag, "nan"])
        assert code == 2
        assert f"{flag} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", 0, -5.0, True, float("inf")])
    def test_config_file_lux_max_rejected(self, model_json, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lux_max": value}))
        out = tmp_path / "out"
        code = main(["sweep", "response", str(model_json), "--config", str(cfg), "--out-dir", str(out)])
        assert code == 2
        assert "--lux-max must be a positive number" in capsys.readouterr().err
        assert not (out / "response.csv").exists()

    @pytest.mark.parametrize("key", ["modindex", "model", "config", "reps", "no_shot", "bit_rate"])
    def test_unknown_config_key_rejected(self, model_json, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, key: 0.3}))
        code = main(["simulate", str(model_json), "--config", str(cfg), "--payload-symbols", "500"])
        assert code == 2
        assert f"unknown config file key {key!r}" in capsys.readouterr().err

    def test_no_shot_flag_rejected(self, model_json, capsys):
        """--noise-bandwidth 0 turns shot noise off; there is no separate switch."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(model_json), "--seed", "1", "--no-shot"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-shot" in capsys.readouterr().err

    def test_bit_rate_flag_rejected(self, model_json, capsys):
        """The bit rate is fixed at 1 Mbit/s; --lpf-cutoff is the one bandwidth knob."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(model_json), "--seed", "1", "--bit-rate", "2e6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bit-rate" in capsys.readouterr().err

    def test_hyphenated_config_keys_accepted(self, model_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "payload-symbols": 500, "thermal-sigma": 0.0, "noise-bandwidth": 0.0}))
        assert main(["simulate", str(model_json), "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["bits_total"] == 1000

    @pytest.mark.parametrize("kind,flag,value", [
        ("ber_vs_dcl", "--dcl-grid", "nan"),
        ("ber_vs_dcl", "--dcl-grid", "0,inf"),
        ("ber_vs_m", "--illuminances", "425,inf"),
    ])
    def test_non_finite_grid_rejected(self, model_json, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "out"
        code = main(["sweep", kind, str(model_json), "--out-dir", str(out), "--seed", "1",
                     "--payload-symbols", "500", "--reps", "1", flag, value])
        assert code == 2
        assert f"{flag} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [[1.5, 2.7], [True], [1, "2"], [2**1024]],
                             ids=["1.5,2.7", "true", "1,'2'", "2**1024"])
    def test_config_file_list_items_checked(self, model_json, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells_list": value}))
        out = tmp_path / "out"
        code = main(["sweep", "response", str(model_json), "--config", str(cfg), "--out-dir", str(out)])
        assert code == 2
        assert "--cells-list must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values,message", [
        ({"temp": 10**400}, "--temp must be a positive number"),
        ({"cells": 10**400}, "--cells must be a positive integer"),
        ({"out": 3}, "--out must be a string"),
    ], ids=["temp", "cells", "out"])
    def test_fit_config_file_value_rejected(self, samples_csv, tmp_path, capsys, values, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code = main(["fit", str(samples_csv), "--config", str(cfg)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_config_file_out_dir_must_be_string(self, model_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": 5}))
        code = main(["sweep", "response", str(model_json), "--config", str(cfg)])
        assert code == 2
        assert "--out-dir must be a string, got 5" in capsys.readouterr().err

    def test_model_card_integer_beyond_float_range(self, model_json, capsys):
        card = json.loads(model_json.read_text())
        card["n"] = 10**400
        model_json.write_text(json.dumps(card))
        code = main(["simulate", str(model_json), "--seed", "1", "--payload-symbols", "100"])
        assert code == 2
        assert "model card n must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "ber_vs_m"], ["sweep", "ber_vs_dcl"],
                                         ["sweep", "postdist"], ["sweep", "eye"]],
                             ids=["simulate", "ber_vs_m", "ber_vs_dcl", "postdist", "eye"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_negative_seed_rejected(self, model_json, tmp_path, capsys, command, given):
        # every command that runs the link rejects it the same way, before any output
        out = tmp_path / "out"
        argv = [*command, str(model_json)]
        if command[-1] != "eye":
            argv += ["--payload-symbols", "500"]
        if command[0] == "sweep":
            argv += ["--out-dir", str(out)]
        if given == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    NUMPY_MEMORY_ERROR = "Unable to allocate 14.2 PiB for an array with shape (2000000000000000,) and data type int64"

    @pytest.mark.parametrize("command,module", [(["simulate"], cli), (["sweep", "ber_vs_m"], experiments)],
                             ids=["simulate", "ber_vs_m"])
    @pytest.mark.parametrize("message,shown", [(NUMPY_MEMORY_ERROR, NUMPY_MEMORY_ERROR), ("", "MemoryError")],
                             ids=["numpy", "bare"])
    def test_memory_error_exits_2(self, model_json, tmp_path, capsys, monkeypatch, command, module,
                                  message, shown):
        def payload_bits(*_args):
            raise MemoryError(message)

        # the stand-in raises at once, so the test allocates nothing large
        monkeypatch.setattr(module, "payload_bits", payload_bits)
        argv = [*command, str(model_json), "--seed", "1", "--payload-symbols", "1000000000000000"]
        if command[0] == "sweep":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: the requested arrays do not fit in memory: {shown}\n"

    def test_manifest_written_atomically(self, model_json, tmp_path, monkeypatch):
        out = tmp_path / "out"
        argv = ["sweep", "response", str(model_json), "--out-dir", str(out), "--lux-max", "20"]
        assert main(argv) == 0
        before = (out / "run_manifest.json").read_bytes()

        def fail(*_args):
            raise OSError("disk full")

        # a write that fails before the swap leaves the old manifest whole
        monkeypatch.setattr(calibration.os, "replace", fail)
        assert main(argv + ["--lux-step", "5"]) == 2
        assert (out / "run_manifest.json").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["response.csv", "run_manifest.json"]


class TestManifest:
    """run_manifest.json holds the positionals, every resolved option and the LinkConfig."""

    def test_default_ber_vs_m_records_every_option(self, model_json, tmp_path, monkeypatch):
        calls = []

        def fake_sweep(*args):
            calls.append(args)
            return []

        monkeypatch.setattr(cli.experiments, "sweep_ber_vs_m", fake_sweep)
        out = tmp_path / "out"
        assert main(["sweep", "ber_vs_m", str(model_json), "--out-dir", str(out), "--seed", "1"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "sweep" and manifest["kind"] == "ber_vs_m"
        assert manifest["model"] == str(model_json)
        assert (manifest["reps"], manifest["jobs"], manifest["payload_symbols"]) == (5, 1, 250000)
        assert manifest["m_grid"] == [0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.45]
        assert manifest["illuminances"] == [200.0, 350.0, 500.0, 650.0]
        assert manifest["out_dir"] == str(out)
        assert manifest["link"] == dataclasses.asdict(LinkConfig(seed=1))
        assert manifest["link"]["thermal_sigma_v"] == 0.0015
        m_grid, illuminances, config, _, reps, symbols, jobs = calls[0]
        assert (list(m_grid), list(illuminances), config, reps, symbols, jobs) == (
            manifest["m_grid"], manifest["illuminances"], LinkConfig(seed=1), 5, 250000, 1)

    def test_manifest_records_given_values(self, model_json, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_grid": [0.2, 0.4], "tx_dc": 300}))
        assert main(["sweep", "postdist", str(model_json), "--config", str(cfg), "--out-dir", str(out),
                     "--seed", "3", "--payload-symbols", "500", "--reps", "1", "--gain-cap", "2"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["m_grid"] == [0.2, 0.4]
        assert (manifest["payload_symbols"], manifest["reps"], manifest["gain_cap"]) == (500, 1, 2.0)
        assert manifest["link"]["tx_dc_lux"] == 300.0 and manifest["link"]["seed"] == 3

    def test_postdist_records_its_defaults(self, model_json, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.experiments, "sweep_postdistortion", lambda *args: [])
        out = tmp_path / "out"
        assert main(["sweep", "postdist", str(model_json), "--out-dir", str(out), "--seed", "1"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["m_grid"] == [0.2, 0.25, 0.3, 0.35, 0.4]
        assert manifest["link"]["tx_dc_lux"] == 350.0

    def test_fit_records_every_option(self, samples_csv, tmp_path):
        out = tmp_path / "model.json"
        assert main(["fit", str(samples_csv), "--out", str(out), "--temp", "300"]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["samples"] == str(samples_csv)
        assert {k: manifest[k] for k in ("cells", "temp", "eta", "out")} == {
            "cells": 1, "temp": 300.0, "eta": 2e-9, "out": str(out)}
        assert "link" not in manifest and manifest["iterations"] >= 1

    def test_fit_eta_default_is_the_default_module(self, capsys):
        assert cli.DEFAULT_ETA is experiments.DEFAULT_MODULE.params.eta
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        assert "(default 2e-09)" in capsys.readouterr().out

    def test_help_shows_table_defaults(self, capsys):
        for kind in ("ber_vs_dcl", "response", "postdist"):
            with pytest.raises(SystemExit):
                main(["sweep", kind, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for phrase in ["(default 250000)", "(default 5)", "(default 1,2,4,8)", "(default 0,50,...,1500)",
                       "transmitter DC illuminance, lux (default 350)"]:
            assert phrase in text


LINK_KEYS = {key for key, *_ in LINK_FLAGS}
EVERY_KEY = {key for options in OPTIONS.values() for key, *_ in options} | LINK_KEYS


def command_words(name):
    return [name] if name in ("fit", "simulate") else ["sweep", name]


def row_keys(name):
    """The flag keys `name` reads: its OPTIONS row, plus the link flags for a link command."""
    keys = {key for key, *_ in OPTIONS[name]}
    return keys | LINK_KEYS if name in LINKED else keys


class TestKindRows:
    """Each command and sweep kind takes exactly its OPTIONS row (and the link flags if it links)."""

    @pytest.mark.parametrize("name", ["fit", "simulate", *SWEEP_KINDS])
    def test_flag_outside_row_rejected(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        foreign = sorted(EVERY_KEY - row_keys(name))
        assert len(foreign) >= 5
        for key in foreign:
            with pytest.raises(SystemExit) as exc:
                main([*command_words(name), str(tmp_path / "input"), cli._flag(key), "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {cli._flag(key)} 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["fit", "simulate", *SWEEP_KINDS])
    def test_config_key_outside_row_rejected(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        command = " ".join(command_words(name))
        for key in sorted(EVERY_KEY - row_keys(name)):
            cfg.write_text(json.dumps({key: 1}))
            assert main([*command_words(name), str(tmp_path / "input"), "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: unknown config file key {key!r} for 'pvlc {command}'\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv", [
        # fit's --out and --cells are prefixes of --out-dir and --cells-list
        ["sweep", "response", "model.json", "--out", "o", "--cells", "2", "--lux-max", "20"],
        ["simulate", "model.json", "--seed", "1", "--payload", "10"],
        ["sweep", "eye", "model.json", "--seed", "1", "--trace", "8"],
    ])
    def test_flag_prefix_rejected(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["response", "derivatives"])
    def test_link_flags_on_curve_sweep_rejected(self, model_json, tmp_path, capsys, monkeypatch, kind):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", kind, str(model_json), "--seed", "-1", "--tx-dc", "-5", "--lux-max", "20"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed -1 --tx-dc -5" in capsys.readouterr().err
        assert not any(work.iterdir())

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_manifest_holds_only_the_row(self, model_json, tmp_path, monkeypatch, kind):
        for function in ("sweep_response", "sweep_derivatives", "sweep_ber_vs_m", "sweep_ber_vs_dcl",
                         "sweep_postdistortion"):
            monkeypatch.setattr(cli.experiments, function, lambda *args: [])
        out = tmp_path / "out"
        seed = ["--seed", "1"] if kind in LINKED else []
        assert main(["sweep", kind, str(model_json), "--out-dir", str(out), *seed]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        expected = {"command", "kind", "model", "version"} | {key for key, *_ in OPTIONS[kind]}
        assert set(manifest) == expected | ({"link"} if kind in LINKED else set())
        for key, option_kind, default, _ in OPTIONS[kind]:
            if key != "out_dir":
                assert manifest[key] == (list(default) if isinstance(option_kind, list) else default)


class TestEntryPoint:
    def test_installed_script(self, model_json):
        # the subprocess imports the pvlc this test imported, installed or not
        src = str(Path(pvlc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pvlc.cli", "simulate", str(model_json),
             "--seed", "4", "--payload-symbols", "1000", "--thermal-sigma", "0", "--noise-bandwidth", "0"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ber"] == 0.0
