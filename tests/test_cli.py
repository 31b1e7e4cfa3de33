import json
import subprocess
import sys

import numpy as np
import pytest

from pvlc import calibration
from pvlc.cli import main
from pvlc.calibration import load_model_card
from pvlc.device import K_B, Q_E


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

    def test_degenerate_csv(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("lux,volts\n" + "100,0.3\n" * 6)
        code = main(["fit", str(path)])
        assert code == 1
        assert "unidentifiable" in capsys.readouterr().err


class TestSimulate:
    def test_noiseless_gives_zero_ber(self, model_json, capsys):
        code = main(["simulate", str(model_json), "--thermal-sigma", "0", "--no-shot",
                     "--seed", "5", "--payload-symbols", "2000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ber"] == 0.0
        assert report["pass_fec"] is True

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
        cfg.write_text(json.dumps({"seed": 7, "payload_symbols": 2000, "thermal_sigma": 0.0, "no_shot": True}))
        code = main(["simulate", str(model_json), "--config", str(cfg)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ber"] == 0.0

    def test_flag_overrides_config(self, model_json, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "payload_symbols": 2000, "mod_index": 2.0}))
        code = main(["simulate", str(model_json), "--config", str(cfg), "--mod-index", "0.3",
                     "--thermal-sigma", "0", "--no-shot"])
        assert code == 0


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

    def test_eye_sweep(self, model_json, tmp_path):
        out = tmp_path / "eye"
        code = main(["sweep", "eye", str(model_json), "--out-dir", str(out),
                     "--seed", "2", "--traces", "16", "--thermal-sigma", "0", "--no-shot"])
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
        ("response", "--lux-step", "0"),
        ("ber_vs_m", "--m-grid", ","),
    ])
    def test_sweep_rejects(self, model_json, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "out"
        code = main(["sweep", kind, str(model_json), "--out-dir", str(out), "--seed", "1", flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("value", [0, 2.5, "3", True])
    def test_config_file_value_rejected(self, model_json, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": value}))
        code = main(["sweep", "ber_vs_m", str(model_json), "--config", str(cfg), "--seed", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--reps must be a positive integer" in capsys.readouterr().err

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


class TestEntryPoint:
    def test_installed_script(self, model_json):
        proc = subprocess.run(
            [sys.executable, "-m", "pvlc.cli", "simulate", str(model_json),
             "--seed", "4", "--payload-symbols", "1000", "--thermal-sigma", "0", "--no-shot"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ber"] == 0.0
