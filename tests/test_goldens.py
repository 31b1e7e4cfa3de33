"""Byte-identical regeneration of the committed outputs.

A speed-up must leave BER counts and CSV bytes unchanged: every demo,
re-run in a fresh directory, writes exactly the files committed under
out/, and the CLI eye export equals an eye built from the public
samplewise pipeline.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pvlc
from pvlc.calibration import load_model_card
from pvlc.cli import main
from pvlc.experiments import export_eye, write_eye_csv
from pvlc.link import LEVELS, LinkConfig, ac_couple, channel, encode_pam4, receive, training_sequence, tx_waveform
from pvlc.seeding import payload_bits

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "out"

DEMO_OUTPUTS = [
    ("01_response_curves.py", ["response.csv", "derivatives.csv"]),
    ("02_calibration_fit.py", ["model.json"]),
    ("03_pam4_link.py", ["eye_250lux.csv", "eye_1250lux.csv"]),
    ("04_bias_lighting_sweep.py", ["ber_vs_dcl.csv"]),
    ("05_post_distortion.py", ["postdist.csv"]),
]


@pytest.mark.parametrize("demo,outputs", DEMO_OUTPUTS, ids=[d for d, _ in DEMO_OUTPUTS])
def test_demo_regenerates_golden(demo, outputs, tmp_path):
    src = str(Path(pvlc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), name


EYE_CASES = [
    ([], {}),
    (["--lpf-cutoff", "2e5", "--dcl", "150", "--sps", "6"],
     {"lpf_cutoff_hz": 2e5, "dcl_lux": 150.0, "samples_per_symbol": 6}),
]


@pytest.mark.parametrize("flags,overrides", EYE_CASES)
def test_cli_eye_matches_samplewise_pipeline(flags, overrides, tmp_path):
    model = GOLDEN / "model.json"
    seed, traces = 11, 16
    code = main(["sweep", "eye", str(model), "--out-dir", str(tmp_path), "--seed", str(seed),
                 "--traces", str(traces), "--tx-dc", "250", *flags])
    assert code == 0

    config = LinkConfig(seed=seed, tx_dc_lux=250.0, **overrides)
    train = training_sequence(config)
    payload = payload_bits(2 * max(2 * traces + 8, 256), seed)
    symbols = np.concatenate([LEVELS[train], encode_pam4(payload)])
    l_rx = channel(tx_waveform(symbols, config), config)
    v = ac_couple(receive(l_rx, load_model_card(model), config, np.random.default_rng(seed)))
    sps = config.samples_per_symbol
    write_eye_csv(export_eye(v[len(train) * sps:], sps, traces), tmp_path / "reference.csv")
    assert (tmp_path / "eye.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
