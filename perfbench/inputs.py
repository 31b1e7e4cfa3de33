"""Seeded inputs for the benchmark: the model card, calibration CSVs and CLI plans.

Everything here is pure Python and does not import pvlc, so the inputs are
made the same way whichever version of the program is measured, and the
calibration truth is computed independently of the code under test.
"""

import json
import math
import random
from pathlib import Path

K_B = 1.380649e-23
Q_E = 1.602176634e-19
DEFAULT_ETA = 2e-9          # A/lux, what `pvlc fit` assumes without --eta

# The committed default module (experiments.DEFAULT_MODULE) as a model card.
MODEL_CARD = {
    "cell_count": 1,
    "n": 1.5,
    "i0": 1e-10,
    "eta": 2e-9,
    "temperature": 300.0,
    "fit": {"rmse": 0.0, "converged": True},
}

CALIBRATION_SETS = 40
CALIBRATION_LUX_RANGE = (1.0, 2000.0)

# The census CLI session: 20 commands, shuffled per session, covering every
# CLI command: fits, card, CSV and manifest I/O, and process-pool start-up
# in the pooled ber_vs_dcl sweep.
SESSION_MIX = (("fit", 5), ("eye", 2), ("response", 6), ("derivatives", 2),
               ("simulate", 1), ("ber_vs_dcl", 4))
SIMULATE_SYMBOLS = 20_000
DCL_GRID = (0.0, 100.0)
DCL_M_LIST = (0.2, 0.3)
DCL_SYMBOLS = 2_000
TX_PRESETS = (350.0, 425.0, 500.0)
M_CHOICES = (0.2, 0.3, 0.4)


def sub_seed(seed, *tags):
    """A child seed that depends only on the base seed and the tags."""
    return random.Random(repr((seed,) + tags)).getrandbits(31)


def calibration_sets(seed, count=CALIBRATION_SETS):
    """Ground truth and samples for `count` synthetic calibration runs.

    Sets vary in point count, voltage noise, cell count and true (n, a).
    Each spans CALIBRATION_LUX_RANGE (over three decades), so every set is
    identifiable and the fit converges.
    """
    rng = random.Random(sub_seed(seed, "calibration"))
    sets = []
    lo, hi = (math.log(x) for x in CALIBRATION_LUX_RANGE)
    for _ in range(count):
        points = rng.randint(12, 160)
        noise_v = rng.choice((0.0, 1e-4, 3e-4, 1e-3))
        cells = rng.randint(1, 4)
        n = rng.uniform(1.1, 2.0)
        a = 10.0 ** rng.uniform(0.5, 2.0)
        v_t = K_B * 300.0 / Q_E
        rows = []
        for k in range(points):
            lux = math.exp(lo + (hi - lo) * k / (points - 1))
            volts = cells * n * v_t * math.log1p(a * lux) + rng.gauss(0.0, noise_v)
            rows.append((lux, max(volts, 0.0)))
        sets.append({"cells": cells, "n": n, "a": a, "noise_v": noise_v, "rows": rows})
    return sets


def write_calibration_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("lux,volts\n")
        for lux, volts in rows:
            handle.write(f"{lux!r},{volts!r}\n")


def session_plan(seed, session, workdir, truth):
    """The shuffled commands of one CLI session, each with what to check.

    `truth` is the table `prepare_workdir` returned. Returns a list of
    (kind, argv, expect) where `expect` holds the facts the output check
    needs (fit truth, expected row counts).
    """
    rng = random.Random(sub_seed(seed, "session", session))
    kinds = [kind for kind, weight in SESSION_MIX for _ in range(weight)]
    rng.shuffle(kinds)
    model = str(Path(workdir) / "model.json")
    plan = []
    for op, kind in enumerate(kinds):
        out = Path(workdir) / "ops" / str(op)
        op_seed = rng.getrandbits(31)
        if kind == "fit":
            index = (session * 5 + op) % CALIBRATION_SETS
            argv = ["fit", str(Path(workdir) / f"cal{index:02d}.csv"),
                    "--cells", str(truth[index]["cells"]), "--out", str(Path(workdir) / f"fit{op}.json")]
            expect = truth[index]
        elif kind == "simulate":
            argv = ["simulate", model, "--payload-symbols", str(SIMULATE_SYMBOLS),
                    "--seed", str(op_seed), "--tx-dc", repr(rng.choice(TX_PRESETS)),
                    "--mod-index", repr(rng.choice(M_CHOICES))]
            expect = {"bits_total": 2 * SIMULATE_SYMBOLS}
        elif kind == "ber_vs_dcl":
            argv = ["sweep", "ber_vs_dcl", model, "--out-dir", str(out), "--seed", str(op_seed),
                    "--jobs", "2", "--reps", "1", "--payload-symbols", str(DCL_SYMBOLS),
                    "--dcl-grid", ",".join(map(repr, DCL_GRID)),
                    "--dcl-m-list", ",".join(map(repr, DCL_M_LIST))]
            expect = {"csv": "ber_vs_dcl.csv", "rows": len(DCL_GRID) * len(DCL_M_LIST)}
        elif kind == "eye":
            argv = ["sweep", "eye", model, "--out-dir", str(out), "--seed", str(op_seed),
                    "--tx-dc", repr(rng.choice(TX_PRESETS))]
            expect = {"csv": "eye.csv", "rows": 64}
        else:   # response / derivatives on the default 0..2000 lux grid, 4 cell counts
            argv = ["sweep", kind, model, "--out-dir", str(out)]
            expect = {"csv": f"{kind}.csv", "rows": 4 * (201 if kind == "response" else 200)}
        plan.append((kind, argv, expect))
    return plan


def prepare_workdir(workdir, seed):
    """Write the model card and the seeded calibration CSVs; return the truth table."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "model.json").write_text(json.dumps(MODEL_CARD, indent=2) + "\n", encoding="utf-8")
    truth = []
    for index, cal in enumerate(calibration_sets(seed)):
        write_calibration_csv(workdir / f"cal{index:02d}.csv", cal["rows"])
        truth.append({k: cal[k] for k in ("cells", "n", "a", "noise_v")} | {"points": len(cal["rows"])})
    (workdir / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return truth
