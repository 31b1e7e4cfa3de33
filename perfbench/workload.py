"""One benchmark workload, run in a fresh interpreter by run.py.

The clock for set-up starts when run.py spawns this process (it passes the
monotonic time in PERFBENCH_T0), so `setup_s` covers interpreter start-up,
importing pvlc, loading the model card and building configs and payload.
With --setup-only the process stops there. Otherwise it runs the workload's
timed section for --seconds, checks the outputs, and with --trace 1 also
replays cells stage by stage and probes every layer. The result is written
as JSON to --out; run.py turns it into metrics.
"""

import os
import sys
import time

_t_import = time.perf_counter()
import numpy as np  # noqa: E402
import pvlc  # noqa: E402
from pvlc import calibration, cli, compensation, device, experiments, link, seeding  # noqa: E402
IMPORT_S = time.perf_counter() - _t_import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("ber_vs_m", "postdist_lpf")
JOBS = 2                      # pool workers: nproc of the 2-vCPU reference machine
DEFAULT_SEED = 1              # the seed whose rows are stored in reference/
LPF_CUTOFF_HZ = 5e5
GAIN_CAP = 4.0
FIT_N_TOL = 0.05              # relative; worst seen over 6000 seeded sets: 0.0094
FIT_LOG_A_TOL = 0.35          # |ln(a_hat / a)|; worst seen over 6000 sets: 0.065
SIZES = {   # payload symbols per cell, repetitions per grid point
    "full": {"symbols": experiments.PAYLOAD_SYMBOLS, "reps": experiments.REPETITIONS},
    "tiny": {"symbols": 2_000, "reps": 2},
}
# Grid points re-run alone per sweep run (60 and 80 cells at full size, so
# the op-latency percentiles rest on that many samples), and how many of
# those cells run after each family call, which spreads them over the run.
CHECK_POINTS = {"ber_vs_m": 12, "postdist_lpf": 8}
CHECK_CELLS_PER_CALL = {"ber_vs_m": 5, "postdist_lpf": 3}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_HEADERS = {   # the README's output schema, written out independently of pvlc
    "response": "lux,cells,volts",
    "derivatives": "lux,cells,dv,d2v",
    "ber_vs_dcl": "mod_index,dcl_lux,ber",
    "eye": ",".join(f"s{k}" for k in range(16)),
}


class Run:
    """State of one workload run: inputs, tracer, failures and timings."""

    def __init__(self, args):
        self.args = args
        self.size = SIZES[args.size]
        self.workdir = Path(args.workdir)
        self.tracer = Tracer()
        self.tracer.active = bool(args.trace)
        self.failures = []
        self.attempted = 0      # ops of the timed units plus cells re-run alone
        self.failed_ops = {}    # failed op -> how many ops it stands for
        self.solo = []          # (kind, seconds) of ops re-run alone
        self.replays = []       # dicts: kind, samples, errors
        self.dcl_outputs = []   # (argv, CSV rows) of checked ber_vs_dcl commands
        self.check_queue = []   # sweep cells still to re-run alone
        self.check_bers = {}    # (check point, m, kind) -> BERs of the cells re-run alone

    def fail(self, op, ops, message):
        """Record a failed op once, however many checks it fails."""
        self.failed_ops[op] = ops
        self.failures.append(message)

    @property
    def failed(self):
        return sum(self.failed_ops.values())

    # ---- set-up -------------------------------------------------------
    def setup(self):
        with self.tracer.span("setup", import_s=IMPORT_S):
            with self.tracer.span("calibration.card_io", op="load"):
                self.spec = calibration.load_model_card(self.workdir / "model.json")
            seed = self.args.seed
            if self.args.workload == "ber_vs_m":
                self.base = link.LinkConfig(seed=seed)
            elif self.args.workload == "postdist_lpf":
                self.base = link.LinkConfig(seed=seed, tx_dc_lux=experiments.POSTDIST_TX_LUX,
                                            lpf_cutoff_hz=LPF_CUTOFF_HZ)
            self.truth = json.loads((self.workdir / "truth.json").read_text(encoding="utf-8"))
        return time.monotonic() - float(os.environ["PERFBENCH_T0"])

    # ---- sweep workloads ----------------------------------------------
    def sweep_grid(self):
        """Family calls cycle over the illuminances (ber_vs_m) or modulation
        indices (postdist_lpf), one per call, so a long run covers the family."""
        if self.args.workload == "ber_vs_m":
            return experiments.BER_VS_M_ILLUMINANCES
        return experiments.POSTDIST_M_GRID

    def sweep_point(self, k):
        grid = self.sweep_grid()
        return grid[k % len(grid)]

    def sweep_cells(self):
        reps = self.size["reps"]
        if self.args.workload == "ber_vs_m":
            return len(experiments.M_GRID) * reps
        return 2 * reps

    def sweep_unit(self, k):
        point = self.sweep_point(k)
        size, tracer = self.size, self.tracer
        with tracer.span("experiments.sweep", kind=self.args.workload, cells=self.sweep_cells()):
            if self.args.workload == "ber_vs_m":
                rows = experiments.sweep_ber_vs_m(experiments.M_GRID, [point], self.base, self.spec,
                                                  size["reps"], size["symbols"], JOBS)
                header = experiments.CSV_HEADERS["ber_vs_m"]
            else:
                rows = experiments.sweep_postdistortion([point], self.base, self.spec, GAIN_CAP,
                                                        size["reps"], size["symbols"], JOBS)
                header = experiments.CSV_HEADERS["postdist"]
        path = self.workdir / f"unit{k}.csv"
        with tracer.span("experiments.write_csv") as attrs:
            experiments.write_csv(path, header, rows)
            attrs["bytes"] = path.stat().st_size
        return rows

    def plan_checks(self):
        """Cells to re-run alone: every repetition of CHECK_POINTS grid points,
        point j taken from family call j mod the grid length. They run between
        family calls, so their timings, the sweeps' op latencies, span the run."""
        rng = random.Random(inputs.sub_seed(self.args.seed, "check"))
        queue = []
        for j in range(CHECK_POINTS[self.args.workload]):
            if self.args.workload == "ber_vs_m":
                tx, m, kinds = self.sweep_point(j), rng.choice(experiments.M_GRID), [("plain", None)]
            else:
                tx, m = self.base.tx_dc_lux, self.sweep_point(j)
                operating = tx + self.base.dcl_lux + self.base.ambient_lux
                kinds = [("plain", None),
                         ("compensated", compensation.PostDistortionConfig(operating, GAIN_CAP))]
            for kind, postdist in kinds:
                queue.extend((j, tx, m, kind, postdist, rep) for rep in range(self.size["reps"]))
        return queue

    def run_check_cells(self, count):
        for _ in range(min(count, len(self.check_queue))):
            j, tx, m, kind, postdist, rep = self.check_queue.pop(0)
            config = experiments.ber_point_config(self.base, tx, m, self.base.dcl_lux, rep)
            # the primary cells are those that run every layer the workload uses
            primary = self.args.workload == "ber_vs_m" or postdist is not None
            report = self.solo_cell(kind, config, 2 * self.size["symbols"], self.args.seed, postdist, primary)
            self.check_bers.setdefault((j, m, kind), []).append(report.ber)

    def check_sweeps(self, units):
        """Repeated calls agree, the default seed matches the stored rows, and
        the points re-run alone reproduce their median BER bit for bit."""
        cells = self.sweep_cells()
        by_point, rows_of = {}, {}
        for k, _traced, _secs, rows in units:
            if rows is None:
                continue
            rows_of[k] = rows
            lines = (self.workdir / f"unit{k}.csv").read_text(encoding="utf-8").splitlines()[1:]
            first = by_point.setdefault(self.sweep_point(k), (k, lines))
            if lines != first[1]:
                self.fail(("call", k), cells, f"call {k} differs from call {first[0]} on the same grid point")
        reference = REFERENCE_DIR / f"{self.args.workload}_seed{DEFAULT_SEED}.csv"
        if self.args.seed == DEFAULT_SEED and self.args.size == "full":
            ref_lines = reference.read_text(encoding="utf-8").splitlines()[1:]
            for point, (k, lines) in by_point.items():
                # both families put the swept-over point in the first column
                if lines != [line for line in ref_lines if float(line.split(",")[0]) == point]:
                    self.fail(("call", k), cells, f"call {k} rows differ from {reference.name}")
        self.run_check_cells(len(self.check_queue))
        ber_vs_m = self.args.workload == "ber_vs_m"
        for (j, m, kind), bers in self.check_bers.items():
            call = j % len(self.sweep_grid())
            if call not in rows_of:     # that family call failed and was counted
                continue
            row = next(r for r in rows_of[call] if r[1 if ber_vs_m else 0] == m)
            want = row[2] if ber_vs_m or kind == "compensated" else row[1]
            got = float(np.median(bers))
            if got != want:
                self.fail(("call", call), cells, f"call {call} m={m} {kind}: re-run BER {got!r} != sweep {want!r}")

    # ---- single cells: re-run alone, and replayed stage by stage -------
    def solo_cell(self, kind, config, n_bits, payload_seed, postdist, primary):
        """What one sweep cell does (payload, then run_link), timed as one op.

        When tracing, the same cell is then replayed through the public stage
        functions, and the replay must reproduce run_link's bit-error count.
        """
        tracer = self.tracer
        post = None
        if postdist is not None:
            post = lambda v: compensation.post_distort(v, self.spec, postdist)  # noqa: E731
        start = time.perf_counter()
        with tracer.span("cell", kind=kind, primary=primary):
            with tracer.span("seeding.payload", primary=primary):
                payload = seeding.payload_bits(n_bits, payload_seed)
            with tracer.span("link.run_link", primary=primary):
                report = link.run_link(config, self.spec, payload, postprocess=post)
        self.solo.append((kind, time.perf_counter() - start))
        self.attempted += 1
        if tracer.active:
            errors, samples = self.replay(config, payload, postdist, primary)
            self.replays.append({"kind": kind, "primary": primary, "samples": samples,
                                 "errors": errors, "run_link_errors": report.bits_errored})
            if errors != report.bits_errored:
                self.fail(("cell", len(self.solo)), 1, f"trace rejected: replay of seed {config.seed} gives {errors} errors, "
                             f"run_link {report.bits_errored}")
        return report

    def replay(self, config, payload, postdist, primary):
        """run_link's stages in its order, each in a span; probes are marked."""
        span, spec = self.tracer.span, self.spec
        with span("cell.replay", primary=primary):
            with span("link.encode", primary=primary):
                train = link.training_sequence(config)
                symbols = np.concatenate([link.LEVELS[train], link.encode_pam4(payload)])
            with span("link.tx", primary=primary):
                l_rx = link.channel(link.tx_waveform(symbols, config), config)
            with span("device.module_voltage", primary=primary, probe=True):
                v_clean = device.module_voltage(l_rx, spec)
            with span("device.inverse_voltage", primary=primary, probe=True):
                device.inverse_voltage(v_clean, spec)
            with span("link.receive", primary=primary):
                v = link.receive(l_rx, spec, config, np.random.default_rng(config.seed))
            with span("link.ac_couple", primary=primary):
                v = link.ac_couple(v)
            operating = config.tx_dc_lux + config.dcl_lux + config.ambient_lux
            cfg = postdist or compensation.PostDistortionConfig(operating, GAIN_CAP)
            with span("compensation.post_distort", primary=primary, probe=postdist is None):
                compensated = compensation.post_distort(v, spec, cfg)
            if postdist is not None:
                v = compensated
            with span("link.detect", primary=primary):
                detected = link.detect_pam4(v, config, train)
                errors = int(np.count_nonzero(detected != payload))
        return errors, int(l_rx.size)

    # ---- CLI session (census of traced runs) ------------------------------
    def cli_session(self, k):
        """One closed-loop session: each command starts when the previous ends."""
        plan = inputs.session_plan(self.args.seed, k, self.workdir, self.truth)
        results = []
        for kind, argv, expect in plan:
            out, err = io.StringIO(), io.StringIO()
            group = "sweep" if argv[0] == "sweep" else argv[0]
            with self.tracer.span(f"cli.{group}", kind=kind):
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                except SystemExit as exc:       # argparse rejects the command line
                    code = exc.code
                except Exception as exc:        # the op fails; the loop goes on
                    code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                code = f"{code}: {err.getvalue().strip()[:200]}"
            results.append((kind, argv, expect, code, out.getvalue()))
        return results

    def check_session(self, k, results):
        for op, (kind, argv, expect, code, stdout) in enumerate(results):
            problem = self.check_command(kind, argv, expect, code, stdout)
            if problem:
                self.fail(("command", k, op), 1, f"session {k} {' '.join(argv)}: {problem}")
        shutil.rmtree(self.workdir / "ops", ignore_errors=True)

    def check_command(self, kind, argv, expect, code, stdout):
        if code != 0:
            return f"exit {code}"
        if kind == "fit":
            report = json.loads(stdout)
            a_hat = inputs.DEFAULT_ETA / report["i0"]
            if not report["converged"]:
                return "fit did not converge"
            if abs(report["n"] / expect["n"] - 1.0) > FIT_N_TOL:
                return f"n={report['n']} but truth {expect['n']}"
            if abs(math.log(a_hat / expect["a"])) > FIT_LOG_A_TOL:
                return f"a={a_hat} but truth {expect['a']}"
            return None
        if kind == "simulate":
            report = json.loads(stdout)
            if report.get("bits_total") != expect["bits_total"]:
                return f"bits_total {report.get('bits_total')} != {expect['bits_total']}"
            if not 0 <= report["bits_errored"] <= report["bits_total"]:
                return "bits_errored out of range"
            return None
        path = Path(argv[argv.index("--out-dir") + 1]) / expect["csv"]
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != CSV_HEADERS[kind]:
            return f"header {lines[0]!r}"
        if len(lines) - 1 != expect["rows"]:
            return f"{len(lines) - 1} rows, expected {expect['rows']}"
        if kind == "ber_vs_dcl":
            self.dcl_outputs.append((argv, lines[1:]))
        return None

    def check_cli_cells(self, results):
        """Re-run the session's simulate commands and one ber_vs_dcl sweep's
        cells alone, replaying them; each must reproduce the bit-error count
        or BER the command printed or wrote."""
        sims = [(argv, stdout) for kind, argv, _, code, stdout in results if kind == "simulate" and code == 0]
        rng = random.Random(inputs.sub_seed(self.args.seed, "check"))
        for argv, stdout in sims:
            config = link.LinkConfig(seed=int(flag(argv, "--seed")), tx_dc_lux=float(flag(argv, "--tx-dc")),
                                     mod_index=float(flag(argv, "--mod-index")))
            report = self.solo_cell("simulate", config, 2 * inputs.SIMULATE_SYMBOLS, config.seed, None, False)
            printed = json.loads(stdout)["bits_errored"]
            if report.bits_errored != printed:
                self.fail(("cell", len(self.solo)), 1,
                          f"simulate seed {config.seed}: re-run {report.bits_errored} != {printed}")
        if self.dcl_outputs:
            argv, rows = rng.choice(self.dcl_outputs)
            base = link.LinkConfig(seed=int(flag(argv, "--seed")))
            for row in rows:
                m, dcl, ber = map(float, row.split(","))
                cell = experiments.ber_point_config(base, base.tx_dc_lux, m, dcl, 0)
                report = self.solo_cell("dcl", cell, 2 * inputs.DCL_SYMBOLS, base.seed, None, False)
                if report.ber != ber:
                    self.fail(("cell", len(self.solo)), 1,
                              f"ber_vs_dcl seed {base.seed} m={m} dcl={dcl}: re-run {report.ber!r} != {ber!r}")

    # ---- the timed loop -------------------------------------------------
    def timed_loop(self, unit, after, minimum):
        """Run at least `minimum` units, and more until --seconds have passed;
        after(k, out) runs untimed after each. When tracing, units alternate
        untraced/traced so trace.overhead_ratio compares like with like."""
        units = []
        start = time.perf_counter()
        k = 0
        minimum = max(minimum, 2 if self.args.trace else 1)
        while k < minimum or time.perf_counter() - start < self.args.seconds:
            traced = bool(self.args.trace) and k % 2 == 1
            self.tracer.active, self.tracer.run_id = traced, k
            t0 = time.perf_counter()
            try:
                out = unit(k)
            except Exception as exc:    # a failed unit counts its ops as failed
                out = None
                self.fail(("call", k), self.sweep_cells(), f"unit {k}: {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - t0
            self.tracer.active, self.tracer.run_id = bool(self.args.trace), "check"
            self.attempted += self.sweep_cells()
            units.append((k, traced, seconds, out))
            after(k, out)
            k += 1
        return units


def flag(argv, name):
    return argv[argv.index(name) + 1]


def cli_targets():
    """(module, attribute, span name, on_return) for every layer call made by pvlc.cli."""
    def csv_bytes(args, kwargs, _result):
        return {"bytes": os.path.getsize(args[0])}

    def fit_iterations(_args, _kwargs, result):
        return {"iterations": result.iterations}

    def sweep_cells(kind, reps_index):
        return lambda args, kwargs, result: {"kind": kind, "cells": len(result) * args[reps_index]}

    return [
        (cli, "load_samples", "calibration.load_samples", None),
        (cli, "fit_response", "calibration.fit_response", fit_iterations),
        (cli, "save_model_card", "calibration.card_io", lambda *_: {"op": "save"}),
        (cli, "load_model_card", "calibration.card_io", lambda *_: {"op": "load"}),
        (cli, "payload_bits", "seeding.payload", None),
        (cli, "run_link", "link.run_link", None),
        (cli, "receive", "link.receive", None),
        (experiments, "sweep_response", "experiments.sweep", lambda *_: {"kind": "response"}),
        (experiments, "sweep_derivatives", "experiments.sweep", lambda *_: {"kind": "derivatives"}),
        (experiments, "sweep_ber_vs_dcl", "experiments.sweep", sweep_cells("ber_vs_dcl", 4)),
        (cli, "write_csv", "experiments.write_csv", csv_bytes),
        (experiments, "write_csv", "experiments.write_csv", csv_bytes),
    ]


def run_workload(run):
    """The timed section, then the output checks; returns unit records and op latencies."""
    run.check_queue = run.plan_checks()
    per_call = CHECK_CELLS_PER_CALL[run.args.workload]
    units = run.timed_loop(run.sweep_unit, lambda k, out: run.run_check_cells(per_call),
                           min(CHECK_POINTS[run.args.workload], len(run.sweep_grid())))
    rss = peak_rss_mb()
    run.check_sweeps(units)
    op_seconds = [secs for kind, secs in run.solo]
    return units, op_seconds, rss


def peak_rss_mb():
    """Peak RSS of this process plus JOBS times the largest pool worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + JOBS * workers) / 1024.0


def import_breakdown(repeats=3):
    """`python -X importtime -c "import pvlc.cli"`: total and scipy.signal seconds (medians)."""
    totals, signal = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pvlc.cli"],
                              capture_output=True, text=True, timeout=60, check=True)
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line.split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, name.strip(), int(cumulative) / 1e6))
        totals.append(next(s for d, n, s in entries if n == "pvlc.cli" and d == 0))
        sig = [(d, s) for d, n, s in entries if n == "scipy.signal" or n.startswith("scipy.signal.")]
        top = min(d for d, _ in sig)
        signal.append(sum(s for d, s in sig if d == top))
    return statistics.median(totals), statistics.median(signal)


def census(run):
    """Probe calibration and the CLI on this run's inputs, so every layer has a figure."""
    span = run.tracer.span
    for index, truth in enumerate(run.truth):
        samples = calibration.load_samples(run.workdir / f"cal{index:02d}.csv")
        with span("calibration.fit_response", census=True) as attrs:
            attrs["iterations"] = calibration.fit_response(samples, truth["cells"]).iterations
    card = run.workdir / "census_card.json"
    fit = calibration.FitResult(n_hat=1.5, a_hat=20.0, rmse=0.0, iterations=0, converged=True)
    for _ in range(10):
        with span("calibration.card_io", op="save"):
            calibration.save_model_card(run.spec, fit, card)
        with span("calibration.card_io", op="load"):
            calibration.load_model_card(card)
    # one traced CLI session gives the cli.* figures; its outputs are checked
    run.tracer.run_id = "census"
    with run.tracer.patched(cli_targets()):
        results = run.cli_session(0)
    run.attempted += len(results)
    run.check_session("census", results)
    run.check_cli_cells(results)
    run.tracer.run_id = "check"


def layer_metrics(run, units):
    """Per-layer figures from the spans of a traced run."""
    tr = run.tracer
    med_ms = lambda name, **m: 1000.0 * statistics.median(tr.durations(name, **m))  # noqa: E731
    traced = [secs for _, t, secs, _ in units if t]
    untraced = [secs for _, t, secs, _ in units if not t]
    solo = {}
    for kind, secs in run.solo:
        solo.setdefault(kind, []).append(secs)
    run_link = [1000.0 * s for s in tr.durations("link.run_link", primary=True)]
    primary = [r for r in run.replays if r["primary"]]
    sweep_spans = tr.durations("experiments.sweep", kind=run.args.workload)
    cells = run.sweep_cells()
    if run.args.workload == "ber_vs_m":
        cell_sum = cells * statistics.median(solo["plain"])
    else:
        cell_sum = cells / 2 * (statistics.median(solo["plain"]) + statistics.median(solo["compensated"]))
    sweep_wall = statistics.median(sweep_spans)
    # CSV output of the timed units only (their run ids are unit numbers)
    csv_ms, bytes_per_unit = [], {}
    for name, start, end, _, run_id, attrs in tr.spans:
        if name == "experiments.write_csv" and isinstance(run_id, int):
            csv_ms.append(1000.0 * (end - start))
            bytes_per_unit[run_id] = bytes_per_unit.get(run_id, 0) + attrs["bytes"]
    import_s, signal_s = import_breakdown()
    fit_census = [a["iterations"] for n, *_, a in tr.spans if n == "calibration.fit_response" and a.get("census")]
    return {
        "seeding.payload_ms": med_ms("seeding.payload", primary=True),
        "link.run_link_ms_p50": statistics.median(run_link),
        "link.run_link_ms_p90": quantile(run_link, 0.9),
        "link.encode_ms": med_ms("link.encode", primary=True),
        "link.tx_ms": med_ms("link.tx", primary=True),
        "link.receive_ms": med_ms("link.receive", primary=True),
        "link.ac_couple_ms": med_ms("link.ac_couple", primary=True),
        "link.detect_ms": med_ms("link.detect", primary=True),
        "link.samples": sum(r["samples"] for r in primary),
        "link.bit_errors": sum(r["errors"] for r in primary),
        "device.module_voltage_ms": med_ms("device.module_voltage", primary=True),
        "device.inverse_voltage_ms": med_ms("device.inverse_voltage", primary=True),
        "compensation.post_distort_ms": med_ms("compensation.post_distort", primary=True),
        "experiments.cells": cells,
        "experiments.pool_overhead_s": sweep_wall - cell_sum / JOBS,
        "experiments.worker_util": cell_sum / (JOBS * sweep_wall),
        "experiments.write_csv_ms": statistics.median(csv_ms),
        "experiments.csv_bytes": statistics.median(bytes_per_unit.values()),
        "calibration.fit_ms_p50": med_ms("calibration.fit_response"),
        "calibration.fit_iterations": sum(fit_census),
        "calibration.card_io_ms": med_ms("calibration.card_io"),
        "cli.import_s": import_s,
        "cli.import_scipy_signal_s": signal_s,
        "cli.fit_ms": med_ms("cli.fit"),
        "cli.simulate_ms": med_ms("cli.simulate"),
        "cli.sweep_ms": med_ms("cli.sweep"),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
    }


def quantile(values, q):
    """The q-quantile as statistics.quantiles gives it (exclusive method)."""
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(100 * q) - 1]


def provenance():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pvlc": pvlc.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
        "jobs": JOBS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    run = Run(args)
    setup_s = run.setup()
    result = {"setup_s": setup_s, "import_s": IMPORT_S}
    if not args.setup_only:
        units, op_seconds, rss = run_workload(run)
        result.update({
            "units": [{"k": k, "traced": t, "seconds": s, "ok": out is not None} for k, t, s, out in units],
            "unit_ops": run.sweep_cells(),
            "op_seconds": op_seconds,
            "op_ms_p50": 1000.0 * statistics.median(op_seconds),
            "op_ms_p90": 1000.0 * quantile(op_seconds, 0.9),
            "solo": run.solo,
            "peak_rss_mb": rss,
            "provenance": provenance(),
        })
        if args.trace:
            census(run)
            result["layers"] = layer_metrics(run, units)
            result["replays"] = run.replays
            result["self_times"] = run.tracer.self_times()
            spans_path = Path(args.out).with_suffix(".spans.jsonl")
            run.tracer.write(spans_path)
            result["spans"] = str(spans_path)
        result.update({"attempted": run.attempted, "failed": run.failed, "failures": run.failures[:50]})
    Path(args.out).write_text(json.dumps(result, default=str) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
