"""pvlc benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a pvlc checkout:

    python3 perfbench/run.py --workload ber_vs_m --seed 1 --seconds 45 --trace 0

Workloads: ber_vs_m, postdist_lpf (see perfbench/README.md).
With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics of a separate traced run. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Everything the run writes lands in .bench_out/ under the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ber_vs_m", "postdist_lpf")
SETUP_SPAWNS = 7          # fresh interpreters per untraced run; setup_s is their median
DEADLINE_S = 170.0        # the whole run, set-up spawns included

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "seeding.payload_ms": "ms",
    "link.run_link_ms_p50": "ms", "link.run_link_ms_p90": "ms",
    "link.encode_ms": "ms", "link.tx_ms": "ms", "link.receive_ms": "ms",
    "link.ac_couple_ms": "ms", "link.detect_ms": "ms",
    "link.samples": "count", "link.bit_errors": "count",
    "device.module_voltage_ms": "ms", "device.inverse_voltage_ms": "ms",
    "compensation.post_distort_ms": "ms",
    "experiments.cells": "count", "experiments.pool_overhead_s": "s",
    "experiments.worker_util": "ratio", "experiments.write_csv_ms": "ms",
    "experiments.csv_bytes": "bytes",
    "calibration.fit_ms_p50": "ms", "calibration.fit_iterations": "count",
    "calibration.card_io_ms": "ms",
    "cli.import_s": "s", "cli.import_scipy_signal_s": "s",
    "cli.fit_ms": "ms", "cli.simulate_ms": "ms", "cli.sweep_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(root, args, workdir, out, setup_only, deadline):
    """Start workload.py in a fresh interpreter and wait for it.

    PERFBENCH_T0 carries the monotonic clock at spawn, which starts setup_s.
    The child gets its own process group so that, on timeout, its pool
    workers are killed with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + str(HERE)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.Popen(cmd, env=env, cwd=root, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload}: workload process exceeded the deadline") from None
    finally:
        try:        # pool workers left behind by a crash go with the group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: workload process exited {proc.returncode}\n{stderr}")
    return json.loads(Path(out).read_text(encoding="utf-8"))


def end_to_end(setups, result):
    untraced = [u for u in result["units"] if u["ok"] and not u["traced"]]
    seconds = [u["seconds"] for u in untraced]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(seconds),
        "ops_per_s": result["unit_ops"] / statistics.median(seconds),
        "op_ms_p50": result["op_ms_p50"],
        "op_ms_p90": result["op_ms_p90"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def describe(args, setups, result):
    """Human-readable notes on what each end-to-end figure was measured over."""
    units = sum(1 for u in result["units"] if u["ok"] and not u["traced"])
    ops = len(result["op_seconds"])
    symbols = 2_000 if args.size == "tiny" else 250_000
    unit = f"{units} family calls of {result['unit_ops']} BER cells"
    op = f"{ops} BER cells re-run alone ({symbols} payload symbols, {8 * (symbols + 256)} samples each)"
    return {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"median over {unit}",
        "ops_per_s": f"op = one BER cell; cells per call / median call, {unit}",
        "op_ms_p50": f"median of {op}",
        "op_ms_p90": f"90th percentile of {op}",
        "peak_rss_mb": "workload process + 2 x largest pool worker",
    }


def steal_seconds():
    """CPU time the hypervisor gave to others so far (/proc/stat), or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def source_facts(root):
    """The git commit when the checkout is a repository, and a digest of src/pvlc."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "pvlc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small cells, for the smoke test only")
    args = parser.parse_args(argv)

    start, steal_start = time.monotonic(), steal_seconds()
    deadline = start + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "pvlc" / "__init__.py").is_file():
        print(f"error: no pvlc source under {root / 'src'}; run from the root of a pvlc checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = Path(".bench_out", "work", f"{tag}-{os.getpid()}")    # relative to root, the cwd
    try:
        inputs.prepare_workdir(workdir, args.seed)
        # Untraced runs time set-up in SETUP_SPAWNS fresh interpreters, half
        # before and half after the workload process (itself one of them), so
        # the median spans the run rather than one moment of machine load.
        extra = 0 if args.trace else SETUP_SPAWNS - 1
        setups = [spawn(root, args, workdir, workdir / f"setup{i}.json", True, deadline)["setup_s"]
                  for i in range(extra // 2)]
        result = spawn(root, args, workdir, out_dir / f"{tag}.json", False, deadline)
        setups.append(result["setup_s"])
        setups += [spawn(root, args, workdir, workdir / f"setup{i}.json", True, deadline)["setup_s"]
                   for i in range(extra // 2, extra)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, units, notes = result["layers"], PER_LAYER, {}
    else:
        metrics, units, notes = end_to_end(setups, result), END_TO_END, describe(args, setups, result)
    attempted, failed = result["attempted"], result["failed"]
    result.update({
        "metrics": metrics,
        "setup_samples_s": setups,
        "provenance": {**result["provenance"], **source_facts(root), "seed": args.seed,
                       "workload": args.workload, "size": args.size, "seconds": args.seconds,
                       "ops_attempted": attempted, "wall_s_total": time.monotonic() - start,
                       "host_steal_s": None if steal_start is None else steal_seconds() - steal_start},
    })
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"pvlc benchmark: workload={args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':32s} {failed / attempted:14.6g} {'ratio':6s} {failed} of {attempted} ops failed")
    if args.trace:
        print(f"  self time per span name, from {result['spans']}:")
        for name, (count, total, own) in sorted(result["self_times"].items(), key=lambda kv: -kv[1][2]):
            print(f"    {name:30s} {count:6d} spans  total {total:9.3f} s  self {own:9.3f} s")
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    print("provenance " + json.dumps(result["provenance"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
