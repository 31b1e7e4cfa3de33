"""Run the benchmark over several seeds and summarise the spread of each metric.

From the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --workloads ber_vs_m,postdist_lpf
    python3 perfbench/baseline.py --seeds 1-10 --traced 1 --write perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
next to the metric's bound in BENCHMARK.json; a spread above a third of the
bound is flagged. With --traced N it adds N traced runs per workload and
reports the median of each per-layer metric. --write stores everything,
with the provenance of the runs, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    provenance = next((json.loads(line[len("provenance "):]) for line in lines
                       if line.startswith("provenance ")), {})
    return json.loads(lines[-1]), provenance


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--write", help="write the summary to this JSON file")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in workloads:
        runs, provenance, started = [], {}, time.monotonic()
        for seed in seed_range(args.seeds):
            result, provenance = run_once(workload, seed, bench["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
            runs.append(result)
        entry = {"seeds": args.seeds, "attempted": [r["attempted"] for r in runs],
                 "seconds_per_run": (time.monotonic() - started) / len(runs),
                 "provenance": provenance, "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {entry['seconds_per_run']:.1f} s each")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bound / 3 else "  <-- spread above bound/3"
            steady &= not flag
            print(f"  {name:12s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}"
                  f"  spread {stats['spread']:.4f}  bound {bound}{flag}")
        if args.traced:
            traced = [run_once(workload, seed, bench["run_seconds"], 1)[0]
                      for seed in seed_range(args.seeds)[: args.traced]]
            if any(r["failed"] for r in traced):
                raise RuntimeError(f"{workload}: a traced run has failed ops")
            entry["per_layer"] = {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                                  for name in traced[0]["metrics"]}
            for name, value in entry["per_layer"].items():
                print(f"  {name:32s} {value:14.6g}")
        summary["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
