"""Run alternating parent/change pairs of one benchmark workload and write BENCH_<topic>.json.

From the root of a checkout of the change, with the parent commit checked out
in another directory:

    python3 tools/bench_pairs.py --topic postdist_stats --parent ../parent \\
        --workload postdist_lpf --seeds 201-206

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`,
T being the run_seconds of BENCHMARK.json, in the parent checkout and in the
change checkout (default: this one), one after the other, with the same seed.
Which side runs first alternates from pair to pair, so a drift of a shared
host falls on both sides alike.  Every run must be `correct` with no failed
ops, or the script stops.

`BENCH_<topic>.json` gets one entry per workload: the seeds, both sides'
metrics of every pair, and for each end-to-end metric of BENCHMARK.json the
median and quartiles of each side (`summarise` of perfbench/baseline.py),
the parent's interquartile range, the number of pairs the change won by
the metric's `better` direction, the median shift (the change's median minus
the parent's) and whether that shift is larger in size than the parent's
interquartile range.  A gain is shown when the change wins nearly every pair
and its median moved the `better` way by more than that range.  The file
also records the machine: nproc and the Python, numpy and scipy versions.  A call for another workload adds
it to the same file.  A call for a workload already there, on the same two
revisions, adds its pairs to the stored ones (a seed run again replaces its
pair).  A call that would leave a workload with fewer than two pairs stops
before its first run.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from baseline import seed_range, summarise as quartiles  # noqa: E402


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: {result['failed']} failed ops")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def revision(checkout):
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or None


def summarise(pairs, end_to_end):
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        before, after = quartiles(parent), quartiles(change)
        iqr, shift = before["q3"] - before["q1"], after["median"] - before["median"]
        summary[name] = {"unit": metric["unit"], "better": metric["better"], "parent": before,
                         "change": after, "parent_iqr": iqr, "change_wins": wins, "pairs": len(pairs),
                         "median_shift": shift, "shift_exceeds_parent_iqr": abs(shift) > iqr}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--topic", required=True, help="the file is BENCH_<topic>.json")
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=".", help="checkout of the change (default: .)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, one pair per seed, e.g. 201-206")
    parser.add_argument("--out-dir", default=".", help="directory of the BENCH file (default: .)")
    args = parser.parse_args(argv)

    bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    seeds = seed_range(args.seeds)
    path = Path(args.out_dir) / f"BENCH_{args.topic}.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"topic": args.topic, "workloads": {}}
    revisions = {side: revision(checkout) for side, checkout in checkouts.items()}
    stored = data["workloads"].get(args.workload)
    same = stored is not None and stored["revisions"] == revisions
    kept = [pair for pair in stored["pairs"] if pair["seed"] not in seeds] if same else []
    if len(kept) + len(seeds) < 2:   # summarise takes quartiles, so this is checked before any run
        parser.error(f"{args.workload} would have {len(kept) + len(seeds)} pair(s) in {path} on these revisions, "
                     "and its quartiles need at least 2: give more seeds")
    pairs = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{m['name']} {pair['parent'][m['name']]:.6g}/{pair['change'][m['name']]:.6g}" for m in bench["end_to_end"]))

    pairs = kept + pairs
    data["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}
    data["workloads"][args.workload] = {
        "command": f"perfbench/run.py --workload {args.workload} --seed <seed> --seconds {seconds:g} --trace 0",
        "revisions": revisions,
        "seeds": [pair["seed"] for pair in pairs],
        "end_to_end": summarise(pairs, bench["end_to_end"]),
        "pairs": pairs,
    }
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
