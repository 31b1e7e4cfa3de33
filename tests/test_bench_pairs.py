"""`tools/bench_pairs.py`: its guard against too few pairs, and the pair rule of its summary.

The script runs outside this suite; here its benchmark runs and git
revisions are replaced by fakes, so no workload runs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LOWER = {"name": "wall_s", "unit": "s", "better": "lower"}
HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher"}
METRICS = {m["name"]: 1.0 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "revision", lambda checkout: f"rev-{Path(checkout).name}")
    return module


def pair(seed, parent, change):
    return {"seed": seed, "first": "parent", "parent": parent, "change": change}


class TestTooFewPairs:
    def argv(self, tmp_path, seeds):
        return ["--topic", "t", "--parent", str(tmp_path / "parent"), "--change", str(ROOT),
                "--workload", "ber_vs_m", "--seeds", seeds, "--out-dir", str(tmp_path)]

    def store(self, tmp_path, seeds, parent):
        revisions = {"parent": f"rev-{parent}", "change": f"rev-{ROOT.name}"}
        pairs = [pair(seed, METRICS, METRICS) for seed in seeds]
        data = {"topic": "t", "workloads": {"ber_vs_m": {"revisions": revisions, "pairs": pairs}}}
        (tmp_path / "BENCH_t.json").write_text(json.dumps(data))

    @pytest.mark.parametrize("stored,parent", [(None, None), ([5], "parent"), ([4], "other")],
                             ids=["no-file", "same-seed-stored", "other-revision-stored"])
    def test_one_pair_stops_before_any_run(self, bench_pairs, tmp_path, monkeypatch, capsys, stored, parent):
        def no_run(*args):
            raise AssertionError("a benchmark run started")

        monkeypatch.setattr(bench_pairs, "run_once", no_run)
        path = tmp_path / "BENCH_t.json"
        if stored is not None:
            self.store(tmp_path, stored, parent)
        before = path.read_bytes() if path.exists() else None
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(self.argv(tmp_path, "5"))
        assert exc.value.code == 2
        assert "would have 1 pair(s)" in capsys.readouterr().err
        assert (path.read_bytes() if path.exists() else None) == before

    def test_a_stored_pair_of_another_seed_counts(self, bench_pairs, tmp_path, monkeypatch):
        runs = []

        def fake_run(checkout, workload, seed, seconds):
            runs.append((checkout, seed))
            return METRICS

        monkeypatch.setattr(bench_pairs, "run_once", fake_run)
        self.store(tmp_path, [4], "parent")
        bench_pairs.main(self.argv(tmp_path, "5"))
        assert sorted(runs) == sorted([(str(tmp_path / "parent"), 5), (str(ROOT), 5)])
        stored = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["ber_vs_m"]
        assert stored["seeds"] == [4, 5]


class TestSummarise:
    def test_ties_count_for_neither_side(self, bench_pairs):
        pairs = [pair(1, {"wall_s": 1.0, "ops_per_s": 5.0}, {"wall_s": 1.0, "ops_per_s": 5.0}),
                 pair(2, {"wall_s": 2.0, "ops_per_s": 5.0}, {"wall_s": 1.0, "ops_per_s": 6.0}),
                 pair(3, {"wall_s": 1.0, "ops_per_s": 5.0}, {"wall_s": 3.0, "ops_per_s": 4.0})]
        summary = bench_pairs.summarise(pairs, [LOWER, HIGHER])
        assert (summary["wall_s"]["change_wins"], summary["ops_per_s"]["change_wins"]) == (1, 1)
        assert summary["wall_s"]["pairs"] == 3

    @pytest.mark.parametrize("shift,exceeds", [(-0.4, True), (0.4, True), (-0.2, False), (0.2, False)])
    def test_shift_is_compared_in_size_with_the_parent_iqr(self, bench_pairs, shift, exceeds):
        """The parent's quartiles of 1.0 .. 1.4 are 1.05 and 1.35: an IQR of 0.3, up to rounding."""
        parent = [1.0, 1.1, 1.2, 1.3, 1.4]
        pairs = [pair(k, {"wall_s": p}, {"wall_s": p + shift}) for k, p in enumerate(parent)]
        summary = bench_pairs.summarise(pairs, [LOWER])["wall_s"]
        assert summary["median_shift"] == pytest.approx(shift)
        assert summary["parent_iqr"] == pytest.approx(0.3)
        assert summary["shift_exceeds_parent_iqr"] is exceeds
