import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def write_run(checkout, workload, seed, trace, ops, rss, correct=True):
    out = checkout / ".tdpbench_out"
    out.mkdir(parents=True, exist_ok=True)
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_p50_ms": {"value": 1000.0 / ops, "unit": "ms"},
               "setup_s": {"value": 1.0, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {"correct": correct, "attempted": 10, "failed": 1, "metrics": metrics}))


def test_bench_pairs_summarizes_runs_present_on_both_sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for seed, (p, c) in enumerate([(1.0, 1.5), (2.0, 1.8), (3.0, 3.5), (4.0, 4.5)]):
        write_run(parent, "cli_release", seed, 0, p, 60.0)
        write_run(change, "cli_release", seed, 0, c, 61.0, correct=seed != 2)
    write_run(parent, "cli_release", 9, 0, 9.0, 60.0)  # no partner: not a pair
    write_run(change, "cli_release", 7, 1, 2.0, 61.0)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(parent),
         "--change", str(change), "--label", "t", "--seconds", "5"],
        capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout)
    w = summary["workloads"]["cli_release"]
    assert w["seeds"] == [0, 1, 2, 3]
    assert w["correct"] == {"parent": True, "change": False}
    assert w["failed_of_attempted"]["change"] == [4, 40]
    ops = w["metrics"]["ops_per_s"]
    assert ops["change_won_pairs"] == 3 and ops["better"] == "higher"
    assert ops["parent"]["values"] == [1.0, 2.0, 3.0, 4.0]
    assert (ops["parent"]["q1"], ops["parent"]["median"], ops["parent"]["q3"]) == (1.75, 2.5, 3.25)
    assert w["metrics"]["op_p50_ms"]["change_won_pairs"] == 3
    assert w["metrics"]["peak_rss_mb"]["change_won_pairs"] == 0
    assert summary["traced"] == {"cli_release": {"change": [
        {"seed": 7, "metrics": json.loads(
            (change / ".tdpbench_out" / "cli_release-seed7-trace1.json").read_text())["metrics"]}]}}
