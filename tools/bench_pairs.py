"""Summarize paired tdpbench runs of two checkouts as one BENCH_<label>.json.

Each checkout holds the result files that ``tdpbench/run.py`` wrote under its
``.tdpbench_out/``.  Untraced runs whose (workload, seed) exist on both sides
are pairs; for each workload and end-to-end metric of ``BENCHMARK.json`` the
summary gives each side's values, median and quartiles, and the number of
pairs the change won.  Traced runs are copied as they are, per side.

    python3 tools/bench_pairs.py --parent ../parent --change . --label pr16 \\
        --seconds 20 > BENCH_pr16.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _runs(checkout: Path, trace: int) -> dict:
    out = {}
    for path in sorted((checkout / ".tdpbench_out").glob(f"*-seed*-trace{trace}.json")):
        workload, seed = path.name[:-len(f"-trace{trace}.json")].rsplit("-seed", 1)
        out[workload, int(seed)] = json.loads(path.read_text())
    return out


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(parent: Path, change: Path, benchmark: dict) -> dict:
    before, after = _runs(parent, 0), _runs(change, 0)
    workloads = {}
    for name in sorted({w for w, _ in before}):
        seeds = sorted(s for w, s in before if w == name and (w, s) in after)
        if len(seeds) < 2:
            continue
        sides = {"parent": [before[name, s] for s in seeds],
                 "change": [after[name, s] for s in seeds]}
        metrics = {}
        for spec in benchmark["end_to_end"]:
            key, higher = spec["name"], spec["better"] == "higher"
            vals = {side: [r["metrics"][key]["value"] for r in runs]
                    for side, runs in sides.items()}
            won = sum((c > p) if higher else (c < p)
                      for p, c in zip(vals["parent"], vals["change"]))
            metrics[key] = {"unit": spec["unit"], "better": spec["better"],
                            "bound": spec["bound"], "change_won_pairs": won,
                            **{side: _spread(v) for side, v in vals.items()}}
        workloads[name] = {
            "seeds": seeds,
            "correct": {side: all(r["correct"] for r in runs) for side, runs in sides.items()},
            "failed_of_attempted": {side: [sum(r["failed"] for r in runs),
                                           sum(r["attempted"] for r in runs)]
                                    for side, runs in sides.items()},
            "metrics": metrics,
        }
    traced = {}
    for side, checkout in (("parent", parent), ("change", change)):
        for (name, seed), run in _runs(checkout, 1).items():
            traced.setdefault(name, {}).setdefault(side, []).append(
                {"seed": seed, "metrics": run["metrics"]})
    return {"workloads": workloads, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="the --seconds every run was given")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    summary = {"label": args.label, "run_seconds": args.seconds,
               **summarize(args.parent, args.change, benchmark)}
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
