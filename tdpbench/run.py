"""Benchmark of transparent-dp: MCEM fits, exact ABC posteriors, CLI sessions.

Usage, from the root of the repository:

    python3 tdpbench/run.py --workload mcem_fit --seed 1 --seconds 20 --trace 0

One process runs one workload.  It imports the package from ``src/``, sets
up (import, inputs and one warm-up operation), runs operations in whole
rounds for at least ``--seconds`` seconds of operation time, checks every
output, and prints one JSON object as its last line of standard output.
With ``--trace 0`` that object holds the end-to-end metrics; with
``--trace 1`` the package's functions are wrapped at their layer
boundaries and it holds the per-layer metrics instead.  Results and spans
are also written under ``.tdpbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".tdpbench_out"
# Set-up is repeated and its median reported, so one slow repeat does not
# move setup_s.
SETUP_REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mcem_fit", "abc_posterior", "cli_release"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "transparent_dp" / "__init__.py").is_file():
        print(f"tdpbench: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import workloads  # imports transparent_dp and numpy
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            wl.warm_up()
            setups.append(time.perf_counter() - t)

        times, errors = [], []
        while not times or sum(times) < args.seconds or len(times) % wl.round:
            i = len(times)
            if tracer:
                tracer.op = i
            t = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            times.append(time.perf_counter() - t)
            if tracer:
                tracer.op = -1
            if isinstance(out, Exception):
                errors.append(f"operation {i}: {type(out).__name__}: {out}")
            else:
                wl.record(out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            problems, failed, layer = wl.check()
        except Exception:  # a check that cannot run marks the run incorrect
            problems, failed, layer = [traceback.format_exc()], 0, workloads.NO_FITS

    op_p50_ms = 1000.0 * statistics.median(times)
    if tracer:
        values = spans.layer_metrics(tracer, len(times), wl.round)
        values.update(layer)
        values["traced.op_p50_ms"] = op_p50_ms
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        values = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": op_p50_ms,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not problems,
        "attempted": len(times),
        "failed": failed + len(errors),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for line in problems + errors:
        print(f"tdpbench: {line}", file=sys.stderr)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "problems": problems, "errors": errors, "setup_repeats_s": setups,
         "import_s": import_s, "op_times_s": times}, indent=1))
    if tracer:
        tracer.dump(OUT / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
