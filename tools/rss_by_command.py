"""Print which command of a ``cli_release``-shaped session sets the peak memory.

The session is tdpbench's ``cli_release`` one (simulate, two fit-naive
reads, privatize, dissimilarity and its study, coverage-grid, clt-limits,
verify-dp), built from ``--seed`` and run in this process through
``cli.main`` for ``--rounds`` rounds after one warm-up round.  After each
command it prints the process's ``ru_maxrss`` high-water mark and its
resident size, both in MB, and whether the command raised the high-water
mark.  The tracer of tdpbench times layers but cannot see memory; this
shows which command sets ``peak_rss_mb``.

    python3 tools/rss_by_command.py --seed 1 --rounds 5

Resident size is read from ``/proc/self/statm`` and printed as ``-`` where
that file does not exist.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb() -> float | None:
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tdpbench")]
    import workloads
    from transparent_dp import cli

    print(f"{'round':>5} {'command':<19} {'maxrss_mb':>9} {'rss_mb':>7}  raised")
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.CliRelease(args.seed, workdir)
        wl.setup()
        print(f"{'setup':>5} {'':<19} {_maxrss_mb():9.2f}")
        for rnd in range(-1, args.rounds):
            for command in wl.session:
                before = _maxrss_mb()
                if cli.main(command) != 0:
                    raise RuntimeError(f"tdp {command[0]} exited nonzero")
                after, rss = _maxrss_mb(), _rss_mb()
                name = (command[0] + ("/conf" if "confidential" in command else "")
                        + ("/study" if "--replicates" in command else ""))
                print(f"{'warm' if rnd < 0 else rnd:>5} {name:<19} {after:9.2f} "
                      f"{'-' if rss is None else f'{rss:.2f}':>7}  "
                      f"{f'+{after - before:.2f}' if after > before else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
