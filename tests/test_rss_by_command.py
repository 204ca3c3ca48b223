import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_rss_by_command_prints_every_command_of_the_session():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rss_by_command.py"), "--seed", "1",
         "--rounds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, setup, *rows = proc.stdout.splitlines()
    assert header.split() == ["round", "command", "maxrss_mb", "rss_mb", "raised"]
    assert setup.split()[0] == "setup"
    commands = ["simulate", "fit-naive", "fit-naive/conf", "privatize", "dissimilarity",
                "dissimilarity/study", "coverage-grid", "clt-limits", "verify-dp"]
    assert [row.split()[:2] for row in rows] == (
        [["warm", c] for c in commands] + [["0", c] for c in commands])
    # the high-water mark never falls, and a command that leaves it where
    # it was prints no rise
    marks = [float(setup.split()[1])] + [float(row.split()[2]) for row in rows]
    assert marks == sorted(marks)
    for before, after, row in zip(marks, marks[1:], rows):
        assert len(row.split()) == 5 or after == before, row
