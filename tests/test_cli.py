"""Command-line surface: flags, exit codes, output formats, doc examples."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from transparent_dp import __version__, cli, simulate
from transparent_dp.asymptotics import coverage_grid, reference_design
from transparent_dp.cli import main
from transparent_dp.mcem import MCEMConfig, ellipse_study, run_mcem
from transparent_dp.mechanisms import PrivacyBudget
from transparent_dp.metrics import county_table_from_csv, privatized_dissimilarity_study
from transparent_dp.naive_fit import ols
from transparent_dp.rng import stream
from transparent_dp.simulate import (
    RegressionParams,
    dataset_from_dict,
    json_parts,
    load_envelope,
)

COMMON_FLAGS = ["--output", "--help"]

# One entry per subcommand; the help test checks this list both ways, so a
# flag added to the parser without a doc entry here fails loudly.
FLAGS = {
    "privatize": ["--values", "--family", "--epsilon", "--sensitivity", "--seed"],
    "simulate": ["--n", "--beta0", "--beta1", "--sigma", "--lam",
                 "--epsilon-x", "--epsilon-y", "--seed", "--format"],
    "fit-naive": ["--input", "--on"],
    "fit-mcem": ["--input", "--seed", "--k-samples", "--max-iter",
                 "--alpha", "--sigma", "--lam", "--trace"],
    "abc-posterior": ["--input", "--draws", "--seed", "--prior",
                      "--beta0-range", "--beta1-range", "--prior-means",
                      "--prior-sds", "--sigma", "--lam"],
    "clt-limits": ["--n", "--beta1", "--sigma-sq", "--sigma-u-max",
                   "--sigma-v", "--steps", "--alpha"],
    "coverage-grid": ["--n", "--beta1", "--sigma-sq", "--sigma-u-max",
                      "--sigma-v-max", "--steps", "--alpha", "--convention"],
    "ellipse-study": ["--epsilon-x", "--epsilon-y", "--n", "--replicates",
                      "--seed", "--beta0", "--beta1", "--sigma", "--lam",
                      "--k-samples", "--max-iter", "--alpha", "--methods"],
    "dissimilarity": ["--input", "--epsilon", "--replicates", "--seed"],
    "verify-dp": ["--family", "--epsilon", "--claimed-epsilon", "--sensitivity"],
}

DEMO_ARGS = ["simulate", "--n", "3", "--sigma", "2", "--lam", "5",
             "--epsilon-x", "0.5", "--epsilon-y", "0.5", "--seed", "61"]


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def strip_comments(text):
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


def body_json(text):
    return json.loads(strip_comments(text))


def csv_rows(text):
    lines = strip_comments(text).strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def is_repr(cell):
    """True if a CSV cell is a float written as Python's shortest repr."""
    return repr(float(cell)) == cell


def strict_json(text):
    """The JSON body of ``text``; NaN or Infinity in it raises ValueError."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(strip_comments(text), parse_constant=refuse)


def fit_fields(fit):
    """The report a fit prints, read from the library's FitResult."""
    return {"beta0": fit.beta0_hat, "beta1": fit.beta1_hat, "cov": fit.covariance.tolist(),
            "resid_var": fit.residual_variance, "method": fit.method, "n": fit.n}


@pytest.fixture()
def demo_env(tmp_path, capsys):
    path = tmp_path / "env.json"
    rc = main(DEMO_ARGS + ["--output", str(path)])
    assert rc == 0
    capsys.readouterr()
    return path


def help_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_every_flag(capsys, command):
    text = help_text(capsys, [command, "--help"])
    documented = set(FLAGS[command] + COMMON_FLAGS)
    mentioned = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    assert mentioned == documented


def test_top_level_help_lists_all_subcommands(capsys):
    text = help_text(capsys, ["--help"])
    for command in FLAGS:
        assert command in text


def test_version_flag(capsys):
    text = help_text(capsys, ["--version"])
    assert text.strip() == f"tdp {__version__}"


def test_no_command_prints_help_and_exits_2(capsys):
    rc, out, _ = run(capsys, [])
    assert rc == 2
    assert "usage" in out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "3", "--bogus", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["privatize", "--values", "1,2", "--epsilon", "1.0"],
    ["simulate", "--n", "3", "--epsilon-x", "1.0", "--epsilon-y", "1.0"],
    ["fit-mcem", "--input", "env.json"],
    ["abc-posterior", "--input", "env.json", "--draws", "5"],
    ["ellipse-study", "--epsilon-x", "1.0", "--epsilon-y", "1.0"],
])
def test_stochastic_commands_require_seed(capsys, argv):
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("usage error:")
    assert "--seed" in err


def test_header_echoes_sorted_params_without_output(capsys, tmp_path):
    out_path = tmp_path / "p.csv"
    rc, _, _ = run(capsys, ["privatize", "--values", "1,2", "--family",
                            "laplace", "--epsilon", "0.5", "--seed", "9",
                            "--output", str(out_path)])
    assert rc == 0
    header = out_path.read_text().splitlines()[0]
    assert header.startswith(f"# transparent-dp v{__version__} command=privatize ")
    pairs = header.split(" ")[3:]
    keys = [p.split("=")[0] for p in pairs]
    assert keys == sorted(keys)
    assert "output" not in keys
    assert "epsilon=0.5" in pairs
    # A float flag given as an int is echoed as the float it was parsed to.
    rc, out, _ = run(capsys, ["simulate", "--n", "3", "--epsilon-x", "1",
                              "--epsilon-y", "1", "--seed", "5"])
    assert rc == 0
    assert "epsilon_x=1.0" in out.splitlines()[0].split()


def test_privatize_laplace_adds_float_noise(capsys):
    rc, out, _ = run(capsys, ["privatize", "--values", "3,1,4", "--family",
                              "laplace", "--epsilon", "1.0", "--seed", "5"])
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["i", "privatized"]
    released = [float(r[1]) for r in rows]
    assert len(released) == 3
    assert all(val != round(val) for val in released)


def test_privatize_double_geometric_stays_integer(capsys):
    rc, out, _ = run(capsys, ["privatize", "--values", "3,1,4,1,5", "--family",
                              "double-geometric", "--epsilon", "0.5",
                              "--seed", "3"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert [r[1] for r in rows] == ["2", "1", "7", "3", "5"]
    assert all(int(r[1]) == float(r[1]) for r in rows)


@pytest.mark.parametrize("family, epsilon, bound", [
    ("double-geometric", "1e-300", "DG_MIN_RATE=1e-12"),
    ("laplace", "1e-308", "LAPLACE_MAX_SCALE="),
])
def test_privatize_refuses_noise_it_cannot_represent(capsys, family, epsilon, bound):
    # These budgets once released the true counts (a saturated geometric
    # sampler) or -inf (an overflowing Laplace scale).
    rc, out, err = run(capsys, ["privatize", "--values", "3,1,4,1,5", "--family",
                                family, "--epsilon", epsilon, "--seed", "3"])
    assert rc == 1 and out == ""
    assert err.startswith("ValueError:") and bound in err


@pytest.mark.parametrize("family, epsilon, size", [
    ("double-geometric", "1e-12", 1e9), ("laplace", "4e-306", 1e300),
])
def test_privatize_just_inside_the_bound_releases_finite_noise(capsys, family, epsilon,
                                                             size):
    rc, out, _ = run(capsys, ["privatize", "--values", "3,1,4,1,5", "--family",
                              family, "--epsilon", epsilon, "--seed", "3"])
    assert rc == 0
    released = np.array([float(r[1]) for r in csv_rows(out)[1]])
    assert np.isfinite(released).all() and (np.abs(released) > size).all()


@pytest.mark.parametrize("values, family, epsilon, message", [
    ("1.7976931348623157e308,1.7976931348623157e308", "laplace", "4e-306",
     "ValueError: Laplace release overflows to inf"),
    ("1e19,5", "double-geometric", "1", "ValueError: double geometric values must be "
     "at most DG_MAX_VALUE=9007199254740992"),
])
def test_privatize_refuses_a_release_past_the_value_range(capsys, values, family, epsilon,
                                                          message):
    # These once printed inf and -9223372036854775808 with exit 0.
    rc, out, err = run(capsys, ["privatize", "--values", values, "--family", family,
                                "--epsilon", epsilon, "--seed", "1"])
    assert rc == 1 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("values, family", [
    ("1.7976931348623157e308,-1.7976931348623157e308", "laplace"),
    ("9007199254740992,-9007199254740992", "double-geometric"),
])
def test_privatize_at_the_value_range_releases(capsys, values, family):
    rc, out, _ = run(capsys, ["privatize", "--values", values, "--family", family,
                              "--epsilon", "1", "--seed", "1"])
    assert rc == 0
    released = [float(r[1]) for r in csv_rows(out)[1]]
    top = float(values.split(",")[0])
    assert released[0] > 0.99 * top and released[1] < -0.99 * top


def test_privatize_randomized_response_keeps_binary(capsys):
    rc, out, _ = run(capsys, ["privatize", "--values", "0,1,1,0", "--family",
                              "randomized-response", "--epsilon", "2.0",
                              "--seed", "8"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert set(r[1] for r in rows) <= {"0", "1"}


def test_privatize_randomized_response_rejects_nonbinary(capsys):
    rc, _, err = run(capsys, ["privatize", "--values", "3,1,4", "--family",
                              "randomized-response", "--epsilon", "1.0",
                              "--seed", "2"])
    assert rc == 1
    assert err.startswith("ValueError:")


def test_privatize_randomized_response_refuses_other_sensitivity(capsys):
    # the sampler has sensitivity 1; publishing another would misstate it
    rc, out, err = run(capsys, ["privatize", "--values", "1,0,1", "--family",
                                "randomized-response", "--epsilon", "1",
                                "--sensitivity", "7", "--seed", "1"])
    assert rc == 1 and out == ""
    assert err.startswith("ValueError: randomized response has sensitivity 1, got 7.0")


def test_privatize_double_geometric_checks_sensitivity(capsys):
    rc, _, err = run(capsys, ["privatize", "--values", "3,1,4", "--family",
                              "double-geometric", "--epsilon", "0.5",
                              "--sensitivity", "2.5", "--seed", "2"])
    assert rc == 1
    assert err.startswith("ValueError:") and "integer" in err
    values = ",".join(["100"] * 4000)
    rc, out, _ = run(capsys, ["privatize", "--values", values, "--family",
                              "double-geometric", "--epsilon", "0.5",
                              "--sensitivity", "5", "--seed", "2"])
    assert rc == 0
    noise = np.array([int(r[1]) for r in csv_rows(out)[1]]) - 100
    # law at eps/Delta = 0.1: variance about 200; Delta ignored gives 7.8
    assert 150 < float(np.mean(noise.astype(float) ** 2)) < 250


def test_simulate_json_envelope_shape(capsys):
    rc, out, _ = run(capsys, DEMO_ARGS)
    assert rc == 0
    env = body_json(out)
    assert sorted(env) == ["confidential", "privatized"]
    assert len(env["confidential"]["x"]) == 3
    assert len(env["privatized"]["x_tilde"]) == 3
    assert env["confidential"]["params"]["sigma"] == 2.0
    assert env["privatized"]["spec_x"]["epsilon"] == 0.5


def test_simulate_file_holds_its_stdout_bytes(capsys, tmp_path):
    # header, envelope and newline are written as parts, never joined
    path = tmp_path / "env.json"
    assert main(DEMO_ARGS + ["--output", str(path)]) == 0
    rc, out, _ = run(capsys, DEMO_ARGS)
    assert rc == 0 and path.read_text() == out
    header, body = out.split("\n", 1)
    assert header.startswith("# transparent-dp v")
    # the body is the writer's text of the values it holds, and one newline
    env = {key: dataset_from_dict(val) for key, val in json.loads(body).items()}
    assert body == "".join(json_parts(env)) + "\n"


def test_envelope_loads_after_leading_comment_lines(capsys, demo_env, tmp_path):
    path = tmp_path / "commented.json"
    path.write_text("# one\n#\n" + demo_env.read_text() + "\n  \n")
    outs = [run(capsys, ["fit-naive", "--input", str(p)]) for p in (demo_env, path)]
    assert [rc for rc, _, _ in outs] == [0, 0]
    assert body_json(outs[0][1]) == body_json(outs[1][1])


def test_envelope_with_a_comment_after_its_body_is_a_json_error(capsys, demo_env, tmp_path):
    # Only the leading # lines are skipped; the body is decoded in place.
    path = tmp_path / "trailing.json"
    path.write_text(demo_env.read_text() + "# trailing\n")
    rc, out, err = run(capsys, ["fit-naive", "--input", str(path)])
    assert rc == 1 and out == ""
    assert err.startswith("JSONDecodeError: Extra data") and err.count("\n") == 1


def test_simulate_csv_is_release_only(capsys):
    rc, out, _ = run(capsys, DEMO_ARGS + ["--format", "csv"])
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["i", "x_tilde", "y_tilde"]
    # repr keeps every bit of the release the envelope holds
    priv = body_json(run(capsys, DEMO_ARGS)[1])["privatized"]
    assert rows == [[str(i), repr(x), repr(y)]
                    for i, (x, y) in enumerate(zip(priv["x_tilde"], priv["y_tilde"]))]


def test_simulate_csv_streams_rows_in_blocks(monkeypatch):
    written = []
    monkeypatch.setattr(cli, "_emit", lambda parts, output: written.append(list(parts)))
    argv = ["simulate", "--n", str(cli._ROWS + 1), "--epsilon-x", "1", "--epsilon-y", "1",
            "--seed", "4"]
    assert main(argv + ["--format", "csv"]) == 0
    assert main(argv) == 0
    (_, *csv_parts), (_, *json_parts) = written
    assert [p.count("\n") for p in csv_parts] == [1, cli._ROWS, 1]
    priv = json.loads("".join(json_parts))["privatized"]
    rows = zip(priv["x_tilde"], priv["y_tilde"])
    # lines, not one string, so a failure's diff stays cheap
    assert "".join(csv_parts).splitlines() == ["i,x_tilde,y_tilde"] + [
        f"{i},{x!r},{y!r}" for i, (x, y) in enumerate(rows)
    ]


def test_simulate_rerun_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(DEMO_ARGS + ["--output", str(a)]) == 0
    assert main(DEMO_ARGS + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("old", [
    lambda text: text[:-7],
    lambda text: b"z" * len(text),
    lambda text: b"old\n" * 100_000,
], ids=["shorter", "equal", "longer"])
def test_output_rewrites_an_existing_file_in_place(capsys, tmp_path, old):
    fresh, path = tmp_path / "fresh.json", tmp_path / "env.json"
    assert main(DEMO_ARGS + ["--output", str(fresh)]) == 0
    text = fresh.read_bytes()
    path.write_bytes(old(text))
    inode = path.stat().st_ino
    assert main(DEMO_ARGS + ["--output", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == text
    assert path.stat().st_ino == inode


def test_output_is_not_truncated_on_opening(tmp_path):
    # The old text is still there while the parts are produced; it is cut
    # once they are written.
    path = tmp_path / "out.txt"
    path.write_text("old\n" * 1000)
    sizes = []

    def parts():
        yield "new\n"
        sizes.append(path.stat().st_size)

    cli._emit(parts(), str(path))
    assert sizes == [4000]
    assert path.read_text() == "new\n"


def test_output_keeps_the_mode_and_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old text that is longer than the new\n" * 10)
    target.chmod(0o640)
    link.symlink_to(target)
    cli._emit(["new ", "text\n"], str(link))
    assert link.is_symlink()
    assert target.read_text() == "new text\n"
    assert target.stat().st_mode & 0o777 == 0o640
    fresh = tmp_path / "fresh.txt"
    cli._emit(["x\n"], str(fresh))
    umask = os.umask(0)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask


def test_output_to_dev_null_and_a_fifo(tmp_path):
    cli._emit(["nothing\n"] * 3, os.devnull)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
    reader.start()
    cli._emit(["through ", "a pipe\n"], str(fifo))
    reader.join(timeout=30)
    assert got == ["through a pipe\n"]


@pytest.mark.parametrize("first", [10, 200_000], ids=["buffered", "flushed"])
def test_a_failed_output_keeps_what_was_written_and_none_of_the_old(tmp_path, first):
    # A part that fails mid-stream leaves the parts before it, whether they
    # were still in the buffer or already on disk, and cuts the old text.
    path = tmp_path / "out.txt"
    path.write_text("old\n" * 200_000)

    def parts():
        yield "a" * first
        yield "b\n"
        raise ValueError("a part failed")

    with pytest.raises(ValueError, match="a part failed"):
        cli._emit(parts(), str(path))
    assert path.read_text() == "a" * first + "b\n"


ROOT = Path(__file__).resolve().parent.parent
TDP = [sys.executable, "-m", "transparent_dp.cli"]
TDP_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
MIB = 2**20


def traced_peak(argv):
    """Peak bytes that ``tdp argv`` allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_envelope_round_trip_memory_stays_bounded(tmp_path):
    # Holding the whole envelope as Python numbers and text, these peaked
    # at about 24.8, 16.0 and 16.1 MiB; holding its text whole, the fits
    # peaked at 12.0 and 11.8 MiB.  Read by lines, they peak at 3.6 and
    # 3.8 MiB, in ols; the bounds leave 25% above that.
    env = str(tmp_path / "env.json")
    assert traced_peak(["simulate", "--n", "100000", "--epsilon-x", "1", "--epsilon-y",
                        "1", "--seed", "4", "--output", env]) < 12 * MIB
    fit = ["fit-naive", "--input", env, "--output", str(tmp_path / "fit.json")]
    assert traced_peak(fit) < 4.5 * MIB
    assert traced_peak(fit + ["--on", "confidential"]) < 5 * MIB


def test_the_envelope_read_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # The read of fit-naive holds a line, a slice and the two arrays it
    # keeps, so from 20 000 to 200 000 records its peak grows by those
    # arrays, 2 x 8 B x 180 000, and 1 MiB at most.  Holding the text
    # whole, it peaked at 2.4 and 23.5 MiB.  The fit itself, in ols, holds
    # two more arrays of n and is not measured here.
    load, peaks = cli.load_envelope, {}

    def traced(path, keep):
        tracemalloc.start()
        try:
            return load(path, keep)
        finally:
            peaks.setdefault(keep, []).append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "load_envelope", traced)
    env = str(tmp_path / "env.json")
    for n in (20_000, 200_000):
        assert main(["simulate", "--n", str(n), "--epsilon-x", "1", "--epsilon-y", "1",
                     "--seed", "4", "--output", env]) == 0
        for on in ("privatized", "confidential"):
            assert main(["fit-naive", "--input", env, "--on", on,
                         "--output", str(tmp_path / "fit.json")]) == 0
    assert len(peaks) == 2
    for small, large in peaks.values():
        assert large - small <= 2 * 8 * 180_000 + MIB, (small, large)


@pytest.mark.parametrize("argv, output, error", [
    (["clt-limits", "--steps", "2"], ".", "IsADirectoryError"),
    (DEMO_ARGS, "missing/env.json", "FileNotFoundError"),
], ids=["directory", "missing-parent"])
def test_unwritable_output_is_one_error_line(capsys, tmp_path, argv, output, error):
    rc, out, err = run(capsys, argv + ["--output", str(tmp_path / output)])
    assert rc == 1 and out == ""
    assert err.startswith(f"{error}: ") and err.count("\n") == 1


def test_closed_stdout_pipe_exits_1_without_a_traceback():
    # 20 000 records are about 1.2 MB of text, far more than a pipe holds.
    proc = subprocess.Popen(
        TDP + ["simulate", "--n", "20000", "--epsilon-x", "1", "--epsilon-y", "1",
               "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=TDP_ENV,
    )
    head = proc.stdout.read(50)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b"# transparent-dp v")
    assert proc.returncode == 1 and err == b""


@pytest.mark.parametrize("model", [
    ["--beta1", "1e308", "--lam", "100"],
    ["--beta0", "1.7e308", "--beta1", "1e307"],
], ids=["multiply", "add"])
def test_simulate_overflow_is_one_named_error_line(model):
    # numpy's overflow warnings must not print ahead of the error
    proc = subprocess.run(
        TDP + ["simulate", "--n", "5", "--epsilon-x", "1", "--epsilon-y", "1",
               "--seed", "1", *model],
        capture_output=True, text=True, env=TDP_ENV, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "ValueError: x and y must be finite\n"


@pytest.mark.parametrize("argv", [
    ["dissimilarity", "--epsilon", "1", "--replicates", str(10**17), "--seed", "1"],
    ["clt-limits", "--n", str(10**17)],
    ["simulate", "--n", str(10**17), "--epsilon-x", "1", "--epsilon-y", "1", "--seed", "1"],
], ids=["dissimilarity", "clt-limits", "simulate"])
def test_an_impossible_allocation_is_one_error_line(capsys, tract_csv, argv):
    # 10^17 eight-byte values need 8e17 bytes, past the 2^57-byte virtual
    # address space of the largest 64-bit machines, so numpy's request is
    # refused before a byte is written.
    if argv[0] == "dissimilarity":
        argv = argv + ["--input", str(tract_csv)]
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith("MemoryError: Unable to allocate ") and err.count("\n") == 1


def same_json(got, want):
    """True if the reader's ``got`` is ``json.loads``'s ``want``, where a
    number array may be the ndarray of its list: equal in dtype, and in each
    value's type and repr, so 1 is not 1.0 and -0.0 is not 0.0."""
    if isinstance(got, np.ndarray):
        return (isinstance(want, list) and got.dtype == np.asarray(want).dtype
                and list(map(repr, got.tolist())) == list(map(repr, want)))
    if isinstance(got, (dict, list)):
        if type(got) is not type(want) or len(got) != len(want):
            return False
        if isinstance(got, dict):
            if list(got) != list(want):
                return False
            got, want = list(got.values()), list(want.values())
        for g, w in zip(got, want):
            if not same_json(g, w):
                return False
        return True
    return type(got) is type(want) and repr(got) == repr(want)


def test_load_json_builds_only_the_kept_members(demo_env):
    env = body_json(demo_env.read_text())
    both = load_envelope(str(demo_env), ("confidential", "privatized"))
    assert same_json(both, env)
    assert both["confidential"]["x"].dtype == np.int64
    assert both["privatized"]["y_tilde"].dtype == np.float64
    assert same_json(load_envelope(str(demo_env), ("privatized",)),
                     {"privatized": env["privatized"]})
    assert load_envelope(str(demo_env), ()) == {}


def json_load(path, keep):
    """What ``load_envelope`` must give: ``json.loads`` of the file with its
    leading ``#`` lines blanked, so that error positions agree, holding only
    the ``keep`` members of a top-level object."""
    text = Path(path).read_text()
    start = 0
    while text.startswith("#", start):
        end = text.find("\n", start)
        start = len(text) if end < 0 else end + 1
    obj = json.loads(re.sub("[^\n]", " ", text[:start]) + text[start:])
    return {k: v for k, v in obj.items() if k in keep} if isinstance(obj, dict) else obj


def attempt(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc), str(exc)


def dataset_fields(ds):
    """A dataset's fields, its arrays by dtype, shape and bytes."""
    return [(name, (val.dtype, val.shape, val.tobytes()) if isinstance(val, np.ndarray)
             else repr(val)) for name, val in vars(ds).items()]


KEEPS = [("confidential", "privatized"), ("privatized",), ("confidential",), ()]


def assert_reader_agrees_with_json(path, monkeypatch):
    """``load_envelope`` gives what ``json.loads`` does for every keep set,
    and ``_envelope`` the same dataset, or the same error, for both --on
    values."""
    for keep in KEEPS:
        got, want = attempt(load_envelope, path, keep), attempt(json_load, path, keep)
        assert same_json(got, want), (keep, got, want)
    params = {"input": str(path)}
    for on in ("privatized", "confidential"):
        for keep in ((on,), KEEPS[0]):
            outcomes = []
            for load in (load_envelope, json_load):
                with monkeypatch.context() as m:
                    m.setattr(cli, "load_envelope", load)
                    outcomes.append(attempt(
                        lambda: dataset_fields(cli._envelope(params, on, keep)[1])))
            assert outcomes[0] == outcomes[1], (on, keep, outcomes)


def base_envelopes(tmp_path):
    """Envelope texts to mutate: two simulate outputs, one with short floats
    so that a line holds several values, and one whose arrays json.dumps
    indents, one value to a line."""
    texts = []
    for seed, n in ((3, 6), (8, 9)):
        path = tmp_path / f"base{seed}.json"
        assert main(["simulate", "--n", str(n), "--epsilon-x", "1", "--epsilon-y", "2",
                     "--seed", str(seed), "--output", str(path)]) == 0
        texts.append(path.read_text())
    env = body_json(texts[0])
    env["privatized"]["y_tilde"] = [round(v, 1) for v in env["privatized"]["y_tilde"]]
    datasets = {key: dataset_from_dict(val) for key, val in env.items()}
    texts.append("# short floats\n" + "".join(json_parts(datasets)))
    texts.append(json.dumps(body_json(texts[1]), indent=1))
    return [t.encode() for t in texts]


# Bytes an insertion draws from: JSON's own characters, those of the
# literals json accepts beyond JSON, and a few that neither accepts.
INSERTS = b'0123456789-+.eE,:[]{}" \n\t\r\\ufnlasrtINaIy#\x00\x0c\xa0\xff'


def mutate(data, gen):
    """Delete, insert or swap one byte of ``data`` in place."""
    i = gen.randrange(len(data))
    kind = gen.randrange(3)
    if kind == 0 and len(data) > 1:
        del data[i]
    elif kind == 1:
        data.insert(i, gen.choice(INSERTS))
    else:
        j = gen.randrange(len(data))
        data[i], data[j] = data[j], data[i]


def test_reader_agrees_with_json_on_mutated_envelopes(tmp_path, monkeypatch, capsys):
    # Lines of at most 3 values, so an array spans several.
    monkeypatch.setattr(simulate, "_SLICE", 3)
    bases = base_envelopes(tmp_path)
    capsys.readouterr()
    gen = random.Random(2023)
    path = tmp_path / "mutated.json"
    for _ in range(2000):
        data = bytearray(gen.choice(bases))
        for _ in range(gen.choice((1, 1, 2, 3))):
            mutate(data, gen)
        path.write_bytes(bytes(data))
        assert_reader_agrees_with_json(path, monkeypatch)


def edit_array(text, key, edit):
    """``text`` with the lines of numbers of member ``key``'s array
    rewritten by ``edit``."""
    start = text.index(f'"{key}": [\n') + len(f'"{key}": [\n')
    end = text.index("\n]", start)
    return text[:start] + edit(text[start:end]) + text[end:]


# Each edit is one place where orjson, reading a line of numbers or a whole
# envelope, or the line reader could read it otherwise than json.
EDITS = [
    lambda t: edit_array(t, "x", lambda a: "18446744073709551616, " + a),
    lambda t: edit_array(t, "x", lambda a: a + ", -9223372036854775809"),
    lambda t: edit_array(t, "x", lambda a: "9223372036854775808, " + a),
    lambda t: edit_array(t, "y_tilde", lambda a: a + ", 18446744073709551616"),
    lambda t: edit_array(t, "y", lambda a: "1e400, " + a),
    lambda t: edit_array(t, "x_tilde", lambda a: a + ", NaN"),
    lambda t: edit_array(t, "y", lambda a: "NaN, Infinity, -Infinity, " + a),
    lambda t: t.replace('"kind": "privatized"', '"kind": "privatized", "\\ud800": [1]'),
    lambda t: edit_array(t, "x_tilde", lambda a: a + ", [2.5]"),
    lambda t: edit_array(t, "y_tilde", lambda a: '"1.5", ' + a),
    lambda t: edit_array(t, "x", lambda a: "01, " + a),
    lambda t: edit_array(t, "y_tilde", lambda a: "-00.5, " + a),
    lambda t: edit_array(t, "x", lambda a: a.replace(",", ",\n  ")),
    lambda t: edit_array(t, "y_tilde", lambda a: "7, " + a),
    lambda t: edit_array(t, "x", lambda a: a + ", true"),
    lambda t: edit_array(t, "x_tilde", lambda a: "-0, " + a),
    lambda t: t.replace('"kind": "privatized"',
                        '"kind": "privatized", "deep": ' + '{"a": ' * 600 + "[1]" + "}" * 600),
    lambda t: edit_array(t, "x", lambda a: "1" * 5000 + ", " + a),
    lambda t: t.replace('"kind": "privatized"', '"kind": [1, 2]'),
    lambda t: t.replace('"family": "laplace"', '"family": [1.5, -2.0]', 1),
]
EDIT_IDS = ["int-2^64", "int-below-int64", "int-uint64", "int-2^64-in-floats", "1e400", "nan",
            "nan-infinity", "surrogate-key", "nested-list", "string", "leading-zero",
            "leading-zero-float", "lines", "int-among-floats", "bool-among-ints", "minus-zero",
            "deep-nesting", "int-5000-digits", "array-kind", "array-family"]


@pytest.mark.parametrize("edit", EDITS, ids=EDIT_IDS)
def test_reader_agrees_with_json_where_orjson_differs(tmp_path, monkeypatch, capsys, edit):
    # lines of at most 2 values
    monkeypatch.setattr(simulate, "_SLICE", 2)
    text = edit(base_envelopes(tmp_path)[2].decode())
    capsys.readouterr()
    path = tmp_path / "edited.json"
    path.write_text(text)
    assert_reader_agrees_with_json(path, monkeypatch)


# Texts that no edit of an envelope makes: long comment lines, trailing
# data, repeated keys, CR and CRLF line ends, long strings and numbers, a
# byte order mark, bodies that are empty or end early, and texts in or near
# the line layout that it must refuse: an array that is a key, in a list or
# the whole body, the marks' escape, and lines that are not slices.
EDGE_TEXTS = [
    "# " + "a comment line longer than the window " * 4 + "\n#\n{\"privatized\": [1, 2]}\n",
    '{"privatized": {"x": [1, 2]}} {}',
    '{"privatized": {"x": [1, 2]}}\n# a comment after the body\n',
    '{"confidential": [1.5, 2.5], "privatized": 3, "confidential": [4, 5]}',
    '{"privatized":\r\n {"x": [1,\r 2.5e-3]},\r\n "confidential": {"y": [0.1]}}\r\n',
    '{"privatized": {"kind": "' + "a long string " * 8 + '\\u00e9\\n", "x": [7]}}',
    '{"privatized": {"x": [' + "9" * 60 + ", 1." + "5" * 60 + "e-" + "0" * 40 + "1]}}",
    '\ufeff{"privatized": {}}',
    "", "  \n ", "#", "# a comment and no body", '{"privatized": {"x": [1, 2',
    '{"privatized": {"x": [1.5e', '{"privatized": {"x": [-Infinity, 1e+308, -0.0]}}',
    '{"privatized": {"x": [1, 2.5]}, "confidential": {"x": [[1], {"a": "b"}]}}',
    '{"privatized": {"x": [1, 2],}}', '{"privatized": {"x": [1, 2,]}}', '{"confidential": 1,}',
    '# c\n{"privatized": {"x": [\n1,2\n,3\n], "y": [\n-0.0,5e-324\n]}}\n',
    '{"privatized": {"x": [\r\n1,2\r\n,3\r\n]}}\r\n', '{"privatized": {"x": [\n]}}',
    '{"privatized": {"x": [\n\n]}}', '{"privatized": {"x": [\n1,2\n,3.5\n]}}',
    '{"privatized": {"x": [\n1,2\n3\n]}}', '{"privatized": {"x": [\n,1,2\n]}}',
    '{"privatized": {"x": [\n1,2\n,\n]}}', '{"privatized": {"x": [\n1\n]',
    '{"privatized": {"x": [\n1\n', '{"privatized": {"x": [\n1\n]}} {}',
    '{[\n1\n]: 2}', '{"privatized": [[\n1\n]]}', '[\n1\n]', '{"privatized": {"x": "a[\n1\n]"}}',
    '{"privatized": {"x": "\\u0000", "y": [\n1\n]}}',
    '{"privatized": {"\\u00000": [\n1\n], "y": "\\u00000"}}',
    '{"privatized": {"x": "\\u00000"}}', '{"privatized": {"x": [\n1\n], "y": "\\u00001"}}',
    '{"privatized": {"x": [\n1\n], "x": [\n2.5\n]}}',
    '{"privatized": {"x": [\n1\n]}, "privatized": {"x": [\n2\n]}}',
    '{"a": {"b": {"c": [\n1\n]}}, "privatized": {"kind": [\n1\n]}}',
    '{"privatized": {"x": [\n1\n]]}', '{"privatized": {"x": [\n1\n], "y": [2]}}',
    '{"privatized": {"x": [\n1e400\n]}}', '{"privatized": {"x": [\n0.5\n,NaN\n]}}',
]


# Sizes of the reads the line reader's file is read in: one character, a
# few, and more than any test file, so lines and CRLF line ends straddle
# the reads or fall inside one.
WINDOWS = [1, 7, 24, 2**18]


def read_in_windows(monkeypatch, window):
    """Make ``load_envelope`` read its file ``window`` bytes at a time."""
    def opened(path):
        fh = open(path)
        fh._CHUNK_SIZE = window
        return fh

    monkeypatch.setattr(simulate, "open", opened, raising=False)


@pytest.mark.parametrize("window", WINDOWS)
def test_reader_agrees_with_json_on_edge_texts(tmp_path, monkeypatch, window):
    read_in_windows(monkeypatch, window)
    path = tmp_path / "edge.json"
    for text in EDGE_TEXTS:
        path.write_text(text, newline="")
        assert_reader_agrees_with_json(path, monkeypatch)
    # Numbers that json's scanner reads past a prefix that is a number too.
    for pad in range(25):
        space = " " * pad
        for text in (f'{{"privatized": {{"seed": {space}-12.5e+3, "n": 7E-2}}}}',
                     f'{{"privatized": {space}10.25}}', f"{space}3.5e-1"):
            path.write_text(text)
            assert_reader_agrees_with_json(path, monkeypatch)


def simulate_envelope(path, n, seed):
    assert main(["simulate", "--n", str(n), "--epsilon-x", "1", "--epsilon-y", "2",
                 "--seed", str(seed), "--output", str(path)]) == 0
    return path


def assert_read_by_lines(path, monkeypatch):
    """``load_envelope`` gives json's value for every keep set with the whole
    text out of reach, so the line reader read the file alone, and it builds
    the values of the kept members' arrays and no others."""
    whole = json_load(path, KEEPS[0])
    number_slice, built = simulate._number_slice, []

    def counted(part, build):
        piece = number_slice(part, build)
        built.append(piece.size)
        return piece

    with monkeypatch.context() as m:
        m.setattr(Path, "read_text", lambda *_: pytest.fail("read the whole text"))
        m.setattr(simulate, "_number_slice", counted)
        for keep in KEEPS:
            built.clear()
            got = load_envelope(str(path), keep)
            assert same_json(got, {k: v for k, v in whole.items() if k in keep}), keep
            assert sum(built) == sum(len(val) for key in keep for val in whole[key].values()
                                     if isinstance(val, list)), keep


# Any text the line reader does not take is decoded whole, so only these
# tests, not the agreement with json, tell a broken reader from a working
# one.
# A line of 65 536 values holds a whole array, as the writer's 8192 does
# at these sizes.
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("line", [1, 2, 3, 65536])
def test_reader_walks_simulate_envelopes_alone(tmp_path, monkeypatch, window, line):
    read_in_windows(monkeypatch, window)
    monkeypatch.setattr(simulate, "_SLICE", line)
    for n, seed in ((6, 3), (9, 8)):
        path = simulate_envelope(tmp_path / f"env{n}.json", n, seed)
        assert_read_by_lines(path, monkeypatch)


@pytest.fixture(scope="module")
def large_env(tmp_path_factory):
    return simulate_envelope(tmp_path_factory.mktemp("large") / "env.json", 10**5, 13)


@pytest.mark.parametrize("window", [24, 2**18])
def test_reader_walks_a_large_simulate_envelope_alone(large_env, monkeypatch, window):
    read_in_windows(monkeypatch, window)
    assert_read_by_lines(large_env, monkeypatch)


@pytest.mark.parametrize("indent", [None, 2], ids=["one-line", "indent-2"])
def test_an_envelope_in_another_layout_is_read_through_json(tmp_path, monkeypatch, indent):
    # An envelope written before arrays were split into lines holds each on
    # one line; that and an indented one are decoded whole by json.
    env = body_json(simulate_envelope(tmp_path / "env.json", 9, 8).read_text())
    path = tmp_path / "other.json"
    path.write_text("# header\n" + json.dumps(env, sort_keys=True, indent=indent) + "\n")
    read_text, reads = Path.read_text, []

    def counted(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    for keep in KEEPS:
        reads.clear()
        got = load_envelope(str(path), keep)
        assert reads == [path]
        assert same_json(got, {k: v for k, v in env.items() if k in keep}), keep


# Float literals whose nearest double is hard to find: long mantissas,
# halfway cases, the subnormal and overflow edges, and other spellings.
HARD_FLOATS = [
    "0.1000000000000000055511151231257827", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126", "9007199254740993.0",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
    "1.7976931348623157e308", "1.7976931348623158e308", "123456789012345678901234567890.5",
    "-0.0", "0e0", "1E5", "1e+05", "-1.5e-07",
]


def in_lines(literals, size=64):
    """The array of ``literals`` in the line layout, ``size`` to a line."""
    rows = (", ".join(literals[i:i + size]) for i in range(0, len(literals), size))
    return "[\n" + "\n,".join(rows) + "\n]"


def test_reader_parses_every_float64_as_json_loads(tmp_path):
    # orjson parses the floats of a number array: each must be the double
    # json.loads gives, to the bit.
    gen = np.random.default_rng(19)
    bits = gen.integers(0, 2**64, 10**5, dtype=np.uint64)
    # every exponent and both signs
    assert np.unique(bits >> np.uint64(52)).size == 4096
    subnormal = gen.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    edges = np.concatenate([subnormal, np.nextafter(2.0**63, [0.0, np.inf]), [2.0**63]])
    values = np.concatenate([bits.view(np.float64), edges, -edges])
    literals = [repr(v) for v in values[np.isfinite(values)].tolist()] + HARD_FLOATS
    # An integral float from 2^63 up sends the text to json (see
    # simulate._number_slice), so those go in an array of their own.
    fast = [lit for lit in literals if abs(float(lit)) < 2.0**63]
    wide = [lit for lit in literals if abs(float(lit)) >= 2.0**63]
    path = tmp_path / "floats.json"
    text = f'{{"fast": {in_lines(fast)}, "wide": {in_lines(wide)}}}'
    path.write_text(text)
    assert same_json(load_envelope(str(path), ("fast", "wide")), json.loads(text))


def test_orjson_alone_parses_every_float64_as_json_loads(tmp_path, monkeypatch):
    # The test above passes as well where its arrays fall back to
    # json.loads; here the whole text is out of reach, so the ndarray is
    # orjson's, and it must hold json.loads' doubles to the bit.
    gen = np.random.default_rng(19)
    bits = gen.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    subnormal = gen.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    edges = np.concatenate([subnormal, [np.nextafter(2.0**63, 0.0)]])
    values = np.concatenate([bits, edges, -edges])
    literals = [repr(v) for v in values[np.isfinite(values)].tolist()] + HARD_FLOATS
    text = in_lines([lit for lit in literals if abs(float(lit)) < 2.0**63])
    path = tmp_path / "floats.json"
    path.write_text(f'{{"fast": {text}}}')
    monkeypatch.setattr(Path, "read_text", lambda *_: pytest.fail("read the whole text"))
    got = load_envelope(str(path), ("fast",))["fast"]
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    want = np.array(json.loads(text), dtype=np.float64)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_the_cli_module_does_not_import_orjson():
    code = ("import sys; import transparent_dp.cli; "
            "assert 'orjson' not in sys.modules, 'orjson loaded'")
    subprocess.run([sys.executable, "-c", code], env=TDP_ENV, check=True, timeout=120)


OTHER = {"privatized": "confidential", "confidential": "privatized"}


@pytest.mark.parametrize("bad", ["[1.0,,2.0]", "1.2.3", '{"x": [1e5, -]}', "[1, 2",
                                 '"\\q"', "nul"])
@pytest.mark.parametrize("on", ["privatized", "confidential"])
def test_syntax_error_in_a_member_that_is_not_built(capsys, demo_env, tmp_path, on, bad):
    # fit-naive builds only its --on member, yet the other is still checked
    kept = json.dumps(body_json(demo_env.read_text())[on])
    text = f'{{"{on}": {kept}, "{OTHER[on]}": {bad}}}'
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    rc, out, err = run(capsys, ["fit-naive", "--input", str(path), "--on", on])
    assert rc == 1 and out == ""
    assert err == f"JSONDecodeError: {want.value}\n"


@pytest.mark.parametrize("on", ["privatized", "confidential"])
def test_a_repeated_envelope_key_keeps_its_last_value(capsys, demo_env, mcem_env, tmp_path,
                                                      on):
    first, last = (json.dumps(body_json(p.read_text())[on]) for p in (demo_env, mcem_env))
    path = tmp_path / "twice.json"
    path.write_text(f'{{"{on}": {first}, "{OTHER[on]}": 5, "{on}": {last}}}')
    rc, out, _ = run(capsys, ["fit-naive", "--input", str(path), "--on", on])
    rc12, out12, _ = run(capsys, ["fit-naive", "--input", str(mcem_env), "--on", on])
    assert rc == rc12 == 0 and body_json(out) == body_json(out12)
    path.write_text(f'{{"{on}": {last}, "{on}": 7}}')
    rc, _, err = run(capsys, ["fit-naive", "--input", str(path), "--on", on])
    assert rc == 1 and err == f"ValueError: envelope section {on!r} holds a dataset of kind None\n"


@pytest.mark.parametrize("body", ["[1, 2]", "3", '"privatized"', "[]"])
def test_an_envelope_that_is_not_an_object_is_a_usage_error(capsys, tmp_path, body):
    path = tmp_path / "list.json"
    path.write_text(body + "\n")
    rc, out, err = run(capsys, ["fit-naive", "--input", str(path)])
    assert rc == 2 and out == ""
    assert err == "usage error: envelope has no 'privatized' dataset\n"


def test_confidential_member_alone_skips_comment_lines_and_refuses_extra_data(
    capsys, demo_env, tmp_path
):
    # the default --on privatized case is covered by the envelope tests above
    on = "confidential"
    text = demo_env.read_text()
    commented, extra = tmp_path / "commented.json", tmp_path / "extra.json"
    commented.write_text("# one\n#\n" + text + "\n \t\r\n")
    extra.write_text(text + " {}")
    outs = [run(capsys, ["fit-naive", "--input", str(p), "--on", on])
            for p in (demo_env, commented, extra)]
    assert [rc for rc, _, _ in outs] == [0, 0, 1]
    assert body_json(outs[0][1]) == body_json(outs[1][1])
    err = outs[2][2]
    assert err.startswith("JSONDecodeError: Extra data") and err.count("\n") == 1


def test_fit_naive_matches_library_ols(capsys, demo_env):
    env = body_json(demo_env.read_text())
    rc, out, _ = run(capsys, ["fit-naive", "--input", str(demo_env)])
    assert rc == 0
    report = body_json(out)
    direct = ols(np.array(env["privatized"]["x_tilde"]),
                 np.array(env["privatized"]["y_tilde"]))
    assert report == fit_fields(direct)
    assert report["n"] == 3

    rc, out, _ = run(capsys, ["fit-naive", "--input", str(demo_env),
                              "--on", "confidential"])
    assert rc == 0
    conf_report = body_json(out)
    assert conf_report == fit_fields(ols(env["confidential"]["x"], env["confidential"]["y"]))
    assert conf_report["beta1"] != report["beta1"]


def test_fit_naive_missing_section_is_usage_error(capsys, demo_env, tmp_path):
    env = body_json(demo_env.read_text())
    release_only = tmp_path / "release.json"
    release_only.write_text(json.dumps({"privatized": env["privatized"]}))
    rc, _, err = run(capsys, ["fit-naive", "--input", str(release_only),
                              "--on", "confidential"])
    assert rc == 2
    assert "usage error:" in err


def nonfinite_env(demo_env, tmp_path, bad):
    env = body_json(demo_env.read_text())
    env["privatized"]["x_tilde"][1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(env))
    return path


def test_fit_naive_rejects_nonfinite_release(capsys, demo_env, tmp_path):
    out_path = tmp_path / "fit.json"
    path = nonfinite_env(demo_env, tmp_path, float("nan"))
    rc, out, err = run(capsys, ["fit-naive", "--input", str(path),
                                "--output", str(out_path)])
    assert rc == 1
    assert err.startswith("ValueError:") and "finite" in err
    assert out == "" and not out_path.exists()


def test_abc_posterior_rejects_nonfinite_release_at_once(capsys, demo_env, tmp_path):
    # before any proposal is drawn, not after a 1e7-proposal probe
    path = nonfinite_env(demo_env, tmp_path, float("inf"))
    rc, _, err = run(capsys, ["abc-posterior", "--input", str(path), "--draws", "10",
                              "--seed", "12", "--beta0-range=-8,0",
                              "--beta1-range", "2,6"])
    assert rc == 1
    assert err.startswith("ValueError:") and "finite" in err


@pytest.fixture()
def mcem_env(tmp_path, capsys):
    path = tmp_path / "env12.json"
    rc = main(["simulate", "--n", "12", "--sigma", "2", "--lam", "5",
               "--epsilon-x", "1", "--epsilon-y", "1", "--seed", "5",
               "--output", str(path)])
    assert rc == 0
    capsys.readouterr()
    return path


def test_fit_mcem_report_and_trace(capsys, mcem_env, tmp_path):
    trace = tmp_path / "trace.csv"
    rc, out, _ = run(capsys, ["fit-mcem", "--input", str(mcem_env),
                              "--seed", "7", "--k-samples", "500",
                              "--max-iter", "4", "--trace", str(trace)])
    assert rc == 0
    report = body_json(out)
    assert sorted(report) == ["converged", "ellipse", "fisher_pd", "fit",
                              "iterations", "k_final", "mean_score",
                              "mean_score_se"]
    assert report["fit"]["method"] == "mcem"
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# transparent-dp")
    assert "command=fit-mcem-trace" in lines[0]
    assert lines[1] == "iter,beta0,beta1,ess"
    assert len(lines) - 2 == report["iterations"]

    # the report and trace hold the library's run, every float as its repr
    env = body_json(mcem_env.read_text())
    config = MCEMConfig(sigma=2.0, lam=5.0, k_samples=500, max_iter=4)
    res = run_mcem(dataset_from_dict(env["privatized"]), config, 7)
    assert res.fisher_pd
    assert report["fit"] == fit_fields(res.fit)
    ell = res.ellipse
    assert report["ellipse"] == {"center": list(ell.center), "shape": ell.shape.tolist(),
                                 "level": ell.level}
    cells = [ln.split(",") for ln in lines[2:]]
    assert [row[0] for row in cells] == [str(i) for i in range(1, len(cells) + 1)]
    assert all(is_repr(c) for row in cells for c in row[1:])
    assert [[float(c) for c in row] for row in cells] == res.trace.tolist()


def test_fit_mcem_release_only_envelope_needs_sigma_lam(capsys, mcem_env, tmp_path):
    env = body_json(mcem_env.read_text())
    release_only = tmp_path / "release.json"
    release_only.write_text(json.dumps({"privatized": env["privatized"]}))
    base = ["fit-mcem", "--input", str(release_only), "--seed", "7",
            "--k-samples", "300", "--max-iter", "2"]
    rc, _, err = run(capsys, base)
    assert rc == 2
    assert "--sigma" in err and "--lam" in err
    rc, out, _ = run(capsys, base + ["--sigma", "2", "--lam", "5"])
    assert rc == 0
    assert body_json(out)["fit"]["method"] == "mcem"


def test_abc_posterior_draws_stay_in_prior_box(capsys, demo_env):
    argv = ["abc-posterior", "--input", str(demo_env), "--draws", "100",
            "--seed", "12", "--beta0-range=-8,0", "--beta1-range", "2,6"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert "# acceptance_rate=" in out
    header, rows = csv_rows(out)
    assert header == ["draw", "beta0", "beta1"]
    assert [r[0] for r in rows] == [str(i) for i in range(100)]
    assert all(is_repr(c) for r in rows for c in r[1:])
    b0 = np.array([float(r[1]) for r in rows])
    b1 = np.array([float(r[2]) for r in rows])
    assert ((b0 >= -8) & (b0 <= 0)).all()
    assert ((b1 >= 2) & (b1 <= 6)).all()
    rc, again, _ = run(capsys, argv)
    assert rc == 0
    assert again == out


def test_abc_posterior_normal_prior(capsys, demo_env):
    rc, out, _ = run(capsys, ["abc-posterior", "--input", str(demo_env),
                              "--draws", "20", "--seed", "4",
                              "--prior", "independent-normal",
                              "--prior-means=-4,4", "--prior-sds", "2,1"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert len(rows) == 20


@pytest.mark.parametrize("flags, match", [
    (["--prior-means", "nan,0", "--prior-sds", "1,1"], "means must be finite"),
    (["--prior-means=0,-inf", "--prior-sds", "1,1"], "means must be finite"),
    (["--prior-means", "0,0", "--prior-sds", "nan,1"], "sds must be positive"),
])
def test_abc_posterior_rejects_nonfinite_prior_at_once(capsys, demo_env, monkeypatch,
                                                       flags, match):
    # named at PriorSpec construction, before any proposal is drawn
    def no_probe(*args, **kwargs):
        raise AssertionError("abc_exact_posterior ran on an invalid prior")

    monkeypatch.setattr("transparent_dp.cli.abc_exact_posterior", no_probe)
    rc, out, err = run(capsys, ["abc-posterior", "--input", str(demo_env),
                                "--draws", "20", "--seed", "4",
                                "--prior", "independent-normal", *flags])
    assert rc == 1
    assert err.startswith("ValueError:") and match in err
    assert out == ""


@pytest.mark.parametrize("flags, name", [
    (["--sigma", "0"], "sigma"),
    (["--lam", "0"], "lam"),
    (["--lam=-1"], "lam"),
])
def test_abc_posterior_rejects_nonpositive_sigma_and_lam(capsys, demo_env, flags, name):
    rc, out, err = run(capsys, ["abc-posterior", "--input", str(demo_env),
                                "--draws", "20", "--seed", "4",
                                "--beta0-range=-8,0", "--beta1-range", "2,6", *flags])
    assert rc == 1 and out == ""
    assert err.startswith(f"ValueError: {name} must be finite and positive")
    assert len(err.strip().splitlines()) == 1


def test_clt_limits_starts_unbiased_then_attenuates(capsys):
    rc, out, _ = run(capsys, ["clt-limits", "--steps", "5"])
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["sigma_u", "sigma_v", "gamma", "sigma_tilde",
                      "center", "lower", "upper"]
    assert len(rows) == 5
    gammas = [float(r[2]) for r in rows]
    assert gammas[0] == 1.0
    assert float(rows[0][4]) == 0.5
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_coverage_grid_rows_and_zero_noise_cell(capsys):
    rc, out, _ = run(capsys, ["coverage-grid", "--steps", "3",
                              "--convention", "both"])
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["sigma_u", "sigma_v", "convention", "coverage"]
    assert len(rows) == 3 * 3 * 2
    axis = np.linspace(0.0, 2.0, 3)
    assert [(float(su), float(sv), conv, float(cov)) for su, sv, conv, cov in rows] == (
        coverage_grid(reference_design(), 0.5, 1.0, axis, axis, convention="both")
    )
    clean = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert len(clean) == 2
    for row in clean:
        assert abs(float(row[3]) - 0.95) < 1e-6

    rc, out, _ = run(capsys, ["coverage-grid", "--steps", "3",
                              "--convention", "privacy_aware_se"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert len(rows) == 9
    assert set(r[2] for r in rows) == {"privacy_aware_se"}


def cell_parses(cell):
    """True if an ellipse-study cell reads as a number or a method name."""
    try:
        float(cell)
    except ValueError:
        return cell in ("naive", "mcem")
    return True


def test_ellipse_study_rows_and_summary(capsys):
    argv = ["ellipse-study", "--epsilon-x", "0.5", "--epsilon-y", "0.5",
            "--n", "8", "--replicates", "2", "--k-samples", "300",
            "--max-iter", "4", "--seed", "5"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# coverage ")
    assert "mcem=" in lines[-1] and "naive=" in lines[-1]
    header, rows = csv_rows(out)
    assert header == ["replicate", "method", "beta0", "beta1", "covered", "area"]
    assert [r[1] for r in rows] == ["naive", "mcem", "naive", "mcem"]
    assert all(cell_parses(c) for r in rows for c in r)
    model = RegressionParams(beta0=-5.0, beta1=4.0, sigma=5.0, lam=10.0)
    config = MCEMConfig(sigma=5.0, lam=10.0, k_samples=300, max_iter=4)
    study, _ = ellipse_study(model, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), 2, 5,
                             config=config)
    assert rows == [[str(r.replicate), r.method, repr(float(r.beta0)), repr(float(r.beta1)),
                     str(int(r.covered)), repr(float(r.area))] for r in study]

    rc, out, _ = run(capsys, argv + ["--methods", "naive"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert set(r[1] for r in rows) == {"naive"}
    assert len(rows) == 2
    assert all(cell_parses(c) for r in rows for c in r)


@pytest.mark.parametrize("methods", ["", ","])
def test_ellipse_study_refuses_empty_methods(capsys, methods):
    rc, out, err = run(capsys, ["ellipse-study", "--epsilon-x", "0.5", "--epsilon-y", "0.5",
                                "--n", "8", "--replicates", "2", "--seed", "1",
                                "--methods", methods])
    assert rc == 1
    assert out == ""
    assert err.startswith("ValueError:") and "naive, mcem" in err
    assert err.count("\n") == 1


@pytest.fixture()
def tract_csv(tmp_path):
    path = tmp_path / "tracts.csv"
    path.write_text("tract,w,b\n0,60,20\n1,40,80\n")
    return path


def test_dissimilarity_exact_value(capsys, tract_csv):
    rc, out, _ = run(capsys, ["dissimilarity", "--input", str(tract_csv)])
    assert rc == 0
    assert body_json(out) == {"d": 0.4}


def test_dissimilarity_study_report(capsys, tract_csv):
    rc, out, _ = run(capsys, ["dissimilarity", "--input", str(tract_csv),
                              "--epsilon", "0.25", "--replicates", "500",
                              "--seed", "9"])
    assert rc == 0
    report = body_json(out)
    assert report["replicates"] == 500
    assert report["epsilon"] == 0.25
    assert set(report["quantiles"]) == {"0.05", "0.25", "0.5", "0.75", "0.95"}
    assert 0.0 <= report["undefined_fraction"] < 1.0
    study = privatized_dissimilarity_study(county_table_from_csv(tract_csv.read_text()),
                                           PrivacyBudget(0.25), 500, stream(9, "dissimilarity"))
    assert report == {
        "mean": study.mean, "sd": study.sd,
        "quantiles": {str(q): v for q, v in study.quantiles.items()},
        "undefined_fraction": study.undefined_fraction,
        "out_of_range_fraction": study.out_of_range_fraction,
        "replicates": 500, "epsilon": 0.25,
    }


def test_undefined_report_values_are_null(capsys, tmp_path):
    env = tmp_path / "env5.json"
    assert main(["simulate", "--n", "5", "--epsilon-x", "0.1", "--epsilon-y", "0.1",
                 "--seed", "3", "--output", str(env)]) == 0
    rc, out, _ = run(capsys, ["fit-mcem", "--input", str(env), "--seed", "1",
                              "--max-iter", "10"])
    assert rc == 0
    report = strict_json(out)
    assert report["fisher_pd"] is False and report["ellipse"] is None
    assert report["fit"]["cov"] is None

    tiny = tmp_path / "tiny.csv"
    tiny.write_text("tract,w,b\n0,1,0\n1,0,1\n")
    rc, out, _ = run(capsys, ["dissimilarity", "--input", str(tiny), "--epsilon", "0.01",
                              "--replicates", "2", "--seed", "5"])
    assert rc == 0
    study = strict_json(out)
    assert study["undefined_fraction"] == 1.0
    assert study["mean"] is None and study["sd"] is None
    assert set(study["quantiles"].values()) == {None}


def test_a_nan_left_in_a_json_report_is_a_named_error(capsys, tract_csv, monkeypatch):
    monkeypatch.setattr(cli, "dissimilarity", lambda table: float("nan"))
    rc, out, err = run(capsys, ["dissimilarity", "--input", str(tract_csv)])
    assert rc == 1 and out == ""
    assert err.startswith("ValueError: Out of range float values") and err.count("\n") == 1


def test_dissimilarity_epsilon_without_seed_exits_2(capsys, tract_csv):
    rc, _, err = run(capsys, ["dissimilarity", "--input", str(tract_csv),
                              "--epsilon", "0.25"])
    assert rc == 2
    assert err.startswith("usage error:")


@pytest.mark.parametrize("count", ["nan", "1e400"])
@pytest.mark.parametrize("study", [[], ["--epsilon", "0.25", "--replicates", "50",
                                        "--seed", "9"]], ids=["exact", "study"])
def test_dissimilarity_rejects_nonfinite_counts(capsys, tmp_path, count, study):
    path = tmp_path / "tracts.csv"
    path.write_text(f"tract,w,b\n0,{count},5\n1,3,4\n")
    rc, out, err = run(capsys, ["dissimilarity", "--input", str(path), *study])
    assert rc == 1 and out == ""
    assert err.startswith("ValueError:") and "w[0]=" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("count, message", [
    ("1e300", "at most DG_MAX_VALUE"),
    ("10.5", "requires integer values"),
])
def test_dissimilarity_study_refuses_counts_the_mechanism_cannot_noise(
        capsys, tmp_path, count, message):
    path = tmp_path / "tracts.csv"
    path.write_text(f"tract,w,b\n0,{count},5\n1,3,4\n")
    rc, out, err = run(capsys, ["dissimilarity", "--input", str(path), "--epsilon", "0.5",
                                "--replicates", "10", "--seed", "1"])
    assert rc == 1 and out == ""
    assert err.startswith("ValueError:") and message in err
    assert len(err.strip().splitlines()) == 1
    # the exact index takes any finite count
    rc, out, _ = run(capsys, ["dissimilarity", "--input", str(path)])
    assert rc == 0 and 0.0 <= body_json(out)["d"] <= 1.0


def test_verify_dp_randomized_response(capsys):
    rc, out, _ = run(capsys, ["verify-dp", "--family", "randomized-response",
                              "--epsilon", "1.0986"])
    assert rc == 0
    report = body_json(out)
    assert report["satisfied"] is True
    assert abs(report["max_log_ratio"] - 1.0986) < 1e-12

    rc, out, _ = run(capsys, ["verify-dp", "--family", "randomized-response",
                              "--epsilon", "1.0986", "--claimed-epsilon", "0.5"])
    assert rc == 0
    report = body_json(out)
    assert report["claimed_epsilon"] == 0.5
    assert report["satisfied"] is False


def test_verify_dp_sensitivity(capsys):
    rc, out, _ = run(capsys, ["verify-dp", "--family", "double-geometric",
                              "--epsilon", "0.5", "--sensitivity", "2"])
    assert rc == 0
    assert "sensitivity=2" in out.splitlines()[0].split()
    report = body_json(out)
    assert report["max_log_ratio"] == 0.5
    assert report["satisfied"] is True
    rc, _, err = run(capsys, ["verify-dp", "--family", "randomized-response",
                              "--epsilon", "1", "--sensitivity", "2"])
    assert rc == 1
    assert "sensitivity" in err


def test_verify_dp_huge_sensitivity_costs_no_more(capsys):
    # The scan does not grow with the sensitivity, so a Δ of 1e12 answers
    # at once instead of enumerating 3e12 outputs.
    rc, out, _ = run(capsys, ["verify-dp", "--family", "double-geometric",
                              "--epsilon", "1", "--sensitivity", str(10**12)])
    assert rc == 0
    report = body_json(out)
    assert report["max_log_ratio"] == 1.0
    assert report["satisfied"] is True


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_config_is_not_an_option(capsys, tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    cap = capsys.readouterr()
    assert exc.value.code == 2 and cap.out == ""
    assert f"error: unrecognized arguments: --config {cfg}\n" in cap.err


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_the_parser_holds_every_default(command):
    # Given only its REQUIRED flags, a command gets every other row's
    # default, of the row's type, without running.
    argv, expected = [command], {}
    for name, kind, default, _ in [cli._OUTPUT, *cli._COMMANDS[command][1]]:
        if default is cli.REQUIRED:
            default = kind[0] if isinstance(kind, tuple) else kind("1")
            argv += [cli._flag(name), str(default)]
        expected[name] = default
    params = cli._params(cli.build_parser().parse_args(argv))
    assert params == expected and params["output"] is None
    assert {key: type(val) for key, val in params.items()} == {
        key: type(val) for key, val in expected.items()}


@pytest.mark.parametrize("argv", [
    ["clt-limits", "--sigma-u-max", "nan", "--steps", "2"],
    ["coverage-grid", "--sigma-v-max", "inf", "--steps", "2"],
    ["clt-limits", "--sigma-sq", "inf"],
    ["clt-limits", "--sigma-sq=-inf"],
    ["clt-limits", "--alpha", "1e400"],
])
def test_nonfinite_float_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    cap = capsys.readouterr()
    assert exc.value.code == 2 and cap.out == ""
    assert "must be a finite number" in cap.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, error", [
    (["coverage-grid", "--sigma-u-max", "1e160"], "the square of --sigma-u-max=1e+160 overflows"),
    (["coverage-grid", "--sigma-sq", "1e308"], "the CLT variance is not finite"),
    (["clt-limits", "--sigma-sq", "1e308"], "the CLT variance is not finite"),
    (["clt-limits", "--sigma-u-max", "1e200"], "the square of --sigma-u-max=1e+200 overflows"),
    (["coverage-grid", "--beta1", "1e200"], "the CLT variance is not finite"),
    (["clt-limits", "--sigma-v", "1e200"], "the square of --sigma-v=1e+200 overflows"),
    (["coverage-grid", "--sigma-v-max", "1e160"], "the square of --sigma-v-max=1e+160 overflows"),
], ids=["grid-sigma-u", "grid-sigma-sq", "limits-sigma-sq", "limits-sigma-u", "grid-beta1",
        "limits-sigma-v", "grid-sigma-v"])
def test_a_clt_grid_past_float_range_is_one_error_line(capsys, argv, error):
    # A noise sd whose square overflows is named with its flag; the CLT
    # variance refuses every other result that is not finite.
    rc, out, err = run(capsys, argv + ["--steps", "2"])
    assert rc == 1 and out == ""
    assert err.startswith(f"ValueError: {error}") and err.count("\n") == 1


def test_a_grid_whose_top_squares_in_range_still_runs(capsys):
    rc, out, _ = run(capsys, ["coverage-grid", "--steps", "2", "--sigma-v-max", "1e150"])
    assert rc == 0 and out.splitlines()[-1].startswith("2.0,1e+150,")


@pytest.mark.parametrize("argv", [
    ["--help"], ["fit-naive", "--help"], ["clt-limits", "--steps"], ["nope"], [],
], ids=["help", "command-help", "missing-value", "unknown-command", "no-command"])
def test_main_reuses_one_parser_with_the_same_output(capsys, argv):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    outputs = []
    for parser in (cli._parser(), cli.build_parser(), cli._parser()):
        try:
            rc = 2 if parser.parse_args(argv).command is None else 0
            parser.print_help()
        except SystemExit as exc:
            rc = exc.code
        outputs.append((rc, *capsys.readouterr()))
    assert outputs[0] == outputs[1] == outputs[2]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert (rc, *capsys.readouterr()) == outputs[0]


@pytest.mark.parametrize("command", ["clt-limits", "coverage-grid"])
def test_the_design_seed_is_not_settable(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--design-seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --design-seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["clt-limits", "coverage-grid"])
@pytest.mark.parametrize("n", ["-1", "0", "1"])
def test_a_design_below_two_points_is_one_error_line(capsys, command, n):
    rc, out, err = run(capsys, [command, f"--n={n}"])
    assert rc == 1 and out == ""
    assert err == f"ValueError: n must be at least 2, got {n}\n"


@pytest.mark.parametrize("command", ["clt-limits", "coverage-grid"])
@pytest.mark.parametrize("steps", ["0", "-1"])
def test_empty_grid_is_usage_error(capsys, command, steps):
    rc, out, err = run(capsys, [command, f"--steps={steps}"])
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and "--steps" in err


def test_help_shows_defaults(capsys):
    text = " ".join(help_text(capsys, ["fit-mcem", "--help"]).split())
    assert "(default 5000)" in text and "(default 0.05)" in text
    assert "(default: from envelope)" in text


def malformed_env(src, tmp_path, edit):
    env = body_json(src.read_text())
    edit(env)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(env))
    return path


@pytest.mark.parametrize("argv, edit, field", [
    (["fit-naive"], lambda e: e["privatized"].pop("x_tilde"), "x_tilde"),
    (["fit-naive", "--on", "confidential"],
     lambda e: e["confidential"].update(params=[1, 2]), "params"),
    (["fit-mcem", "--seed", "7", "--k-samples", "100", "--max-iter", "1"],
     lambda e: e["confidential"].update(params=[1, 2]), "confidential.params"),
    (["fit-mcem", "--seed", "7", "--k-samples", "100", "--max-iter", "1"],
     lambda e: e["confidential"]["params"].update(lam="5"), "confidential.params.lam"),
    (["fit-naive"], lambda e: e.update(privatized=e["confidential"]), "kind"),
])
def test_malformed_envelope_is_named_error(capsys, mcem_env, tmp_path, argv, edit, field):
    path = malformed_env(mcem_env, tmp_path, edit)
    rc, out, err = run(capsys, argv + ["--input", str(path)])
    assert rc == 1 and out == ""
    assert err.startswith("ValueError:") and field in err
    assert len(err.strip().splitlines()) == 1


def double_geometric_y(env):
    env["privatized"]["spec_y"]["family"] = "double_geometric"
    env["privatized"]["y_tilde"] = [round(v) for v in env["privatized"]["y_tilde"]]


def test_fit_mcem_refuses_a_double_geometric_y_release(capsys, mcem_env, tmp_path):
    path = malformed_env(mcem_env, tmp_path, double_geometric_y)
    rc, out, err = run(capsys, ["fit-mcem", "--input", str(path), "--seed", "7",
                                "--k-samples", "100", "--max-iter", "2"])
    assert rc == 1 and out == ""
    assert err.startswith("UnsupportedFamilyError:") and "Laplace y release" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["fit-naive"],
    ["abc-posterior", "--draws", "10", "--seed", "12", "--beta0-range=-8,0",
     "--beta1-range", "2,6"],
], ids=["fit-naive", "abc-posterior"])
def test_commands_refuse_a_double_geometric_y_release_at_load(capsys, mcem_env, tmp_path,
                                                             argv):
    path = malformed_env(mcem_env, tmp_path, double_geometric_y)
    rc, out, err = run(capsys, argv + ["--input", str(path)])
    assert rc == 1 and out == ""
    assert err.startswith("UnsupportedFamilyError:") and "Laplace y release" in err
    assert len(err.strip().splitlines()) == 1


def test_envelope_known_names_mistyped_params():
    from transparent_dp.cli import _envelope_known
    flags = {"sigma": None, "lam": None}
    assert _envelope_known(flags, {"confidential": {"params": {"sigma": 2, "lam": 5}}}) \
        == (2.0, 5.0)
    assert _envelope_known({"sigma": 1.0, "lam": 3.0}, {"confidential": []}) == (1.0, 3.0)
    with pytest.raises(ValueError, match="confidential.params"):
        _envelope_known(flags, {"confidential": {"params": [2, 5]}})
    for sigma in ([2], [2, 3]):
        with pytest.raises(ValueError, match="confidential.params.sigma"):
            _envelope_known(flags, {"confidential": {"params": {"sigma": sigma, "lam": 5}}})


def test_benchmark_tracer_resolves_cli_names():
    # install() patches modules process-wide, so it runs in its own process
    root = Path(__file__).resolve().parent.parent
    # The samplers must be looked up at call time, or the traced noise
    # draws (and the benchmark's draws_per_s) silently read 0.
    code = "\n".join([
        "from tdpbench.spans import Tracer, install",
        "from transparent_dp.mechanisms import Family, MechanismSpec, PrivacyBudget,"
        " double_geometric_noise as untraced, privatize_vector",
        "from transparent_dp.rng import stream",
        "tracer = Tracer()",
        "install(tracer)",
        "from transparent_dp import mcem, simulate",
        "import json",
        "for family in (Family.LAPLACE, Family.DOUBLE_GEOMETRIC):",
        "    spec = MechanismSpec(family, 1.0, PrivacyBudget(1.0))",
        "    privatize_vector([1, 2, 3], spec, stream(0, 'tracer'))",
        # The MCEM per-layer metrics read these counts off the E-step's
        # state and the fit's result.
        "params = simulate.RegressionParams(-5.0, 4.0, 5.0, 10.0)",
        "conf = simulate.gen_confidential(6, params, stream(0, 'tc'), seed=0)",
        "priv = simulate.privatize_dataset(conf, PrivacyBudget(1.0), PrivacyBudget(1.0),"
        " stream(0, 'tp'))",
        "mcem.run_mcem(priv, mcem.MCEMConfig(k_samples=200, max_iter=3), 0)",
        # With the mechanisms name untraced again, the study's noise spans
        # can come only from the name metrics looks the sampler up by.
        "from transparent_dp import cli, mechanisms, metrics",
        "mechanisms.double_geometric_noise = untraced",
        "first = len(tracer.spans)",
        "table = metrics.CountyTable.from_counts([5, 7, 9], [4, 4, 6])",
        "cli.privatized_dissimilarity_study(table, PrivacyBudget(0.5), 4, stream(0, 'td'))",
        "print(json.dumps({'spans': sorted({span[0] for span in tracer.spans}),"
        " 'counts': [c[0:1] + c[2:] for c in tracer.counts],"
        " 'study': [[s[0], max(s[4] - first, -1)] for s in tracer.spans[first:]]}))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": "src:."}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert "mechanisms.laplace_noise" in traced["spans"]
    assert "mechanisms.double_geometric_noise" in traced["spans"]
    counts = {}
    for name, value in traced["counts"]:
        counts.setdefault(name, []).append(value)
    # one E-step per iteration plus the Fisher step
    (iterations,) = counts["mcem.run_mcem.iterations"]
    assert len(counts["mcem.e_step.ess_fraction"]) == iterations + 1
    assert all(0.0 < v <= 1.0 for v in counts["mcem.e_step.ess_fraction"])
    assert counts["mcem.run_mcem.k_final"] == [200]
    # w cells, b cells, w total, b total, each inside the study's span
    assert traced["study"] == ([["metrics.privatized_dissimilarity_study", -1]]
                               + [["mechanisms.double_geometric_noise", 0]] * 4)
    assert counts["mechanisms.double_geometric_noise.draws"][-4:] == [12, 12, 4, 4]


def test_benchmark_abc_posterior_workload_passes_its_checks():
    # The workload's checks compare the accepted count with the exact
    # likelihood and the posterior mean with it within 4 SE.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "tdpbench/run.py", "--workload", "abc_posterior",
         "--seed", "1", "--seconds", "0.2"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["attempted"] > 0 and result["failed"] == 0


def test_benchmark_cli_release_workload_passes_its_checks():
    # The workload's checks hold the session's noise variances and the
    # dissimilarity study's summary to their laws.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "tdpbench/run.py", "--workload", "cli_release",
         "--seed", "1", "--seconds", "0.2"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["attempted"] > 0 and result["failed"] == 0


def test_benchmark_mcem_fit_workload_passes_its_checks():
    # Every pool fit must converge and end no lower than its naive start.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "tdpbench/run.py", "--workload", "mcem_fit",
         "--seed", "1", "--seconds", "0.2"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["attempted"] > 0 and result["failed"] == 0


def test_output_file_matches_stdout(capsys, tmp_path):
    rc, out, _ = run(capsys, ["clt-limits", "--steps", "4"])
    assert rc == 0
    path = tmp_path / "limits.csv"
    rc, piped, _ = run(capsys, ["clt-limits", "--steps", "4",
                                "--output", str(path)])
    assert rc == 0
    assert piped == ""
    assert path.read_text() == out


def readme_examples():
    """The README's console commands, each with the output lines shown under
    it, and its python blocks."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    shell, python = [], []
    for kind, block in re.findall(r"```(console|python)\n(.*?)```", text, re.S):
        if kind == "python":
            python.append(block)
            continue
        for line in block.splitlines():
            if line.startswith("$ "):
                shell.append((line[2:], []))
            else:
                shell[-1][1].append(line)
    return shell, python


def test_readme_examples_all_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shell, python = readme_examples()
    tdp_count = shown_count = 0
    for command, shown in shell:
        if command.startswith("tdp "):
            rc = main(shlex.split(command)[1:])
            out = capsys.readouterr().out
            assert rc == 0, command
            tdp_count += 1
            if shown:
                assert out.splitlines() == shown, command
                shown_count += 1
        else:
            subprocess.run(command, shell=True, check=True)
    assert tdp_count >= 12
    assert shown_count >= 4
    assert len(python) >= 1
    for block in python:
        exec(compile(block, "<readme>", "exec"), {})
