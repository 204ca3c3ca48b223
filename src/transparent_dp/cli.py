"""Command-line surface wiring the library into seeded experiments.

Every stochastic subcommand requires an explicit ``--seed``; rerunning any
command with identical arguments produces byte-identical output.  Outputs
are CSV or JSON prefixed with a ``#`` comment line echoing the version,
command, and full parameter set.  Every report is formatted here, by one
CSV writer and one JSON writer: floats print as Python's shortest repr,
JSON has sorted keys, and an undefined value is ``null``.  Each parameter is
set by its flag alone and declared once, in ``_COMMANDS``, which drives the
parser, its defaults and the header.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from collections.abc import Collection, Iterable, Iterator
from itertools import chain, count, islice
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    biasing_coefficient,
    clt_variance,
    coverage_grid,
    distribution_limits,
    reference_design,
    sample_moments,
)
from .bayes_abc import PriorSpec, abc_exact_posterior
from .errors import TransparentDpError
from .mcem import MCEMConfig, ellipse_study, run_mcem
from .mechanisms import (
    Family,
    MechanismSpec,
    PrivacyBudget,
    privatize_vector,
    verify_dp_discrete,
)
from .metrics import county_table_from_csv, dissimilarity, privatized_dissimilarity_study
from .naive_fit import FitResult, ols
from .rng import stream
from .simulate import (
    RegressionParams,
    _listed,
    dataset_from_dict,
    gen_confidential,
    json_parts,
    load_envelope,
    privatize_dataset,
)

# The commands use the dict forms above; tdpbench's tracer still wraps the
# JSON forms at this module's namespace.
from .simulate import dataset_from_json, dataset_to_json  # noqa: F401

__all__ = ["main", "build_parser"]


# Marks a parameter with no default; the default None marks an optional one.
REQUIRED = object()

# A row is (name, type or tuple of choices, default, help).  Each row is a
# flag and a header entry; shared rows are written once.
_OUTPUT = ("output", str, None, "output file path (default: stdout)")
_SEED = ("seed", int, REQUIRED, "master seed")
_INPUT = ("input", str, REQUIRED, "JSON envelope from the simulate command")
_KNOWN = [
    ("sigma", float, None, "known error sd (default: from envelope)"),
    ("lam", float, None, "known Poisson mean (default: from envelope)"),
]
_MODEL = [
    ("beta0", float, -5.0, "true intercept"),
    ("beta1", float, 4.0, "true slope"),
    ("sigma", float, 5.0, "error sd"),
    ("lam", float, 10.0, "Poisson mean of x"),
]
_BUDGETS = [(f"epsilon_{c}", float, REQUIRED, f"budget for the {c} coordinate") for c in "xy"]
_EM = [
    ("k_samples", int, 5000, "EM importance draws per record and iteration"),
    ("max_iter", int, 40, "EM iteration cap"),
]
_DESIGN = [
    ("n", int, 500, "design size"),
    ("beta1", float, 0.5, "true slope"),
    ("sigma_sq", float, 1.0, "error variance"),
    ("sigma_u_max", float, 2.0, "max x-noise sd"),
]

_COMMANDS: dict[str, tuple[str, list]] = {
    "privatize": ("release a vector through a privacy mechanism", [
        ("values", str, REQUIRED, "comma-separated values to privatize"),
        ("family", ("laplace", "double-geometric", "randomized-response"), "laplace",
         "mechanism family"),
        ("epsilon", float, REQUIRED, "privacy-loss budget"),
        ("sensitivity", float, 1.0, "query sensitivity"),
        _SEED,
    ]),
    "simulate": ("generate a confidential sample and its privatized release", [
        ("n", int, REQUIRED, "sample size"),
        *_MODEL,
        *_BUDGETS,
        _SEED,
        ("format", ("json", "csv"), "json",
         "json envelope (both datasets) or csv (release only)"),
    ]),
    "fit-naive": ("ordinary least squares on a simulated envelope", [
        _INPUT,
        ("on", ("privatized", "confidential"), "privatized", "which dataset to fit"),
    ]),
    "fit-mcem": ("EM likelihood correction on a privatized release", [
        _INPUT,
        _SEED,
        *_EM,
        ("alpha", float, 0.05, "ellipse level"),
        *_KNOWN,
        ("trace", str, None, "optional path for the iteration trace CSV"),
    ]),
    "abc-posterior": ("exact rejection posterior on a privatized release", [
        _INPUT,
        ("draws", int, 10000, "accepted draws to collect"),
        _SEED,
        ("prior", ("uniform-box", "independent-normal"), "uniform-box", "prior family"),
        ("beta0_range", str, None, "lo,hi bounds for beta0 (uniform-box)"),
        ("beta1_range", str, None, "lo,hi bounds for beta1 (uniform-box)"),
        ("prior_means", str, None, "m0,m1 prior means (independent-normal)"),
        ("prior_sds", str, None, "s0,s1 prior sds (independent-normal)"),
        *_KNOWN,
    ]),
    "clt-limits": ("normal-limit bands for the naive slope vs x-noise", [
        *_DESIGN,
        ("sigma_v", float, 0.0, "fixed y-noise sd"),
        ("steps", int, 9, "grid points along sigma_u"),
        ("alpha", float, 0.05, "band level"),
    ]),
    "coverage-grid": ("interval coverage over a noise-level grid", [
        *_DESIGN,
        ("sigma_v_max", float, 2.0, "max y-noise sd"),
        ("steps", int, 5, "grid points per axis"),
        ("alpha", float, 0.05, "interval level"),
        ("convention", ("privacy_aware_se", "classical_se", "both"), "both",
         "standard-error convention"),
    ]),
    "ellipse-study": ("replicated naive and EM confidence ellipses", [
        *_BUDGETS,
        ("n", int, 10, "confidential sample size"),
        ("replicates", int, 100, "privatization replicates"),
        _SEED,
        *_MODEL,
        *_EM,
        ("alpha", float, 0.05, "ellipse level"),
        ("methods", str, "naive,mcem", "comma list from {naive,mcem}"),
    ]),
    "dissimilarity": ("dissimilarity index of a tract table", [
        ("input", str, REQUIRED, "CSV file with header tract,w,b"),
        ("epsilon", float, None, "if given, run the privatized replication study"),
        ("replicates", int, 10000, "study replicates"),
        ("seed", int, None, "master seed (study only)"),
    ]),
    "verify-dp": ("brute-force the privacy bound of a discrete mechanism", [
        ("family", ("double-geometric", "randomized-response"), REQUIRED,
         "discrete mechanism family"),
        ("epsilon", float, REQUIRED, "budget the mechanism runs at"),
        ("claimed_epsilon", float, None,
         "budget claimed for the bound check (default: epsilon)"),
        ("sensitivity", int, 1, "integer query sensitivity (double geometric)"),
    ]),
}


class _UsageError(Exception):
    pass


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _finite_float(text: str) -> float:
    """argparse type of a float row: a finite float."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdp",
        description="Transparent privacy mechanisms and inference on privatized data.",
    )
    parser.add_argument("--version", action="version", version=f"tdp {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (help_text, rows) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kind, default, text in (_OUTPUT, *rows):
            if default is REQUIRED:
                default = None
            elif default is not None:
                text = f"{text} (default {default})"
            if isinstance(kind, tuple):
                p.add_argument(_flag(name), choices=kind, default=default, help=text)
            else:
                p.add_argument(_flag(name), type=_finite_float if kind is float else kind,
                               default=default, help=text)
    return parser


def _params(args: argparse.Namespace) -> dict:
    """The parameters of ``args.command``, refused if a ``REQUIRED`` one is unset."""
    params = vars(args).copy()
    command = params.pop("command")
    _require(params, *(name for name, _, default, _ in _COMMANDS[command][1]
                       if default is REQUIRED))
    return params


def _require(params: dict, *keys: str) -> None:
    missing = [k for k in keys if params[k] is None]
    if missing:
        raise _UsageError(f"missing required argument(s): {', '.join(map(_flag, missing))}")


def _fmt(val) -> str:
    """A header value or CSV cell; a float, numpy's too, prints as Python's repr."""
    return float.__repr__(val) if isinstance(val, float) else str(val)


# CSV rows per block of text written.
_ROWS = 65_536


def _csv(header: str, rows: Iterable[Iterable]) -> Iterator[str]:
    """The ``header`` line, then one line of :func:`_fmt` cells per row.

    The rows are formatted as they are consumed and written in blocks of at
    most ``_ROWS`` lines, so a long table is never held whole as text.
    """
    yield header + "\n"
    lines = (",".join(map(_fmt, row)) + "\n" for row in rows)
    while block := "".join(islice(lines, _ROWS)):
        yield block


def _json(obj) -> str:
    """``obj`` as one line of JSON; a NaN or infinity in it raises ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def _or_null(val: float) -> float | None:
    """``val``, or None (JSON null) where it is undefined (NaN)."""
    return None if math.isnan(val) else val


def _fit_report(fit: FitResult) -> dict:
    """The JSON object of a fit; an unavailable (all-NaN) covariance is null."""
    cov = fit.covariance
    return {
        "method": fit.method,
        "n": fit.n,
        "beta0": fit.beta0_hat,
        "beta1": fit.beta1_hat,
        "cov": None if np.isnan(cov).all() else cov.tolist(),
        "resid_var": fit.residual_variance,
    }


def _header(command: str, params: dict) -> str:
    echo = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()) if k != "output")
    return f"# transparent-dp v{__version__} command={command} {echo}\n"


def _emit(parts: Iterable[str], output: str | None) -> None:
    """Write the strings ``parts`` in order to ``output``, or to stdout.

    They are written as they are produced, never joined, so the envelope of
    ``simulate`` is never held whole as text.  An existing ``output`` is
    rewritten in place, not truncated on opening (which can stall for tens
    of milliseconds on a file system that discards freed blocks): a regular
    file is cut at the end of what was written, even when a part fails, so
    none of its old text is left; anything else, such as a pipe or
    ``/dev/null``, is written as an ``open(output, "w")`` would.
    """
    if output:
        fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            with open(fd, "w", closefd=False) as fh:
                fh.writelines(parts)
        finally:
            # closing fh flushed what was written; the old text past it goes
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            os.close(fd)
    else:
        sys.stdout.writelines(parts)
        sys.stdout.flush()


def _floats(text: str, count: int, what: str) -> tuple:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != count:
        raise _UsageError(f"{what} must be {count} comma-separated numbers")
    return tuple(float(p) for p in parts)


def _family(name: str) -> Family:
    return Family(name.replace("-", "_"))


def _model(params: dict) -> RegressionParams:
    return RegressionParams(**{name: params[name] for name, *_ in _MODEL})


def _sd(params: dict, name: str) -> float:
    """The noise sd ``params[name]``, refused where its square overflows."""
    val = params[name]
    if math.isinf(val * val):
        raise ValueError(f"the square of {_flag(name)}={val!r} overflows")
    return val


def _axis(params: dict, top: str) -> np.ndarray:
    """``--steps`` evenly spaced noise levels from 0 to ``params[top]``."""
    if params["steps"] < 1:
        raise _UsageError("--steps must be at least 1")
    return np.linspace(0.0, _sd(params, top), params["steps"])


def _envelope(params: dict, key: str = "privatized",
              keep: Collection[str] = ("confidential", "privatized")) -> tuple[dict, object]:
    """The ``--input`` envelope, holding only its ``keep`` members, and its
    ``key`` dataset."""
    env = load_envelope(params["input"], keep)
    if not isinstance(env, dict) or key not in env:
        raise _UsageError(f"envelope has no {key!r} dataset")
    kind = _listed(env[key].get("kind")) if isinstance(env[key], dict) else None
    if kind != key:
        raise ValueError(f"envelope section {key!r} holds a dataset of kind {kind!r}")
    return env, dataset_from_dict(env[key])


def _envelope_known(params: dict, env: dict) -> tuple[float, float]:
    """Resolve the known (sigma, lam) from flags, else the envelope."""
    known = {key: params[key] for key in ("sigma", "lam")}
    if None in known.values():
        conf = env.get("confidential", {})
        gen = conf.get("params", {}) if isinstance(conf, dict) else None
        if not isinstance(gen, dict):
            raise ValueError("envelope field confidential.params must be an object")
        known = {key: gen.get(key) if val is None else val for key, val in known.items()}
    if None in known.values():
        raise _UsageError("--sigma and --lam required when the envelope "
                          "carries no confidential params")
    for key, val in known.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"envelope field confidential.params.{key} must be a number")
    return float(known["sigma"]), float(known["lam"])


def _cmd_privatize(params: dict) -> Iterable[str]:
    raw = [p for p in params["values"].split(",") if p != ""]
    if not raw:
        raise _UsageError("--values must be a nonempty comma-separated list")
    values = np.asarray([float(p) for p in raw])
    spec = MechanismSpec(
        _family(params["family"]), params["sensitivity"], PrivacyBudget(params["epsilon"])
    )
    released = privatize_vector(values, spec, stream(params["seed"], "privatize"))
    return _csv("i,privatized", enumerate(released.tolist()))


def _cmd_simulate(params: dict) -> Iterable[str]:
    seed = params["seed"]
    conf = gen_confidential(
        params["n"], _model(params), stream(seed, "simulate", "confidential"), seed=seed
    )
    priv = privatize_dataset(
        conf,
        PrivacyBudget(params["epsilon_x"]),
        PrivacyBudget(params["epsilon_y"]),
        stream(seed, "simulate", "privatize"),
    )
    # Every check has run; the text is produced as it is written.
    if params["format"] == "csv":
        return _csv("i,x_tilde,y_tilde", zip(count(), priv.x_tilde, priv.y_tilde))
    return chain(json_parts({"confidential": conf, "privatized": priv}), ("\n",))


def _cmd_fit_naive(params: dict) -> str:
    key = params["on"]
    _, ds = _envelope(params, key, keep=(key,))
    if key == "privatized":
        fit = ols(ds.x_tilde, ds.y_tilde)
    else:
        fit = ols(ds.x, ds.y)
    return _json(_fit_report(fit))


def _cmd_fit_mcem(params: dict) -> str:
    env, data = _envelope(params)
    sigma, lam = _envelope_known(params, env)
    config = MCEMConfig(
        sigma=sigma, lam=lam,
        **{key: params[key] for key in ("k_samples", "max_iter", "alpha")},
    )
    res = run_mcem(data, config, params["seed"])
    if params["trace"]:
        rows = ((int(t), *rest) for t, *rest in res.trace.tolist())
        _emit(chain((_header("fit-mcem-trace", params),),
                    _csv("iter,beta0,beta1,ess", rows)), params["trace"])
    ell = res.ellipse
    out = {
        "fit": _fit_report(res.fit),
        "ellipse": None if ell is None else {
            "center": list(ell.center), "shape": ell.shape.tolist(), "level": ell.level,
        },
        "converged": res.converged,
        "fisher_pd": res.fisher_pd,
        "iterations": len(res.trace),
        "k_final": res.k_final,
        "mean_score": res.mean_score.tolist(),
        "mean_score_se": res.mean_score_se.tolist(),
    }
    return _json(out)


def _cmd_abc_posterior(params: dict) -> Iterable[str]:
    env, data = _envelope(params)
    sigma, lam = _envelope_known(params, env)
    if params["prior"] == "uniform-box":
        _require(params, "beta0_range", "beta1_range")
        prior = PriorSpec(
            "uniform_box",
            bounds=(
                _floats(params["beta0_range"], 2, "--beta0-range"),
                _floats(params["beta1_range"], 2, "--beta1-range"),
            ),
        )
    else:
        _require(params, "prior_means", "prior_sds")
        prior = PriorSpec(
            "independent_normal",
            means=_floats(params["prior_means"], 2, "--prior-means"),
            sds=_floats(params["prior_sds"], 2, "--prior-sds"),
        )
    res = abc_exact_posterior(
        data, prior, params["draws"], stream(params["seed"], "abc"), lam=lam, sigma=sigma
    )
    meta = f"# acceptance_rate={_fmt(res.acceptance_rate)} proposals={res.proposals}\n"
    rows = ((i, *draw) for i, draw in enumerate(res.samples.tolist()))
    return chain((meta,), _csv("draw,beta0,beta1", rows))


def _cmd_clt_limits(params: dict) -> Iterable[str]:
    sigma_u = _axis(params, "sigma_u_max")
    moments = sample_moments(reference_design(params["n"]))
    beta1, sigma_sq, sigma_v = params["beta1"], params["sigma_sq"], _sd(params, "sigma_v")
    rows = []
    for su in sigma_u.tolist():
        gamma = biasing_coefficient(moments, su**2)
        sigma_tilde = clt_variance(moments, beta1, sigma_sq, su**2, sigma_v**2)
        limits = distribution_limits(gamma, beta1, sigma_tilde, moments.n, params["alpha"])
        rows.append((su, sigma_v, gamma, sigma_tilde, gamma * beta1, *limits))
    return _csv("sigma_u,sigma_v,gamma,sigma_tilde,center,lower,upper", rows)


def _cmd_coverage_grid(params: dict) -> Iterable[str]:
    sigma_u, sigma_v = _axis(params, "sigma_u_max"), _axis(params, "sigma_v_max")
    rows = coverage_grid(
        reference_design(params["n"]),
        params["beta1"], params["sigma_sq"], sigma_u, sigma_v,
        alpha=params["alpha"], convention=params["convention"],
    )
    return _csv("sigma_u,sigma_v,convention,coverage", rows)


def _cmd_ellipse_study(params: dict) -> Iterable[str]:
    methods = tuple(m for m in params["methods"].split(",") if m)
    gen_params = _model(params)
    config = MCEMConfig(
        sigma=gen_params.sigma, lam=gen_params.lam,
        **{key: params[key] for key in ("k_samples", "max_iter", "alpha")},
    )
    rows, rates = ellipse_study(
        gen_params, params["n"],
        PrivacyBudget(params["epsilon_x"]), PrivacyBudget(params["epsilon_y"]),
        params["replicates"], params["seed"],
        config=config, methods=methods,
    )
    cells = ((r.replicate, r.method, r.beta0, r.beta1, int(r.covered), r.area) for r in rows)
    summary = "# coverage " + " ".join(f"{k}={_fmt(rates[k])}" for k in sorted(rates)) + "\n"
    return chain(_csv("replicate,method,beta0,beta1,covered,area", cells), (summary,))


def _cmd_dissimilarity(params: dict) -> str:
    table = county_table_from_csv(Path(params["input"]).read_text())
    if params["epsilon"] is None:
        return _json({"d": dissimilarity(table)})
    if params["seed"] is None:
        raise _UsageError("the privatized study requires --seed")
    study = privatized_dissimilarity_study(
        table,
        PrivacyBudget(params["epsilon"]),
        params["replicates"],
        stream(params["seed"], "dissimilarity"),
    )
    return _json({
        "mean": _or_null(study.mean),
        "sd": _or_null(study.sd),
        "quantiles": {str(q): _or_null(v) for q, v in study.quantiles.items()},
        "undefined_fraction": study.undefined_fraction,
        "out_of_range_fraction": study.out_of_range_fraction,
        "replicates": study.replicates,
        "epsilon": study.epsilon,
    })


def _cmd_verify_dp(params: dict) -> str:
    claimed = params["claimed_epsilon"]
    report = verify_dp_discrete(
        _family(params["family"]),
        PrivacyBudget(params["epsilon"]),
        claimed=None if claimed is None else PrivacyBudget(claimed),
        sensitivity=params["sensitivity"],
    )
    out = {
        "family": params["family"],
        "epsilon": params["epsilon"],
        "claimed_epsilon": report.epsilon_claimed,
        "max_log_ratio": report.max_log_ratio,
        "satisfied": report.satisfied,
    }
    return _json(out)


# Each runner returns its output after the header line: one string, or an
# iterable of strings written in order as it is consumed.
_RUNNERS = {
    "privatize": _cmd_privatize,
    "simulate": _cmd_simulate,
    "fit-naive": _cmd_fit_naive,
    "fit-mcem": _cmd_fit_mcem,
    "abc-posterior": _cmd_abc_posterior,
    "clt-limits": _cmd_clt_limits,
    "coverage-grid": _cmd_coverage_grid,
    "ellipse-study": _cmd_ellipse_study,
    "dissimilarity": _cmd_dissimilarity,
    "verify-dp": _cmd_verify_dp,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and then reused."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        params = _params(args)
        body = _RUNNERS[args.command](params)
        body = (body,) if isinstance(body, str) else body
        _emit(chain((_header(args.command, params),), body), params.get("output"))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone, as in `tdp ... | head`.  Python
        # flushes stdout again at exit, so it is pointed at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TransparentDpError, ValueError, RuntimeError, OSError, OverflowError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; the line names the builtin.
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
