"""Command-line surface wiring the library into seeded experiments.

Every stochastic subcommand requires an explicit ``--seed``; rerunning any
command with identical arguments produces byte-identical output.  Outputs
are CSV or JSON prefixed with a ``#`` comment line echoing the version,
command, and full parameter set.  A JSON config file may supply any
parameter via ``--config``; explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    REFERENCE_DESIGN_SEED,
    biasing_coefficient,
    clt_variance,
    coverage_grid,
    distribution_limits,
    grid_to_csv,
    reference_design,
    sample_moments,
)
from .bayes_abc import PriorSpec, abc_exact_posterior, samples_to_csv
from .errors import TransparentDpError
from .mcem import MCEMConfig, ellipse_study, run_mcem, study_to_csv, trace_to_csv
from .mechanisms import (
    Family,
    MechanismSpec,
    PrivacyBudget,
    privatize_vector,
    verify_dp_discrete,
)
from .metrics import county_table_from_csv, dissimilarity, privatized_dissimilarity_study
from .naive_fit import ols
from .rng import stream
from .simulate import (
    RegressionParams,
    dataset_from_dict,
    dataset_to_csv,
    dataset_to_dict,
    gen_confidential,
    privatize_dataset,
)

# The commands use the dict forms above; tdpbench's tracer still wraps the
# JSON forms at this module's namespace.
from .simulate import dataset_from_json, dataset_to_json  # noqa: F401

__all__ = ["main", "build_parser"]


# Per-command defaults; None marks a required parameter.  The config file
# and explicit flags are merged over these in that order.
_DEFAULTS: dict[str, dict] = {
    "privatize": {
        "values": None,
        "family": "laplace",
        "epsilon": None,
        "sensitivity": 1.0,
        "seed": None,
        "output": None,
    },
    "simulate": {
        "n": None,
        "beta0": -5.0,
        "beta1": 4.0,
        "sigma": 5.0,
        "lam": 10.0,
        "epsilon_x": None,
        "epsilon_y": None,
        "seed": None,
        "format": "json",
        "output": None,
    },
    "fit-naive": {
        "input": None,
        "on": "privatized",
        "output": None,
    },
    "fit-mcem": {
        "input": None,
        "seed": None,
        "k_samples": 5000,
        "max_iter": 40,
        "tol": 1e-3,
        "ess_floor": 0.01,
        "alpha": 0.05,
        "sigma": None,
        "lam": None,
        "trace": None,
        "output": None,
    },
    "abc-posterior": {
        "input": None,
        "draws": 10000,
        "seed": None,
        "prior": "uniform-box",
        "beta0_range": None,
        "beta1_range": None,
        "prior_means": None,
        "prior_sds": None,
        "sigma": None,
        "lam": None,
        "batch_size": 20000,
        "output": None,
    },
    "clt-limits": {
        "n": 500,
        "beta1": 0.5,
        "sigma_sq": 1.0,
        "sigma_u_max": 2.0,
        "sigma_v": 0.0,
        "steps": 9,
        "alpha": 0.05,
        "design_seed": REFERENCE_DESIGN_SEED,
        "output": None,
    },
    "coverage-grid": {
        "n": 500,
        "beta1": 0.5,
        "sigma_sq": 1.0,
        "sigma_u_max": 2.0,
        "sigma_v_max": 2.0,
        "steps": 5,
        "alpha": 0.05,
        "convention": "both",
        "design_seed": REFERENCE_DESIGN_SEED,
        "output": None,
    },
    "ellipse-study": {
        "epsilon_x": None,
        "epsilon_y": None,
        "n": 10,
        "replicates": 100,
        "seed": None,
        "beta0": -5.0,
        "beta1": 4.0,
        "sigma": 5.0,
        "lam": 10.0,
        "k_samples": 5000,
        "max_iter": 40,
        "alpha": 0.05,
        "methods": "naive,mcem",
        "output": None,
    },
    "dissimilarity": {
        "input": None,
        "epsilon": None,
        "replicates": 10000,
        "seed": None,
        "output": None,
    },
    "verify-dp": {
        "family": None,
        "epsilon": None,
        "claimed_epsilon": None,
        "support_bound": 100,
        "output": None,
    },
}

_STOCHASTIC = {
    "privatize", "simulate", "fit-mcem", "abc-posterior", "ellipse-study",
}


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdp",
        description="Transparent privacy mechanisms and inference on privatized data.",
    )
    parser.add_argument("--version", action="version", version=f"tdp {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of parameters; flags override")
        p.add_argument("--output", help="output file path (default: stdout)")
        return p

    p = add("privatize", "release a vector through a privacy mechanism")
    p.add_argument("--values", help="comma-separated values to privatize")
    p.add_argument("--family", choices=["laplace", "double-geometric", "randomized-response"],
                   help="mechanism family (default laplace)")
    p.add_argument("--epsilon", type=float, help="privacy-loss budget")
    p.add_argument("--sensitivity", type=float, help="query sensitivity (default 1)")
    p.add_argument("--seed", type=int, help="master seed")

    p = add("simulate", "generate a confidential sample and its privatized release")
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--beta0", type=float, help="intercept (default -5)")
    p.add_argument("--beta1", type=float, help="slope (default 4)")
    p.add_argument("--sigma", type=float, help="error sd (default 5)")
    p.add_argument("--lam", type=float, help="Poisson mean of x (default 10)")
    p.add_argument("--epsilon-x", type=float, help="budget for the x coordinate")
    p.add_argument("--epsilon-y", type=float, help="budget for the y coordinate")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--format", choices=["json", "csv"],
                   help="json envelope (both datasets) or csv (release only)")

    p = add("fit-naive", "ordinary least squares on a simulated envelope")
    p.add_argument("--input", help="JSON envelope from the simulate command")
    p.add_argument("--on", choices=["privatized", "confidential"],
                   help="which dataset to fit (default privatized)")

    p = add("fit-mcem", "EM likelihood correction on a privatized release")
    p.add_argument("--input", help="JSON envelope from the simulate command")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--k-samples", type=int, help="importance draws per iteration")
    p.add_argument("--max-iter", type=int, help="iteration cap")
    p.add_argument("--tol", type=float, help="convergence threshold")
    p.add_argument("--ess-floor", type=float, help="min ESS fraction before doubling")
    p.add_argument("--alpha", type=float, help="ellipse level (default 0.05)")
    p.add_argument("--sigma", type=float, help="known error sd (default: from envelope)")
    p.add_argument("--lam", type=float, help="known Poisson mean (default: from envelope)")
    p.add_argument("--trace", help="optional path for the iteration trace CSV")

    p = add("abc-posterior", "exact rejection posterior on a privatized release")
    p.add_argument("--input", help="JSON envelope from the simulate command")
    p.add_argument("--draws", type=int, help="accepted draws to collect")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--prior", choices=["uniform-box", "independent-normal"],
                   help="prior family (default uniform-box)")
    p.add_argument("--beta0-range", help="lo,hi bounds for beta0 (uniform-box)")
    p.add_argument("--beta1-range", help="lo,hi bounds for beta1 (uniform-box)")
    p.add_argument("--prior-means", help="m0,m1 prior means (independent-normal)")
    p.add_argument("--prior-sds", help="s0,s1 prior sds (independent-normal)")
    p.add_argument("--sigma", type=float, help="known error sd (default: from envelope)")
    p.add_argument("--lam", type=float, help="known Poisson mean (default: from envelope)")
    p.add_argument("--batch-size", type=int, help="proposals per batch")

    p = add("clt-limits", "normal-limit bands for the naive slope vs x-noise")
    p.add_argument("--n", type=int, help="design size (default 500)")
    p.add_argument("--beta1", type=float, help="true slope (default 0.5)")
    p.add_argument("--sigma-sq", type=float, help="error variance (default 1)")
    p.add_argument("--sigma-u-max", type=float, help="max x-noise sd (default 2)")
    p.add_argument("--sigma-v", type=float, help="fixed y-noise sd (default 0)")
    p.add_argument("--steps", type=int, help="grid points along sigma_u")
    p.add_argument("--alpha", type=float, help="band level (default 0.05)")
    p.add_argument("--design-seed", type=int, help="seed of the stored design")

    p = add("coverage-grid", "interval coverage over a noise-level grid")
    p.add_argument("--n", type=int, help="design size (default 500)")
    p.add_argument("--beta1", type=float, help="true slope (default 0.5)")
    p.add_argument("--sigma-sq", type=float, help="error variance (default 1)")
    p.add_argument("--sigma-u-max", type=float, help="max x-noise sd (default 2)")
    p.add_argument("--sigma-v-max", type=float, help="max y-noise sd (default 2)")
    p.add_argument("--steps", type=int, help="grid points per axis (default 5)")
    p.add_argument("--alpha", type=float, help="interval level (default 0.05)")
    p.add_argument("--convention", choices=["privacy_aware_se", "classical_se", "both"],
                   help="standard-error convention (default both)")
    p.add_argument("--design-seed", type=int, help="seed of the stored design")

    p = add("ellipse-study", "replicated naive and EM confidence ellipses")
    p.add_argument("--epsilon-x", type=float, help="budget for the x coordinate")
    p.add_argument("--epsilon-y", type=float, help="budget for the y coordinate")
    p.add_argument("--n", type=int, help="confidential sample size (default 10)")
    p.add_argument("--replicates", type=int, help="privatization replicates (default 100)")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--beta0", type=float, help="true intercept (default -5)")
    p.add_argument("--beta1", type=float, help="true slope (default 4)")
    p.add_argument("--sigma", type=float, help="error sd (default 5)")
    p.add_argument("--lam", type=float, help="Poisson mean of x (default 10)")
    p.add_argument("--k-samples", type=int, help="EM importance draws per iteration")
    p.add_argument("--max-iter", type=int, help="EM iteration cap")
    p.add_argument("--alpha", type=float, help="ellipse level (default 0.05)")
    p.add_argument("--methods", help="comma list from {naive,mcem} (default both)")

    p = add("dissimilarity", "dissimilarity index of a tract table")
    p.add_argument("--input", help="CSV file with header tract,w,b")
    p.add_argument("--epsilon", type=float,
                   help="if given, run the privatized replication study")
    p.add_argument("--replicates", type=int, help="study replicates (default 10000)")
    p.add_argument("--seed", type=int, help="master seed (study only)")

    p = add("verify-dp", "brute-force the privacy bound of a discrete mechanism")
    p.add_argument("--family", choices=["double-geometric", "randomized-response"],
                   help="discrete mechanism family")
    p.add_argument("--epsilon", type=float, help="budget the mechanism runs at")
    p.add_argument("--claimed-epsilon", type=float,
                   help="budget claimed for the bound check (default: epsilon)")
    p.add_argument("--support-bound", type=int, help="output scan range (default 100)")

    return parser


def _merge(args: argparse.Namespace, command: str) -> dict:
    params = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise _UsageError(
                f"--config must hold a JSON object, got {type(loaded).__name__}"
            )
        for key, val in loaded.items():
            if key not in params:
                raise _UsageError(f"unknown config key {key!r} for {command}")
            params[key] = val
    for key in params:
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if command in _STOCHASTIC and params.get("seed") is None:
        raise _UsageError(f"{command} requires --seed")
    return params


def _require(params: dict, *keys: str) -> None:
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise _UsageError(f"missing required argument(s): {flags}")


def _fmt(val) -> str:
    return repr(val) if isinstance(val, float) else str(val)


def _header(command: str, params: dict) -> str:
    echo = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()) if k != "output")
    return f"# transparent-dp v{__version__} command={command} {echo}\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    text = Path(path).read_text()
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    return json.loads(body)


def _floats(text: str, count: int, what: str) -> tuple:
    parts = [p for p in str(text).split(",") if p != ""]
    if len(parts) != count:
        raise _UsageError(f"{what} must be {count} comma-separated numbers")
    return tuple(float(p) for p in parts)


def _family(name: str) -> Family:
    return Family(str(name).replace("-", "_"))


def _envelope_known(params: dict, env: dict) -> tuple[float, float]:
    """Resolve the known (sigma, lam) from flags, else the envelope."""
    sigma, lam = params.get("sigma"), params.get("lam")
    gen = env.get("confidential", {}).get("params", {})
    if sigma is None:
        sigma = gen.get("sigma")
    if lam is None:
        lam = gen.get("lam")
    if sigma is None or lam is None:
        raise _UsageError("--sigma and --lam required when the envelope "
                          "carries no confidential params")
    return float(sigma), float(lam)


def _cmd_privatize(params: dict) -> str:
    _require(params, "values", "epsilon")
    raw = [p for p in str(params["values"]).split(",") if p != ""]
    if not raw:
        raise _UsageError("--values must be a nonempty comma-separated list")
    values = np.asarray([float(p) for p in raw])
    spec = MechanismSpec(
        _family(params["family"]),
        float(params["sensitivity"]),
        PrivacyBudget(float(params["epsilon"])),
    )
    released, _ = privatize_vector(values, spec, stream(params["seed"], "privatize"))
    lines = ["i,privatized"]
    for i, val in enumerate(released):
        lines.append(f"{i},{_fmt(float(val)) if spec.family is Family.LAPLACE else int(val)}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(params: dict) -> str:
    _require(params, "n", "epsilon_x", "epsilon_y")
    seed = int(params["seed"])
    gen_params = RegressionParams(
        beta0=float(params["beta0"]), beta1=float(params["beta1"]),
        sigma=float(params["sigma"]), lam=float(params["lam"]),
    )
    conf = gen_confidential(
        int(params["n"]), gen_params, stream(seed, "simulate", "confidential"), seed=seed
    )
    priv = privatize_dataset(
        conf,
        PrivacyBudget(float(params["epsilon_x"])),
        PrivacyBudget(float(params["epsilon_y"])),
        stream(seed, "simulate", "privatize"),
    )
    if params["format"] == "csv":
        return dataset_to_csv(priv)
    envelope = {"confidential": dataset_to_dict(conf), "privatized": dataset_to_dict(priv)}
    return json.dumps(envelope, sort_keys=True) + "\n"


def _cmd_fit_naive(params: dict) -> str:
    _require(params, "input")
    env = _load_json(params["input"])
    key = params["on"]
    if key not in env:
        raise _UsageError(f"envelope has no {key!r} dataset")
    ds = dataset_from_dict(env[key])
    if key == "privatized":
        fit = ols(ds.x_tilde, ds.y_tilde)
    else:
        fit = ols(ds.x, ds.y)
    return fit.to_json() + "\n"


def _cmd_fit_mcem(params: dict) -> str:
    _require(params, "input")
    env = _load_json(params["input"])
    if "privatized" not in env:
        raise _UsageError("envelope has no privatized dataset")
    data = dataset_from_dict(env["privatized"])
    sigma, lam = _envelope_known(params, env)
    config = MCEMConfig(
        k_samples=int(params["k_samples"]),
        max_iter=int(params["max_iter"]),
        tol=float(params["tol"]),
        ess_floor=float(params["ess_floor"]),
        alpha=float(params["alpha"]),
        sigma=sigma,
        lam=lam,
    )
    res = run_mcem(data, config, int(params["seed"]))
    if params.get("trace"):
        Path(params["trace"]).write_text(
            _header("fit-mcem-trace", params) + trace_to_csv(res.trace)
        )
    out = {
        "fit": json.loads(res.fit.to_json()),
        "ellipse": json.loads(res.ellipse.to_json()) if res.ellipse else None,
        "converged": res.converged,
        "fisher_pd": res.fisher_pd,
        "iterations": len(res.trace),
        "k_final": res.k_final,
        "mean_score": res.mean_score.tolist(),
    }
    return json.dumps(out, sort_keys=True) + "\n"


def _cmd_abc_posterior(params: dict) -> str:
    _require(params, "input", "draws")
    env = _load_json(params["input"])
    if "privatized" not in env:
        raise _UsageError("envelope has no privatized dataset")
    data = dataset_from_dict(env["privatized"])
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
        data, prior, int(params["draws"]), stream(int(params["seed"]), "abc"),
        lam=lam, sigma=sigma, batch_size=int(params["batch_size"]),
    )
    meta = f"# acceptance_rate={res.acceptance_rate!r} proposals={res.proposals}\n"
    return meta + samples_to_csv(res.samples)


def _cmd_clt_limits(params: dict) -> str:
    x = reference_design(int(params["n"]), int(params["design_seed"]))
    moments = sample_moments(x)
    beta1 = float(params["beta1"])
    sigma_sq = float(params["sigma_sq"])
    sigma_v = float(params["sigma_v"])
    alpha = float(params["alpha"])
    lines = ["sigma_u,sigma_v,gamma,sigma_tilde,center,lower,upper"]
    for su in np.linspace(0.0, float(params["sigma_u_max"]), int(params["steps"])):
        su = float(su)
        gamma = float(biasing_coefficient(moments, su**2))
        sigma_tilde = float(clt_variance(moments, beta1, sigma_sq, su**2, sigma_v**2))
        lower, upper = distribution_limits(gamma, beta1, sigma_tilde, moments.n, alpha)
        lines.append(
            f"{su!r},{sigma_v!r},{gamma!r},{sigma_tilde!r},"
            f"{gamma * beta1!r},{float(lower)!r},{float(upper)!r}"
        )
    return "\n".join(lines) + "\n"


def _cmd_coverage_grid(params: dict) -> str:
    x = reference_design(int(params["n"]), int(params["design_seed"]))
    steps = int(params["steps"])
    rows = coverage_grid(
        x,
        float(params["beta1"]),
        float(params["sigma_sq"]),
        np.linspace(0.0, float(params["sigma_u_max"]), steps),
        np.linspace(0.0, float(params["sigma_v_max"]), steps),
        alpha=float(params["alpha"]),
        convention=params["convention"],
    )
    return grid_to_csv(rows)


def _cmd_ellipse_study(params: dict) -> str:
    _require(params, "epsilon_x", "epsilon_y")
    methods = tuple(m for m in str(params["methods"]).split(",") if m)
    gen_params = RegressionParams(
        beta0=float(params["beta0"]), beta1=float(params["beta1"]),
        sigma=float(params["sigma"]), lam=float(params["lam"]),
    )
    config = MCEMConfig(
        k_samples=int(params["k_samples"]),
        max_iter=int(params["max_iter"]),
        alpha=float(params["alpha"]),
        sigma=gen_params.sigma,
        lam=gen_params.lam,
    )
    rows, rates = ellipse_study(
        gen_params,
        int(params["n"]),
        PrivacyBudget(float(params["epsilon_x"])),
        PrivacyBudget(float(params["epsilon_y"])),
        int(params["replicates"]),
        int(params["seed"]),
        config=config,
        methods=methods,
        alpha=float(params["alpha"]),
    )
    summary = (
        "# coverage " + " ".join(f"{k}={rates[k]!r}" for k in sorted(rates)) + "\n"
    )
    return study_to_csv(rows) + summary


def _cmd_dissimilarity(params: dict) -> str:
    _require(params, "input")
    table = county_table_from_csv(Path(params["input"]).read_text())
    if params.get("epsilon") is None:
        return json.dumps({"d": dissimilarity(table)}, sort_keys=True) + "\n"
    if params.get("seed") is None:
        raise _UsageError("the privatized study requires --seed")
    study = privatized_dissimilarity_study(
        table,
        PrivacyBudget(float(params["epsilon"])),
        int(params["replicates"]),
        stream(int(params["seed"]), "dissimilarity"),
    )
    return study.to_json() + "\n"


def _cmd_verify_dp(params: dict) -> str:
    _require(params, "family", "epsilon")
    claimed = params.get("claimed_epsilon")
    report = verify_dp_discrete(
        _family(params["family"]),
        PrivacyBudget(float(params["epsilon"])),
        support_bound=int(params["support_bound"]),
        claimed=None if claimed is None else PrivacyBudget(float(claimed)),
    )
    out = {
        "family": str(params["family"]),
        "epsilon": float(params["epsilon"]),
        "claimed_epsilon": report.epsilon_claimed,
        "max_log_ratio": report.max_log_ratio,
        "satisfied": report.satisfied,
    }
    return json.dumps(out, sort_keys=True) + "\n"


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        params = _merge(args, args.command)
        body = _RUNNERS[args.command](params)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TransparentDpError, ValueError, RuntimeError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(_header(args.command, params) + body, params.get("output"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
