"""The three workloads: inputs, one operation, and the checks on its outputs.

Each workload builds its inputs from the run's seed through the package's
own functions (``setup``), runs one operation at a time (``op``), keeps what
its checks need (``record``) and, after the timed phase, checks every
recorded output against the reference computations in ``reference.py`` or
against properties the method must have (``check``).  Operations are taken
in whole rounds of ``round`` operations, every round doing the same work.
The checks import ``reference`` (and with it scipy) only after the timed
phase, so that it counts in neither the set-up time nor the peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

from transparent_dp import bayes_abc, cli, mcem, mechanisms, naive_fit, rng, simulate

# A fit counts as a descent when its exact log-likelihood is below that of
# its naive start by more than this many nats (Monte Carlo tolerance).
DESCENT_TOL = 0.05


class _Pool:
    """Operations over a fixed pool of ``round`` inputs, one input each.

    Every run does the same work in each whole round; the run's seed only
    rotates the order in which the pool is walked.  ``run(k)`` returns
    ``(k, ...)``; the warm-up runs pool item 0.
    """

    round = 8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.results = []

    def warm_up(self):
        self.run(0)

    def op(self, i):
        return self.run((i + self.seed) % self.round)

    def record(self, out):
        self.results.append(out)

    def first_round(self, key, problems):
        """Each pool item's first result; its later results must repeat it
        exactly, as compared by ``key(result)``."""
        first = {}
        for out in self.results:
            ref = first.setdefault(out[0], out)
            if key(out) != key(ref):
                problems.append(f"pool item {out[0]} differs between rounds")
        return first


class McemFit(_Pool):
    """``run_mcem`` plus its naive ``ols`` start on n=10 releases of the
    ellipse-study design (study seed 6, replicates 0-3, eps 0.25 and 1 per
    coordinate, default ``MCEMConfig``, each fit on its ellipse-study seed).
    """

    STUDY_SEED = 6
    EPS = (0.25, 1.0)
    REPLICATES = 4
    round = len(EPS) * REPLICATES

    def setup(self):
        s = self.STUDY_SEED
        params = simulate.RegressionParams(beta0=-5.0, beta1=4.0, sigma=5.0, lam=10.0)
        conf = simulate.gen_confidential(
            10, params, rng.stream(s, "ellipse-study", "confidential"), seed=s
        )
        self.pool = []
        for eps in self.EPS:
            budget = mechanisms.PrivacyBudget(eps)
            for r in range(self.REPLICATES):
                priv = simulate.privatize_dataset(
                    conf, budget, budget, rng.stream(s, "ellipse-study", "privatize", r)
                )
                self.pool.append((eps, priv, rng.derive_seed(s, "ellipse-study", "mcem", r)))
        self.config = mcem.MCEMConfig()

    def run(self, k):
        _, priv, fit_seed = self.pool[k]
        start = naive_fit.ols(priv.x_tilde, priv.y_tilde)
        return k, start, mcem.run_mcem(priv, self.config, fit_seed)

    def check(self):
        import reference

        problems = []
        reference.self_test()

        def key(out):
            _, start, res = out
            return (start.beta0_hat, start.beta1_hat, res.fit.beta0_hat,
                    res.fit.beta1_hat, res.converged)

        first = self.first_round(key, problems)
        failing, gaps = set(), []
        for k, start, res in first.values():
            est = (res.fit.beta0_hat, res.fit.beta1_hat)
            naive = (start.beta0_hat, start.beta1_hat)
            if not all(map(math.isfinite, est + naive)):
                problems.append(f"pool fit {k} has a non-finite estimate {est}")
                failing.add(k)
                continue
            if res.ellipse is not None and np.linalg.eigvalsh(res.ellipse.shape).min() <= 0:
                problems.append(f"pool fit {k} gives an ellipse that is not positive definite")
            eps, priv, _ = self.pool[k]
            rel = reference.Release(priv.x_tilde, priv.y_tilde, 1.0 / eps, 1.0 / eps,
                                    self.config.sigma, self.config.lam)
            ll_est = float(rel.loglik(*est))
            _, ll_max = rel.argmax([naive, est])
            gaps.append(ll_max - ll_est)
            if not res.converged or ll_est < float(rel.loglik(*naive)) - DESCENT_TOL:
                failing.add(k)

        failed = sum(out[0] in failing for out in self.results)
        layer = {
            "mcem.converged_fits": sum(res.converged for _, _, res in first.values()),
            "mcem.fisher_pd_fits": sum(res.fisher_pd for _, _, res in first.values()),
            "mcem.loglik_gap": statistics.median(gaps) if gaps else 0.0,
        }
        return problems, failed, layer


# The n=4 release of the acceptance suite: Laplace at eps 0.5 on both
# coordinates, known sigma 2 and lam 5, flat prior on ABC_PRIOR_BOX.
ABC_X_TILDE = (8.747, 7.655, 3.661, 4.664)
ABC_Y_TILDE = (12.485, 19.217, 7.683, 11.223)
ABC_EPS, ABC_SIGMA, ABC_LAM = 0.5, 2.0, 5.0
ABC_PRIOR_BOX = ((0.5, 6.5), (1.05, 2.25))


class AbcPosterior(_Pool):
    """``abc_exact_posterior`` on the acceptance suite's n=4 release: each
    operation collects DRAWS accepted draws on its own fixed stream."""

    DRAWS = 100

    def setup(self):
        spec = mechanisms.MechanismSpec(
            mechanisms.Family.LAPLACE, 1.0, mechanisms.PrivacyBudget(ABC_EPS)
        )
        self.data = simulate.PrivatizedDataset(
            x_tilde=np.array(ABC_X_TILDE), y_tilde=np.array(ABC_Y_TILDE),
            spec_x=spec, spec_y=spec, parent_seed=0,
        )
        self.prior = bayes_abc.PriorSpec("uniform_box", bounds=ABC_PRIOR_BOX)

    def run(self, k):
        res = bayes_abc.abc_exact_posterior(
            self.data, self.prior, self.DRAWS, rng.stream(0, "abc-op", k),
            lam=ABC_LAM, sigma=ABC_SIGMA,
        )
        return k, res.samples, round(res.acceptance_rate * res.proposals), res.proposals

    def check(self):
        import reference

        problems = []
        reference.self_test()
        first = self.first_round(lambda out: (out[1].tobytes(),) + out[2:], problems)
        kept = [out[1] for out in first.values()]
        for samples in kept:
            if samples.shape != (self.DRAWS, 2):
                problems.append(f"an operation returned {samples.shape} draws")
        pooled = np.concatenate(kept) if kept else np.empty((0, 2))
        (lo0, hi0), (lo1, hi1) = ABC_PRIOR_BOX
        inside = (
            (pooled[:, 0] >= lo0) & (pooled[:, 0] <= hi0)
            & (pooled[:, 1] >= lo1) & (pooled[:, 1] <= hi1)
        )
        if not inside.all():
            problems.append(f"{int((~inside).sum())} draws outside the prior box")
        b = 1.0 / ABC_EPS
        rel = reference.Release(ABC_X_TILDE, ABC_Y_TILDE, b, b, ABC_SIGMA, ABC_LAM)
        mean_lik, mean = rel.posterior(ABC_PRIOR_BOX)

        # A proposal is accepted with probability (2b)^2n times its likelihood.
        rate = (2.0 * b) ** (2 * len(ABC_X_TILDE)) * mean_lik
        accepted = sum(out[2] for out in first.values())
        proposals = sum(out[3] for out in first.values())
        if abs(accepted - rate * proposals) > 4 * math.sqrt(rate * proposals):
            problems.append(
                f"{accepted} of {proposals} proposals accepted, expected "
                f"{rate * proposals:.1f} from the reference likelihood"
            )
        se = pooled.std(axis=0, ddof=1) / math.sqrt(len(pooled))
        for j in range(2):
            if not abs(pooled[:, j].mean() - mean[j]) <= 4 * se[j]:
                problems.append(
                    f"pooled posterior mean of beta{j} {pooled[:, j].mean():.4f} is more "
                    f"than 4 MC SE ({se[j]:.4f}) from the quadrature mean {mean[j]:.4f}"
                )
        return problems, 0, NO_FITS


class CliRelease:
    """One ``tdp`` session through ``cli.main`` writing ``--output`` files."""

    round = 1
    N = 100_000
    EPS_XY = 1.0
    EPS_COUNTS = 0.5
    TRACTS = 300
    COUNTS = 4000

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.digests = []

    def _path(self, name):
        return str(self.dir / name)

    def setup(self):
        gen = rng.stream(self.seed, "cli-inputs")
        self.w = gen.integers(20, 2000, self.TRACTS)
        self.b = gen.integers(20, 2000, self.TRACTS)
        Path(self._path("tracts.csv")).write_text(
            "tract,w,b\n"
            + "".join(f"{i},{w},{b}\n" for i, (w, b) in enumerate(zip(self.w, self.b)))
        )
        self.counts = gen.integers(0, 500, self.COUNTS)
        seed, eps, p = str(self.seed), str(self.EPS_COUNTS), self._path
        self.session = [
            ["simulate", "--n", str(self.N), "--epsilon-x", str(self.EPS_XY),
             "--epsilon-y", str(self.EPS_XY), "--seed", seed, "--output", p("env.json")],
            ["fit-naive", "--input", p("env.json"), "--output", p("naive_priv.json")],
            ["fit-naive", "--input", p("env.json"), "--on", "confidential",
             "--output", p("naive_conf.json")],
            ["privatize", "--values", ",".join(map(str, self.counts)), "--family",
             "double-geometric", "--epsilon", eps, "--seed", seed, "--output", p("counts.csv")],
            ["dissimilarity", "--input", p("tracts.csv"), "--output", p("d_exact.json")],
            ["dissimilarity", "--input", p("tracts.csv"), "--epsilon", eps,
             "--replicates", "10000", "--seed", seed, "--output", p("d_study.json")],
            ["coverage-grid", "--output", p("coverage.csv")],
            ["clt-limits", "--output", p("limits.csv")],
            ["verify-dp", "--family", "double-geometric", "--epsilon", eps,
             "--output", p("verify.json")],
        ]
        self.outputs = [argv[-1] for argv in self.session]

    def op(self, i):
        for argv in self.session:
            if cli.main(argv) != 0:
                raise RuntimeError(f"tdp {argv[0]} exited nonzero")

    def warm_up(self):
        self.op(-1)

    def record(self, out):
        self.digests.append(
            [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in self.outputs]
        )

    def _body(self, name):
        text = Path(self._path(name)).read_text()
        return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))

    def _csv(self, name):
        lines = self._body(name).splitlines()
        return [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]

    def check(self):
        problems = []
        for i, d in enumerate(self.digests):
            if d != self.digests[0]:
                changed = [n for n, a, b in zip(self.outputs, d, self.digests[0]) if a != b]
                problems.append(f"session {i} output differs from the first: {changed}")

        env = json.loads(self._body("env.json"))
        conf, priv = env["confidential"], env["privatized"]
        x, y = np.asarray(conf["x"], float), np.asarray(conf["y"], float)
        xt, yt = np.asarray(priv["x_tilde"]), np.asarray(priv["y_tilde"])
        n = x.size
        if n != self.N or xt.size != self.N:
            problems.append(f"simulate wrote {n} and {xt.size} records, not {self.N}")
        for name, (xs, ys) in (("naive_priv.json", (xt, yt)), ("naive_conf.json", (x, y))):
            fit = json.loads(self._body(name))
            coef = np.linalg.lstsq(np.column_stack([np.ones(xs.size), xs]), ys, rcond=None)[0]
            if not np.allclose([fit["beta0"], fit["beta1"]], coef, rtol=1e-9, atol=1e-9):
                problems.append(f"{name}: ({fit['beta0']}, {fit['beta1']}) != lstsq {coef}")

        # Naive slope against its attenuation limit; HC0 sandwich standard error.
        fit = json.loads(self._body("naive_priv.json"))
        b_x = 1.0 / self.EPS_XY
        v = x.var()
        limit = conf["params"]["beta1"] * v / (v + 2.0 * b_x**2)
        xc = xt - xt.mean()
        resid = yt - fit["beta0"] - fit["beta1"] * xt
        se = math.sqrt(float((xc**2 * resid**2).sum())) / float((xc**2).sum())
        if abs(fit["beta1"] - limit) > 5 * se:
            problems.append(f"naive slope {fit['beta1']:.4f} is not near its limit {limit:.4f}")

        # Laplace noise on x: mean square against its law 2 b^2 (kurtosis 6).
        u2 = (xt - x) ** 2
        if abs(u2.mean() - 2 * b_x**2) > 5 * math.sqrt(20 * b_x**4 / n):
            problems.append(f"Laplace noise variance {u2.mean():.4f} vs {2 * b_x**2}")

        # Double geometric noise: mean square against its law.
        import reference

        noise = np.asarray([int(r["privatized"]) for r in self._csv("counts.csv")]) - self.counts
        var, m4 = reference.double_geometric_moments(self.EPS_COUNTS)
        if abs(float((noise**2).mean()) - var) > 5 * math.sqrt((m4 - var**2) / noise.size):
            problems.append(f"double geometric noise variance {(noise**2).mean():.3f} vs {var:.3f}")

        d = json.loads(self._body("d_exact.json"))["d"]
        d_ref = 0.5 * float(np.abs(self.w / self.w.sum() - self.b / self.b.sum()).sum())
        if not math.isclose(d, d_ref, rel_tol=1e-12):
            problems.append(f"dissimilarity {d} != {d_ref}")
        study = json.loads(self._body("d_study.json"))
        qs = [study["quantiles"][k] for k in sorted(study["quantiles"], key=float)]
        if study["replicates"] != 10000 or qs != sorted(qs) or study["undefined_fraction"] != 0:
            problems.append(f"dissimilarity study summary is inconsistent: {study}")

        verify = json.loads(self._body("verify.json"))
        if verify["max_log_ratio"] != self.EPS_COUNTS or not verify["satisfied"]:
            problems.append(f"verify-dp reports {verify}")

        zero = [r for r in self._csv("coverage.csv")
                if float(r["sigma_u"]) == 0 and float(r["sigma_v"]) == 0]
        if len(zero) != 2 or any(abs(float(r["coverage"]) - 0.95) > 1e-9 for r in zero):
            problems.append(f"zero-noise coverage cells {zero} are not 0.95")

        gammas = [float(r["gamma"]) for r in self._csv("limits.csv")]
        if gammas[0] != 1.0 or any(a <= b for a, b in zip(gammas, gammas[1:])):
            problems.append(f"clt-limits gamma column {gammas} is not 1 then decreasing")
        return problems, 0, NO_FITS


# The check-derived MCEM metrics of a workload that makes no fits.
NO_FITS = {"mcem.converged_fits": 0, "mcem.fisher_pd_fits": 0, "mcem.loglik_gap": 0.0}

WORKLOADS = {
    "mcem_fit": McemFit,
    "abc_posterior": AbcPosterior,
    "cli_release": CliRelease,
}
