"""Maximum likelihood on privatized regression data via Monte Carlo EM.

The privatized pairs are the data; the confidential pairs are missing.
Each E-step draws complete datasets from the current-parameter generative
law and weights them by the exact mechanism density of the observed
release given the draw (importance sampling against the missing data law).
The M-step is weighted least squares on per-dataset summary means.  A
Louis-type three-term estimator gives the observed Fisher information at
the final estimate, from which large-sample confidence ellipses follow.

The idiosyncratic scale sigma and the regressor mean lam are treated as
known constants throughout; only the intercept and slope are estimated.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDesignError, DegenerateWeightsError, NonPDInformationError
from .mechanisms import PrivacyBudget
from .naive_fit import FitResult, ols
from .normal import chi2_2_quantile
from .rng import derive_seed, stream
from .simulate import (
    PrivatizedDataset,
    RegressionParams,
    gen_confidential,
    privatize_dataset,
)

__all__ = [
    "MCEMConfig",
    "MCEMState",
    "Ellipse",
    "TraceRow",
    "MCEMResult",
    "EllipseStudyRow",
    "log_importance_weights",
    "e_step",
    "m_step",
    "observed_fisher",
    "confidence_ellipse",
    "run_mcem",
    "ellipse_study",
    "trace_to_csv",
    "study_to_csv",
]


@dataclass(frozen=True)
class MCEMConfig:
    """Tuning knobs and known constants for the EM run.

    Parameters
    ----------
    k_samples : int
        Importance draws per iteration, at least 2.
    max_iter : int
        Iteration cap.
    tol : float
        Max-norm parameter change below which an iteration counts as
        converged; two consecutive such iterations stop the run.
    ess_floor : float
        Minimum acceptable effective-sample-size fraction; one doubling of
        k_samples is triggered the first time an E-step falls below it.
    alpha : float
        Ellipse level (0.05 gives 95% ellipses).
    sigma : float
        Known idiosyncratic standard deviation of the regression errors.
    lam : float
        Known Poisson mean of the confidential regressor.
    """

    k_samples: int = 5000
    max_iter: int = 40
    tol: float = 1e-3
    ess_floor: float = 0.01
    alpha: float = 0.05
    sigma: float = 5.0
    lam: float = 10.0

    def __post_init__(self) -> None:
        if self.k_samples < 2:
            raise ValueError("k_samples must be at least 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 0 < self.ess_floor <= 1:
            raise ValueError("ess_floor must be in (0, 1]")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.lam > 0:
            raise ValueError("lam must be positive")


@dataclass(frozen=True)
class MCEMState:
    """Weighted E-step snapshot at one parameter value."""

    iteration: int
    theta: tuple[float, float]
    log_weights: np.ndarray
    ess: float
    converged: bool
    max_raw_log_weight: float

    @property
    def weights(self) -> np.ndarray:
        """Normalized importance weights (sum to 1)."""
        return np.exp(self.log_weights)


@dataclass(frozen=True)
class Ellipse:
    """Confidence region {p : (p - center)' shape (p - center) <= level}."""

    center: tuple[float, float]
    shape: np.ndarray
    level: float

    def __post_init__(self) -> None:
        shape = np.asarray(self.shape, dtype=float)
        if shape.shape != (2, 2):
            raise ValueError("shape must be 2x2")
        object.__setattr__(self, "shape", shape)
        if not self.level > 0:
            raise ValueError("level must be positive")

    def contains(self, point) -> bool:
        d = np.asarray(point, dtype=float) - np.asarray(self.center, dtype=float)
        return bool(d @ self.shape @ d <= self.level)

    @property
    def area(self) -> float:
        det = float(np.linalg.det(self.shape))
        return math.pi * self.level / math.sqrt(det)

    def to_json(self) -> str:
        return json.dumps(
            {"center": list(self.center), "shape": self.shape.tolist(),
             "level": self.level},
            sort_keys=True,
        )


@dataclass(frozen=True)
class TraceRow:
    """One EM iteration in the run trace."""

    iteration: int
    beta0: float
    beta1: float
    ess: float
    max_log_weight: float


@dataclass(frozen=True)
class MCEMResult:
    """Full output of an EM run."""

    fit: FitResult
    ellipse: Ellipse | None
    trace: list
    converged: bool
    fisher: np.ndarray
    fisher_pd: bool
    mean_score: np.ndarray
    mean_score_se: np.ndarray
    k_final: int


def log_importance_weights(
    x_samples: np.ndarray,
    y_samples: np.ndarray,
    data: PrivatizedDataset,
) -> np.ndarray:
    """Raw (unnormalized) log weights of complete-data draws.

    Each row of the sample matrices is one candidate confidential dataset;
    its weight is the exact log density of the observed release given that
    dataset under the declared mechanisms, summed over coordinates:

        log w_k = sum_i [ f_x(x_ki - x~_i) + f_y(y_ki - y~_i) ]

    with f_x, f_y the ``log_density`` of ``data.spec_x`` and ``data.spec_y``.
    """
    log_w = data.spec_x.log_density(x_samples - data.x_tilde)
    log_w += data.spec_y.log_density(y_samples - data.y_tilde)
    return log_w.sum(axis=1)


def e_step(
    data: PrivatizedDataset,
    theta: tuple[float, float],
    config: MCEMConfig,
    rng: np.random.Generator,
    iteration: int = 0,
):
    """Draw importance samples at theta and weight them by the mechanism.

    Proposals follow the complete-data generative law at the current
    parameters: x ~ Poisson(lam), y = beta0 + beta1 x + Normal(0, sigma^2).
    Log weights are normalized by max-subtraction inside a log-sum-exp, so
    the stored log weights exponentiate to a simplex vector.

    Returns
    -------
    (MCEMState, (x_samples, y_samples))
        State with normalized log weights and ESS, plus the K x n sample
        matrices the weights refer to.

    Raises
    ------
    DegenerateWeightsError
        If every weight underflows (K too small or theta far from truth).
    """
    beta0, beta1 = float(theta[0]), float(theta[1])
    if not (math.isfinite(beta0) and math.isfinite(beta1)):
        raise ValueError(f"theta must be finite, got {theta!r}")
    k, n = config.k_samples, data.n
    x_samples = rng.poisson(config.lam, (k, n)).astype(float)
    y_samples = beta0 + beta1 * x_samples + rng.normal(0.0, config.sigma, (k, n))

    raw = log_importance_weights(x_samples, y_samples, data)
    max_raw = float(np.max(raw))
    if not math.isfinite(max_raw):
        raise DegenerateWeightsError("all importance weights degenerate")
    shifted = np.exp(raw - max_raw)
    total = float(shifted.sum())
    if total <= 0.0:
        raise DegenerateWeightsError("importance weights underflowed to zero")
    log_weights = raw - max_raw - math.log(total)
    w = shifted / total
    ess = 1.0 / float(np.sum(w**2))

    state = MCEMState(
        iteration=iteration,
        theta=(beta0, beta1),
        log_weights=log_weights,
        ess=ess,
        converged=False,
        max_raw_log_weight=max_raw,
    )
    return state, (x_samples, y_samples)


def m_step(state: MCEMState, samples) -> tuple[float, float]:
    """Weighted least-squares update of (beta0, beta1).

    Uses the weighted across-sample averages of per-dataset means of x, y,
    xy, and x^2; with all weight on a single draw this reduces to OLS on
    that draw.
    """
    x_samples, y_samples = samples
    w = state.weights
    mx = w @ x_samples.mean(axis=1)
    my = w @ y_samples.mean(axis=1)
    mxy = w @ (x_samples * y_samples).mean(axis=1)
    mxx = w @ (x_samples**2).mean(axis=1)
    var_x = mxx - mx**2
    if var_x <= 0.0:
        raise DegenerateDesignError("weighted variance of x is not positive")
    beta1 = (mxy - mx * my) / var_x
    beta0 = my - beta1 * mx
    return float(beta0), float(beta1)


def _scores(samples, theta, sigma: float) -> np.ndarray:
    """Complete-data score of each sampled dataset at theta, shape (K, 2)."""
    x_samples, y_samples = samples
    beta0, beta1 = theta
    resid = y_samples - beta0 - beta1 * x_samples
    s0 = resid.sum(axis=1)
    s1 = (x_samples * resid).sum(axis=1)
    return np.column_stack([s0, s1]) / sigma**2


def observed_fisher(
    state: MCEMState,
    samples,
    theta: tuple[float, float],
    config: MCEMConfig,
) -> np.ndarray:
    """Louis-type observed information at theta from weighted samples.

    Three terms: the weighted mean complete-data information, minus the
    weighted mean outer product of complete-data scores, plus the outer
    product of the weighted mean score.  The complete-data information for
    a dataset with regressor column x is (1/sigma^2) [[n, sum x],
    [sum x, sum x^2]] and does not depend on theta.
    """
    x_samples, _ = samples
    w = state.weights
    n = x_samples.shape[1]
    sigma_sq = config.sigma**2

    sx = x_samples.sum(axis=1)
    sxx = (x_samples**2).sum(axis=1)
    info = np.array(
        [[n, float(w @ sx)], [float(w @ sx), float(w @ sxx)]]
    ) / sigma_sq

    scores = _scores(samples, theta, config.sigma)
    mean_score = w @ scores
    score_sq = (scores[:, :, None] * scores[:, None, :] * w[:, None, None]).sum(axis=0)

    fisher = info - score_sq + np.outer(mean_score, mean_score)
    return (fisher + fisher.T) / 2.0


def confidence_ellipse(
    theta_hat: tuple[float, float],
    fisher: np.ndarray,
    alpha: float = 0.05,
) -> Ellipse:
    """Large-sample confidence ellipse from the observed information.

    The region is {beta : (beta - theta_hat)' F (beta - theta_hat) <=
    q} with q the chi-square(2 df) quantile at 1 - alpha (5.99146 at
    alpha = 0.05).

    Raises
    ------
    NonPDInformationError
        If the information matrix is not positive definite.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    fisher = np.asarray(fisher, dtype=float)
    fisher = (fisher + fisher.T) / 2.0
    try:
        np.linalg.cholesky(fisher)
    except np.linalg.LinAlgError:
        raise NonPDInformationError("information matrix is not positive definite")
    return Ellipse(
        center=(float(theta_hat[0]), float(theta_hat[1])),
        shape=fisher,
        level=chi2_2_quantile(1.0 - alpha),
    )


def run_mcem(data: PrivatizedDataset, config: MCEMConfig, seed: int) -> MCEMResult:
    """Run EM to convergence from the naive OLS start.

    Each iteration uses a fresh child stream keyed by (seed, iteration),
    so the full trace is reproducible from (data, config, seed) alone.
    Convergence requires the max-norm parameter change to stay below
    config.tol for two consecutive iterations.  A final fresh E-step at
    the solution supplies the Fisher information, the mean-score
    diagnostic, and the confidence ellipse; a non-positive-definite
    information matrix is reported via fisher_pd=False with the ellipse
    suppressed rather than raised.
    """
    fit0 = ols(data.x_tilde, data.y_tilde)
    theta = (fit0.beta0_hat, fit0.beta1_hat)

    trace: list[TraceRow] = []
    cfg = config
    doubled = False
    consecutive = 0
    converged = False

    for t in range(1, config.max_iter + 1):
        state, samples = e_step(data, theta, cfg, stream(seed, "mcem-iter", t), iteration=t)
        new_theta = m_step(state, samples)
        delta = max(abs(new_theta[0] - theta[0]), abs(new_theta[1] - theta[1]))
        trace.append(
            TraceRow(t, new_theta[0], new_theta[1], state.ess, state.max_raw_log_weight)
        )
        theta = new_theta
        if delta < cfg.tol:
            consecutive += 1
            if consecutive >= 2:
                converged = True
                break
        else:
            consecutive = 0
        if not doubled and state.ess / cfg.k_samples < cfg.ess_floor:
            cfg = replace(cfg, k_samples=2 * cfg.k_samples)
            doubled = True

    state_f, samples_f = e_step(data, theta, cfg, stream(seed, "mcem-fisher"), iteration=len(trace) + 1)
    fisher = observed_fisher(state_f, samples_f, theta, cfg)

    scores = _scores(samples_f, theta, cfg.sigma)
    w = state_f.weights
    mean_score = w @ scores
    centered = scores - mean_score
    mean_score_var = (w**2) @ (centered**2)
    mean_score_se = np.sqrt(mean_score_var)

    fisher_pd = True
    ellipse = None
    try:
        ellipse = confidence_ellipse(theta, fisher, cfg.alpha)
        covariance = np.linalg.inv(fisher)
        covariance = (covariance + covariance.T) / 2.0
    except NonPDInformationError:
        fisher_pd = False
        covariance = np.full((2, 2), np.nan)

    fit = FitResult(
        beta0_hat=theta[0],
        beta1_hat=theta[1],
        covariance=covariance,
        residual_variance=cfg.sigma**2,
        method="mcem",
        n=data.n,
    )
    return MCEMResult(
        fit=fit,
        ellipse=ellipse,
        trace=trace,
        converged=converged,
        fisher=fisher,
        fisher_pd=fisher_pd,
        mean_score=mean_score,
        mean_score_se=mean_score_se,
        k_final=cfg.k_samples,
    )


def trace_to_csv(trace) -> str:
    """Render an iteration trace as CSV."""
    buf = io.StringIO()
    buf.write("iter,beta0,beta1,ess,max_log_weight\n")
    for row in trace:
        buf.write(
            f"{row.iteration},{row.beta0!r},{row.beta1!r},"
            f"{row.ess!r},{row.max_log_weight!r}\n"
        )
    return buf.getvalue()


@dataclass(frozen=True)
class EllipseStudyRow:
    """One fitted ellipse in the replication study."""

    replicate: int
    method: str
    beta0: float
    beta1: float
    covered: bool
    area: float


def ellipse_study(
    params: RegressionParams,
    n: int,
    eps_x: PrivacyBudget,
    eps_y: PrivacyBudget,
    replicates: int,
    seed: int,
    config: MCEMConfig | None = None,
    methods: tuple = ("naive", "mcem"),
    alpha: float = 0.05,
):
    """Repeatedly privatize one confidential dataset and collect ellipses.

    A single confidential sample of size n is drawn once; each replicate
    is an independent privatization of it.  For each replicate the naive
    OLS ellipse (textbook covariance on the noisy pairs) and/or the EM
    ellipse (inverse observed information) is computed and checked for
    coverage of the generating (beta0, beta1).

    Returns
    -------
    (rows, rates)
        Per-replicate :class:`EllipseStudyRow` records in deterministic
        order, and a dict of coverage rates keyed by method.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    for m in methods:
        if m not in ("naive", "mcem"):
            raise ValueError(f"unknown method {m!r}")
    if config is None:
        config = MCEMConfig(sigma=params.sigma, lam=params.lam)
    target = (params.beta0, params.beta1)

    conf = gen_confidential(
        n, params, stream(seed, "ellipse-study", "confidential"), seed=seed
    )
    rows: list[EllipseStudyRow] = []
    for r in range(replicates):
        priv = privatize_dataset(
            conf, eps_x, eps_y, stream(seed, "ellipse-study", "privatize", r)
        )
        if "naive" in methods:
            fit = ols(priv.x_tilde, priv.y_tilde)
            try:
                ell = confidence_ellipse(
                    (fit.beta0_hat, fit.beta1_hat),
                    np.linalg.inv(fit.covariance),
                    alpha,
                )
                covered, area = ell.contains(target), ell.area
            except NonPDInformationError:
                covered, area = False, float("nan")
            rows.append(
                EllipseStudyRow(r, "naive", fit.beta0_hat, fit.beta1_hat, covered, area)
            )
        if "mcem" in methods:
            res = run_mcem(priv, config, derive_seed(seed, "ellipse-study", "mcem", r))
            if res.ellipse is not None:
                covered, area = res.ellipse.contains(target), res.ellipse.area
            else:
                covered, area = False, float("nan")
            rows.append(
                EllipseStudyRow(
                    r, "mcem", res.fit.beta0_hat, res.fit.beta1_hat, covered, area
                )
            )

    rates = {}
    for m in methods:
        hits = [row.covered for row in rows if row.method == m]
        rates[m] = sum(hits) / len(hits)
    if "mcem" in methods:
        # A non-PD information estimate yields no ellipse; those replicates
        # count as uncovered above but are also tallied separately.
        defined = [
            row.covered for row in rows if row.method == "mcem" and row.area == row.area
        ]
        rates["mcem_defined"] = (
            sum(defined) / len(defined) if defined else float("nan")
        )
        rates["mcem_nonpd_fraction"] = 1.0 - len(defined) / replicates
    return rows, rates


def study_to_csv(rows) -> str:
    """Render ellipse-study rows as CSV."""
    buf = io.StringIO()
    buf.write("replicate,method,beta0,beta1,covered,area\n")
    for row in rows:
        buf.write(
            f"{row.replicate},{row.method},{row.beta0!r},{row.beta1!r},"
            f"{int(row.covered)},{row.area!r}\n"
        )
    return buf.getvalue()
