"""Maximum likelihood on privatized regression data via Monte Carlo EM.

The privatized pairs are the data; the confidential pairs are missing.
Given the parameters, the records are independent, so the posterior of
the missing pairs factorizes over records and every E-step quantity is a
sum of per-record terms.  Each E-step draws K values of each record's x
from its release-conditional pmf q_i(s) ∝ Pois(s; lam) f_x(x~_i - s),
which does not depend on the parameters, draws y from the regression law
at the current parameters, and weights each draw by the y mechanism
density alone; weights are normalized per record.  The M-step is least
squares on the weighted per-record moments.  Louis's identity, with the
score variance summed over records, gives the observed Fisher information
at the final estimate, from which large-sample confidence ellipses follow.

The idiosyncratic scale sigma and the regressor mean lam are treated as
known constants throughout; only the intercept and slope are estimated.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

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
    "x_proposal",
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

# Largest x value the proposal enumerates; a release that needs more is
# reported as degenerate rather than allocated.
_MAX_X_SUPPORT = 100_000
# Bound on the x-proposal mass left past the support, relative to each
# record's largest term.
_TAIL_TOL = 1e-15


@dataclass(frozen=True)
class MCEMConfig:
    """Tuning knobs and known constants for the EM run.

    Parameters
    ----------
    k_samples : int
        Importance draws per record and iteration, at least 2.
    max_iter : int
        Iteration cap.
    tol : float
        Max-norm parameter change below which an iteration counts as
        converged; two consecutive such iterations stop the run.
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
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.lam > 0:
            raise ValueError("lam must be positive")


@dataclass(frozen=True)
class MCEMState:
    """Weighted E-step snapshot at one parameter value.

    ``log_weights`` has the (K, n) shape of the samples; each column holds
    one record's normalized log weights.  ``ess`` is the lowest per-record
    effective sample size, between 1 and K.
    """

    iteration: int
    theta: tuple[float, float]
    log_weights: np.ndarray
    ess: float
    converged: bool
    max_raw_log_weight: float

    @property
    def weights(self) -> np.ndarray:
        """Normalized importance weights (each column sums to 1)."""
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


def _x_support_end(x_tilde: np.ndarray, lam: float) -> int:
    """Last point N of the truncated x support 0..N.

    From s0 = ceil(max(lam, max x~)) on, each record's term Pois(s; lam)
    f_x(x~_i - s) shrinks by a factor of at most lam / (s + 1) per step,
    since the mechanism factor does not grow past x~_i.  So the mass past
    N is at most term(N) r / (1 - r) with r = lam / (N + 1), and term(N) is
    at most term(s0) prod_{j=s0+1..N} lam / j.  N is the first point where
    that bound falls below _TAIL_TOL times the record's largest term.

    Raises
    ------
    DegenerateWeightsError
        If N would pass _MAX_X_SUPPORT.
    """
    top = max(lam, float(np.max(x_tilde)))
    end = math.ceil(top) if top < _MAX_X_SUPPORT else _MAX_X_SUPPORT + 1
    log_drop, log_tol = 0.0, math.log(_TAIL_TOL)
    while end <= _MAX_X_SUPPORT:
        r = lam / (end + 1)
        if log_drop + math.log(r / (1.0 - r)) <= log_tol:
            return end
        end += 1
        log_drop += math.log(lam / end)
    raise DegenerateWeightsError(
        f"x proposal needs support past {_MAX_X_SUPPORT} (max x~ {float(np.max(x_tilde))!r})"
    )


def x_proposal(data: PrivatizedDataset, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Each record's release-conditional pmf of x, the E-step's x proposal.

    q_i(s) ∝ Pois(s; lam) f_x(x~_i - s) on the support 0..N of
    :func:`_x_support_end`, with f_x the ``log_density`` of ``data.spec_x``.
    It is the posterior of x_i given x~_i alone, and depends on no
    regression parameter.

    Returns
    -------
    (support, log_q)
        The support as floats, shape (N + 1,), and the normalized log pmf
        of each record, shape (n, N + 1).
    """
    end = _x_support_end(data.x_tilde, lam)
    support = np.arange(end + 1, dtype=float)
    log_fact = np.array([math.lgamma(s + 1.0) for s in range(end + 1)])
    log_q = data.spec_x.log_density(data.x_tilde[:, None] - support)
    log_q += support * math.log(lam) - log_fact
    top = log_q.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():
        raise DegenerateWeightsError("x proposal has no finite term for some record")
    log_q -= top
    log_q -= np.log(np.exp(log_q).sum(axis=1, keepdims=True))
    return support, log_q


def log_importance_weights(y_samples: np.ndarray, data: PrivatizedDataset) -> np.ndarray:
    """Raw (unnormalized) per-record log weights of the y draws.

    With x drawn from :func:`x_proposal` and y from the regression law,
    the importance weight of draw k of record i is the y mechanism density
    of the observed release:

        log w_ki = f_y(y_ki - y~_i)

    with f_y the ``log_density`` of ``data.spec_y``.  Same shape as
    ``y_samples``, (K, n).
    """
    return data.spec_y.log_density(y_samples - data.y_tilde)


def e_step(
    data: PrivatizedDataset,
    theta: tuple[float, float],
    config: MCEMConfig,
    rng: np.random.Generator,
    iteration: int = 0,
):
    """Draw K complete values of each record at theta and weight them.

    x_i takes the K values of a multinomial(K, q_i) draw over the
    :func:`x_proposal` support, in support order; y = beta0 + beta1 x +
    Normal(0, sigma^2).  Weights are the y mechanism density, normalized
    per record by max-subtraction inside a log-sum-exp.  Row k of the
    samples is not one joint draw: only the columns' weighted moments are
    meaningful.

    Returns
    -------
    (MCEMState, (x_samples, y_samples))
        State with per-record normalized log weights and the lowest
        per-record ESS, plus the K x n sample matrices the weights refer to.

    Raises
    ------
    DegenerateWeightsError
        If a record's log weights are all -inf, or the x proposal cannot be
        built (a release too far out for its truncated support).
    """
    beta0, beta1 = float(theta[0]), float(theta[1])
    if not (math.isfinite(beta0) and math.isfinite(beta1)):
        raise ValueError(f"theta must be finite, got {theta!r}")
    k, n = config.k_samples, data.n
    support, log_q = x_proposal(data, config.lam)
    counts = rng.multinomial(k, np.exp(log_q))
    # Record-major (n, K) storage; the returned (K, n) arrays are its views.
    x_rec = np.repeat(np.tile(support, n), counts.ravel()).reshape(n, k)
    y_rec = rng.standard_normal((n, k))
    y_rec *= config.sigma
    y_rec += beta1 * x_rec
    y_rec += beta0

    raw = log_importance_weights(y_rec.T, data).T
    max_raw = raw.max(axis=1, keepdims=True)
    if not np.isfinite(max_raw).all():
        raise DegenerateWeightsError("all importance weights of a record degenerate")
    shifted = np.exp(raw - max_raw)
    total = shifted.sum(axis=1, keepdims=True)
    log_weights = raw - max_raw - np.log(total)
    shifted /= total
    ess = float(np.min(1.0 / np.einsum("ik,ik->i", shifted, shifted)))

    state = MCEMState(
        iteration=iteration,
        theta=(beta0, beta1),
        log_weights=log_weights.T,
        ess=ess,
        converged=False,
        max_raw_log_weight=float(max_raw.sum()),
    )
    return state, (x_rec.T, y_rec.T)


def m_step(state: MCEMState, samples) -> tuple[float, float]:
    """Weighted least-squares update of (beta0, beta1).

    Uses the per-record weighted means of x, y, xy and x^2, averaged over
    records; with all of a record's weight on one draw this is OLS on
    those draws.
    """
    x_samples, y_samples = samples
    w = state.weights
    n = x_samples.shape[1]
    mx = np.einsum("ki,ki->", w, x_samples) / n
    my = np.einsum("ki,ki->", w, y_samples) / n
    mxy = np.einsum("ki,ki,ki->", w, x_samples, y_samples) / n
    mxx = np.einsum("ki,ki,ki->", w, x_samples, x_samples) / n
    var_x = mxx - mx**2
    if var_x <= 0.0:
        raise DegenerateDesignError("weighted variance of x is not positive")
    beta1 = (mxy - mx * my) / var_x
    beta0 = my - beta1 * mx
    return float(beta0), float(beta1)


def _scores(samples, theta, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-record complete-data score of each draw at theta: the (K, n)
    intercept and slope components r / sigma^2 and x r / sigma^2, with
    r = y - beta0 - beta1 x."""
    x_samples, y_samples = samples
    s0 = y_samples - theta[0] - theta[1] * x_samples
    s0 /= sigma**2
    return s0, x_samples * s0


def observed_fisher(
    state: MCEMState,
    samples,
    theta: tuple[float, float],
    config: MCEMConfig,
) -> np.ndarray:
    """Louis-type observed information at theta from weighted samples.

    The weighted mean complete-data information minus the posterior
    variance of the complete-data score.  Records are independent given
    the release, so that variance is the sum of per-record score
    variances E[s_i s_i'] - s̄_i s̄_i'.  The complete-data information for
    a regressor column x is (1/sigma^2) [[n, sum x], [sum x, sum x^2]] and
    does not depend on theta.
    """
    x_samples, _ = samples
    w = state.weights
    n = x_samples.shape[1]
    ex = float(np.einsum("ki,ki->", w, x_samples))
    exx = float(np.einsum("ki,ki,ki->", w, x_samples, x_samples))
    info = np.array([[n, ex], [ex, exx]]) / config.sigma**2

    s0, s1 = _scores(samples, theta, config.sigma)
    m0 = np.einsum("ki,ki->i", w, s0)
    m1 = np.einsum("ki,ki->i", w, s1)
    v00 = float(np.einsum("ki,ki,ki->", w, s0, s0) - m0 @ m0)
    v01 = float(np.einsum("ki,ki,ki->", w, s0, s1) - m0 @ m1)
    v11 = float(np.einsum("ki,ki,ki->", w, s1, s1) - m1 @ m1)
    return info - np.array([[v00, v01], [v01, v11]])


def _mean_score(state: MCEMState, samples, theta, sigma: float):
    """Weighted mean complete-data score at theta and its Monte Carlo SE.

    The mean is the sum of per-record weighted means; records are drawn
    independently, so its variance is the sum over records of the
    self-normalized estimate sum_k w_ki^2 (s_ki - s̄_i)^2.
    """
    w = state.weights
    mean, var = np.empty(2), np.empty(2)
    for j, s in enumerate(_scores(samples, theta, sigma)):
        m = np.einsum("ki,ki->i", w, s)
        s -= m
        mean[j] = m.sum()
        var[j] = np.einsum("ki,ki,ki,ki->", w, w, s, s)
    return mean, np.sqrt(var)


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
    suppressed rather than raised.  Every E-step draws config.k_samples
    values per record.
    """
    fit0 = ols(data.x_tilde, data.y_tilde)
    theta = (fit0.beta0_hat, fit0.beta1_hat)

    trace: list[TraceRow] = []
    consecutive = 0
    converged = False

    for t in range(1, config.max_iter + 1):
        state, samples = e_step(data, theta, config, stream(seed, "mcem-iter", t), iteration=t)
        new_theta = m_step(state, samples)
        delta = max(abs(new_theta[0] - theta[0]), abs(new_theta[1] - theta[1]))
        trace.append(
            TraceRow(t, new_theta[0], new_theta[1], state.ess, state.max_raw_log_weight)
        )
        theta = new_theta
        if delta < config.tol:
            consecutive += 1
            if consecutive >= 2:
                converged = True
                break
        else:
            consecutive = 0

    state_f, samples_f = e_step(
        data, theta, config, stream(seed, "mcem-fisher"), iteration=len(trace) + 1
    )
    fisher = observed_fisher(state_f, samples_f, theta, config)
    mean_score, mean_score_se = _mean_score(state_f, samples_f, theta, config.sigma)

    fisher_pd = True
    ellipse = None
    try:
        ellipse = confidence_ellipse(theta, fisher, config.alpha)
        covariance = np.linalg.inv(fisher)
        covariance = (covariance + covariance.T) / 2.0
    except NonPDInformationError:
        fisher_pd = False
        covariance = np.full((2, 2), np.nan)

    fit = FitResult(
        beta0_hat=theta[0],
        beta1_hat=theta[1],
        covariance=covariance,
        residual_variance=config.sigma**2,
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
        k_final=config.k_samples,
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
