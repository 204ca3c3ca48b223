"""Maximum likelihood on privatized regression data via Monte Carlo EM.

The privatized pairs are the data; the confidential pairs are missing.
Given the parameters, the records are independent, so the posterior of
the missing pairs factorizes over records and every E-step quantity is a
sum of per-record terms.  Each E-step draws K values of each record's x
from its release-conditional pmf q_i(s) ∝ Pois(s; lam) f_x(x~_i - s),
which does not depend on the parameters.  y is not drawn: given x, the
release and the parameters, the y residual is Normal ⊛ Laplace, so each
draw of x is weighted by the closed-form density of the y release and
carries the exact conditional mean and variance of y (Rao–Blackwell).
Weights are normalized per record, and draws at the same x value share
theirs, so the E-step is a table over (record, x value) cells weighted by
how many draws fell on each.  The M-step is least squares on the weighted
per-record moments.  Louis's identity, with the score variance summed over
records, gives the observed Fisher information at the final estimate, from
which large-sample confidence ellipses follow.

The idiosyncratic scale sigma and the regressor mean lam are treated as
known constants throughout; only the intercept and slope are estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDesignError,
    DegenerateWeightsError,
    NonPDInformationError,
)
from .mechanisms import PrivacyBudget
from .naive_fit import FitResult, ols
from .normal import chi2_2_quantile, normal_laplace
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
]

# Largest x value the proposal enumerates; a release that needs more is
# reported as degenerate rather than allocated.
_MAX_X_SUPPORT = 100_000
# Log of the bound on the x-proposal mass left past the support, relative to
# each record's largest term.
_LOG_TAIL_TOL = math.log(1e-15)
# An iteration counts as converged when both mean-score components lie
# within this many Monte Carlo SE of zero, plus a rounding floor.
_SCORE_Z = 2.0
# The rounding floor, relative to the summed magnitudes of the per-record
# score terms.  Double-precision sums of n such terms err by about
# sqrt(n) * 1.1e-16 of that size, and by n * 1.1e-16 at worst, so 1e-10
# covers the worst case up to about 10^6 records.  It matters only when the
# SE is 0, as when every draw of each record lands on one x value; then the
# score can only reach 0 to rounding, never exactly.
_SCORE_ROUNDING = 1e-10


def _check_finite_positive(**values: float) -> None:
    """Raise a ValueError naming the first value that is not finite and positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class MCEMConfig:
    """Tuning knobs and known constants for the EM run.

    Parameters
    ----------
    k_samples : int
        Importance draws per record and iteration, at least 2.
    max_iter : int
        Iteration cap; :func:`run_mcem` stops earlier once its mean score
        is within Monte Carlo error of zero.
    alpha : float
        Ellipse level (0.05 gives 95% ellipses).
    sigma : float
        Known idiosyncratic standard deviation of the regression errors.
    lam : float
        Known Poisson mean of the confidential regressor.
    """

    k_samples: int = 5000
    max_iter: int = 40
    alpha: float = 0.05
    sigma: float = 5.0
    lam: float = 10.0

    def __post_init__(self) -> None:
        if self.k_samples < 2:
            raise ValueError("k_samples must be at least 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        _check_finite_positive(sigma=self.sigma, lam=self.lam)


@dataclass(frozen=True)
class MCEMState:
    """Rao–Blackwellized E-step snapshot at one parameter value.

    The (n, S) tables are indexed by record i and x value ``support[s]``.
    ``counts`` holds how many of the K draws of x_i fell on each value.
    ``cell_weights`` is the posterior mass of each cell, the normalized
    weight of one draw there times the count (0 where no draw fell), and
    each of its rows sums to 1.  ``mean_r`` and ``var_r`` are the mean and
    variance of the residual r = y - beta0 - beta1 x given x_i = support[s],
    y~_i and theta.  ``ess`` is the lowest per-record effective sample size
    of the K draws, between 1 and K.
    """

    theta: tuple[float, float]
    support: np.ndarray
    counts: np.ndarray
    cell_weights: np.ndarray
    mean_r: np.ndarray
    var_r: np.ndarray
    ess: float


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


@dataclass(frozen=True)
class MCEMResult:
    """Full output of an EM run.

    ``trace`` holds one row (iteration, beta0, beta1, ess) per EM iteration
    in one (iterations, 4) float array.
    """

    fit: FitResult
    ellipse: Ellipse | None
    trace: np.ndarray
    converged: bool
    fisher: np.ndarray
    fisher_pd: bool
    mean_score: np.ndarray
    mean_score_se: np.ndarray
    k_final: int


def _poisson_support(x_tilde: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The truncated x support 0..N and s log lam - log s! on it.

    log s! is a cumulative sum of log j, and the same sum bounds the tail.
    From s0 = ceil(max(lam, max x~)) on, each record's term Pois(s; lam)
    f_x(x~_i - s) shrinks by a factor of at most lam / (s + 1) per step,
    since the mechanism factor does not grow past x~_i.  So the mass past N
    is at most term(N) r / (1 - r) with r = lam / (N + 1), and term(N) is at
    most term(s0) prod_{j=s0+1..N} lam / j.  N is the first point where
    that bound falls below 1e-15 times the record's largest term.  The sum
    runs over a window that doubles until it holds N.

    Raises
    ------
    DegenerateWeightsError
        If N would pass _MAX_X_SUPPORT.
    """
    top = max(lam, float(x_tilde.max()))
    if top < _MAX_X_SUPPORT:
        start = math.ceil(top)
        width = 64
        while True:
            last = min(start + width, _MAX_X_SUPPORT)
            support = np.arange(last + 1.0)
            terms = support * math.log(lam)
            terms[1:] -= np.cumsum(np.log(support[1:]))
            # log of the tail bound at each end N >= s0, less log term(s0)
            bound = terms[start:] - np.log(support[start:] + (1.0 - lam))
            hit = np.flatnonzero(bound <= _LOG_TAIL_TOL + terms[start] - math.log(lam))
            if hit.size:
                end = start + int(hit[0]) + 1
                return support[:end], terms[:end]
            if last == _MAX_X_SUPPORT:
                break
            width *= 2
    raise DegenerateWeightsError(
        f"x proposal needs support past {_MAX_X_SUPPORT} (max x~ {float(np.max(x_tilde))!r})"
    )


def x_proposal(
    data: PrivatizedDataset, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each record's release-conditional pmf of x, the E-step's x proposal.

    q_i(s) ∝ Pois(s; lam) f_x(x~_i - s) on the support 0..N of
    :func:`_poisson_support`, with f_x the ``log_density`` of
    ``data.spec_x``.  It is the posterior of x_i given x~_i alone, and
    depends on no regression parameter.

    Returns
    -------
    (support, log_q, log_mass)
        The support as floats, shape (N + 1,); the normalized log pmf of
        each record, shape (n, N + 1); and each record's log normalizer,
        log sum_s lam^s / s! f_x(x~_i - s) over the support, shape (n,):
        less lam, the log of the release density of x~_i with x_i summed
        out.
    """
    support, log_pois = _poisson_support(data.x_tilde, lam)
    log_q = data.spec_x.log_density(data.x_tilde[:, None] - support)
    log_q += log_pois
    top = log_q.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():
        raise DegenerateWeightsError("x proposal has no finite term for some record")
    log_q -= top
    total = np.log(np.exp(log_q).sum(axis=1, keepdims=True))
    log_q -= total
    return support, log_q, (top + total)[:, 0]


def log_importance_weights(
    data: PrivatizedDataset,
    theta: tuple[float, float],
    support: np.ndarray,
    counts: np.ndarray,
    sigma: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw log weight of the draws in each (record, x value) cell, with the
    y moments it integrates over.

    Given x_i = s, the residual r = y_i - beta0 - beta1 s is N(0, sigma^2)
    and the release is y~_i = y_i + Laplace noise, so y~_i - beta0 - beta1 s
    is Normal ⊛ Laplace.  A draw of x_i at s is weighted by that density,
    g(y~_i - beta0 - beta1 s) (:func:`normal.normal_laplace`): the y
    density of the draw with y integrated out rather than sampled.  Only
    cells with a positive count are evaluated.  The y release is Laplace,
    as :class:`PrivatizedDataset` requires.

    Returns
    -------
    (log_w, mean_r, var_r)
        (n, S) arrays like ``counts``: log g, and the mean and variance of
        r given x_i = s, y~_i and theta; -inf, 0 and 0 where no draw fell.
    """
    drawn = counts > 0
    d = (data.y_tilde[:, None] - theta[0] - theta[1] * support)[drawn]
    log_w = np.full(counts.shape, -np.inf)
    mean_r = np.zeros(counts.shape)
    var_r = np.zeros(counts.shape)
    log_w[drawn], mean_r[drawn], var_r[drawn] = normal_laplace(d, sigma, data.spec_y.scale)
    return log_w, mean_r, var_r


def e_step(
    data: PrivatizedDataset,
    theta: tuple[float, float],
    config: MCEMConfig,
    rng: np.random.Generator,
    *,
    proposal: tuple[np.ndarray, np.ndarray, np.ndarray],
):
    """Draw K values of each record's x at theta and weight them, with y
    integrated out.

    x_i takes the K values of a multinomial(K, q_i) draw over the
    :func:`x_proposal` support.  Each draw at s gets the raw log weight of
    :func:`log_importance_weights`; weights are normalized per record by
    max-subtraction inside a log-sum-exp.  ``proposal`` is
    ``x_proposal(data, config.lam)``, which does not depend on theta, so a
    fit builds it once.

    Returns
    -------
    (MCEMState, (x_samples, y_means))
        The state with its per-record (n, S) tables and the lowest
        per-record ESS; the K x n draws of x, as integers in support order
        (row k is not one joint draw: only the columns' weighted moments are
        meaningful); and the (n, S) table of E[y | x_i = support[s], y~_i,
        theta], which stands in for draws of y.

    Raises
    ------
    DegenerateWeightsError
        If a record's log weights are all -inf.
    """
    beta0, beta1 = float(theta[0]), float(theta[1])
    if not (math.isfinite(beta0) and math.isfinite(beta1)):
        raise ValueError(f"theta must be finite, got {theta!r}")
    k, n = config.k_samples, data.n
    support, log_q, _ = proposal
    counts = rng.multinomial(k, np.exp(log_q))
    log_w, mean_r, var_r = log_importance_weights(
        data, (beta0, beta1), support, counts, config.sigma
    )
    max_raw = np.maximum.reduce(log_w, axis=1, keepdims=True)
    if not np.isfinite(max_raw).all():
        raise DegenerateWeightsError("all importance weights of a record degenerate")
    log_w -= max_raw
    w = np.exp(log_w, out=log_w)
    p = counts * w
    total = np.add.reduce(p, axis=1, keepdims=True)
    w /= total
    p /= total
    # record i's sum of squared draw weights is sum_s counts w^2 = sum_s p w
    ess = float(1.0 / np.maximum.reduce(np.einsum("is,is->i", p, w)))

    state = MCEMState(
        theta=(beta0, beta1),
        support=support,
        counts=counts,
        cell_weights=p,
        mean_r=mean_r,
        var_r=var_r,
        ess=ess,
    )
    # Record-major (n, K) storage; the returned (K, n) array is its view.
    # The support is 0..N, so a value's index is the value; 32-bit integers
    # halve the largest array the E-step writes.
    x_index = np.arange(n * support.size, dtype=np.int32) % support.size
    x_rec = np.repeat(x_index, counts.ravel()).reshape(n, k)
    return state, (x_rec.T, mean_r + beta0 + beta1 * support)


def m_step(state: MCEMState) -> tuple[float, float]:
    """Least-squares update of (beta0, beta1) from the E-step tables.

    The expected complete-data log-likelihood is minus the sum over records
    of E[(y_i - b0 - b1 x_i)^2] / (2 sigma^2), so the update is OLS on the
    posterior moments of x, y, xy and x^2 averaged over records.  With
    y = beta0 + beta1 x + r at the state's theta, that is theta plus the
    regression of E[r | x] on x.  With all of a record's mass on one x
    value this is OLS on the pairs (x, E[y | x]).
    """
    p = state.cell_weights
    s = state.support
    n = p.shape[0]
    mass = np.add.reduce(p, axis=0)
    pr = np.einsum("is,is->s", p, state.mean_r)
    mx = float(mass @ s) / n
    var_x = float(mass @ (s * s)) / n - mx**2
    if var_x <= 0.0:
        raise DegenerateDesignError("weighted variance of x is not positive")
    mr = float(np.add.reduce(pr)) / n
    shift = (float(pr @ s) / n - mx * mr) / var_x
    beta0, beta1 = state.theta
    return float(beta0 + mr - shift * mx), float(beta1 + shift)


def _conditional_scores(state: MCEMState, sigma: float):
    """The complete-data score's intercept and slope components given each
    x value, as (n, S) tables: E[r] / sigma^2 and x E[r] / sigma^2."""
    s0 = state.mean_r / sigma**2
    return s0, s0 * state.support


def observed_fisher(state: MCEMState, sigma: float) -> np.ndarray:
    """Louis-type observed information at the state's theta.

    The mean complete-data information minus the posterior variance of the
    complete-data score.  Records are independent given the release, so
    that variance is the sum of per-record score variances, each the
    variance of the score's conditional mean over the x values plus its
    mean conditional variance, Var(r | x) / sigma^4 [[1, x], [x, x^2]].
    The complete-data information for a regressor column x is
    (1/sigma^2) [[n, sum x], [sum x, sum x^2]] and does not depend on theta.
    """
    p = state.cell_weights
    s = state.support
    n = p.shape[0]
    mass = p.sum(axis=0)
    ex, exx = float(mass @ s), float(mass @ (s * s))
    info = np.array([[n, ex], [ex, exx]]) / sigma**2

    c0, c1 = _conditional_scores(state, sigma)
    c0 = c0 - np.einsum("is,is->i", p, c0)[:, None]
    c1 = c1 - np.einsum("is,is->i", p, c1)[:, None]
    pv = np.einsum("is,is->s", p, state.var_r) / sigma**4
    v00 = float(pv.sum() + np.einsum("is,is,is->", p, c0, c0))
    v01 = float(pv @ s + np.einsum("is,is,is->", p, c0, c1))
    v11 = float(pv @ (s * s) + np.einsum("is,is,is->", p, c1, c1))
    return info - np.array([[v00, v01], [v01, v11]])


def _mean_score(state: MCEMState, sigma: float):
    """Mean complete-data score at the state's theta, its Monte Carlo SE,
    and the summed magnitudes of its per-record terms.

    The mean is the sum of per-record weighted means of the score's
    conditional mean.  Records are drawn independently, so its variance is
    the sum over records of the self-normalized estimate
    sum_k w_ki^2 (s_ki - s̄_i)^2; the draws at one x value share w and s,
    so the sum over k is one over x values of counts w^2 = cell weight^2 /
    counts.  The magnitudes, sum_i |s̄_i|, size the rounding of the mean.
    """
    p = state.cell_weights
    # p is 0 wherever counts is, so those cells get 0 / 1
    pw = p * p / np.maximum(state.counts, 1)
    mean, var, size = np.empty(2), np.empty(2), np.empty(2)
    for j, c in enumerate(_conditional_scores(state, sigma)):
        m = np.einsum("is,is->i", p, c)
        c -= m[:, None]
        mean[j] = np.add.reduce(m)
        size[j] = np.add.reduce(np.abs(m))
        var[j] = np.einsum("is,is,is->", pw, c, c)
    return mean, np.sqrt(var), size


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
    An iteration counts as converged when each component of the mean
    complete-data score at its E-step (:func:`_mean_score`) lies within
    two Monte Carlo SE of zero, plus a rounding floor proportional to the
    summed magnitudes of its per-record terms (which decides only when the
    SE is 0); two consecutive converged iterations stop
    the run with converged=True, and config.max_iter caps it.  The rule
    measures Monte Carlo error rather than step size because fresh draws
    keep moving theta near the optimum.  A final fresh E-step at
    the solution supplies the Fisher information, the mean-score
    diagnostic, and the confidence ellipse; a non-positive-definite
    information matrix is reported via fisher_pd=False with the ellipse
    suppressed rather than raised.  Every E-step draws config.k_samples
    values per record, all from one x proposal built once per fit.
    """
    fit0 = ols(data.x_tilde, data.y_tilde)
    theta = (fit0.beta0_hat, fit0.beta1_hat)
    proposal = x_proposal(data, config.lam)

    trace = []
    consecutive = 0
    converged = False

    for t in range(1, config.max_iter + 1):
        state, _ = e_step(
            data, theta, config, stream(seed, "mcem-iter", t), proposal=proposal
        )
        theta = m_step(state)
        trace.append((t, *theta, state.ess))
        score, score_se, size = _mean_score(state, config.sigma)
        # both components, in Python floats: the same arithmetic as on the
        # arrays, in fewer steps
        if all(
            abs(m) <= _SCORE_Z * se + _SCORE_ROUNDING * sz
            for m, se, sz in zip(score.tolist(), score_se.tolist(), size.tolist())
        ):
            consecutive += 1
            if consecutive >= 2:
                converged = True
                break
        else:
            consecutive = 0

    state_f, _ = e_step(data, theta, config, stream(seed, "mcem-fisher"), proposal=proposal)
    fisher = observed_fisher(state_f, config.sigma)
    mean_score, mean_score_se, _ = _mean_score(state_f, config.sigma)

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
        trace=np.array(trace),
        converged=converged,
        fisher=fisher,
        fisher_pd=fisher_pd,
        mean_score=mean_score,
        mean_score_se=mean_score_se,
        k_final=config.k_samples,
    )


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
    config: MCEMConfig,
    methods: tuple = ("naive", "mcem"),
):
    """Repeatedly privatize one confidential dataset and collect ellipses.

    A single confidential sample of size n is drawn once; each replicate
    is an independent privatization of it.  For each replicate the naive
    OLS ellipse (textbook covariance on the noisy pairs) and/or the EM
    ellipse (inverse observed information) is computed and checked for
    coverage of the generating (beta0, beta1).  Both ellipses are at level
    ``config.alpha``; EM runs under ``config``, whose sigma and lam it
    takes as known.

    Returns
    -------
    (rows, rates)
        Per-replicate :class:`EllipseStudyRow` records in deterministic
        order, and a dict of coverage rates keyed by method.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    if not methods:
        raise ValueError("methods must name at least one of naive, mcem")
    for m in methods:
        if m not in ("naive", "mcem"):
            raise ValueError(f"unknown method {m!r}")
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
                    config.alpha,
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
