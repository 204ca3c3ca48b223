"""Exact Bayesian inference on privatized data by rejection sampling.

Because the mechanism density is public and maximized at zero
perturbation, a prior-predictive proposal can be accepted with probability
equal to the mechanism density of the observed release over its mode.
Accepted parameter draws then follow the exact posterior given the
privatized data; there is no ABC tolerance and no approximation beyond
Monte Carlo.  That probability splits into an x and a y factor, and the
x factor involves no parameter, so the number of proposals in a batch
that pass the x test is one binomial draw.  Only the survivors simulate
y, record by record, each drawing record i's x from its release-conditional
pmf (the x proposal of :mod:`mcem`) on reaching record i; one loop runs
many batches per pass for both samplers.

The module also carries a small fully discrete test bed on which the same
posterior can be computed by exhaustive summation, two different ways: a
direct grid posterior, and the equivalent mixture of confidential-data
posteriors weighted by the predictive law of the confidential data given
the release.  A misreported-mechanism report demonstrates that the
posterior expectation is recovered exactly when, and only when, the
analyst's assumed mechanism matches the true one.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleABCError
from .mcem import _check_finite_positive, _x_release_pmf
from .mechanisms import Family, MechanismSpec, PrivacyBudget, privatize_vector
from .naive_fit import FitResult
from .simulate import PrivatizedDataset

__all__ = [
    "PriorSpec",
    "DiscreteToy",
    "AbcResult",
    "MisreportReport",
    "abc_exact_posterior",
    "abc_toy_posterior",
    "grid_posterior_oracle",
    "mixture_posterior_oracle",
    "misreported_mechanism_bias",
    "toy_privatized_observation",
    "random_toy",
    "posterior_fit",
    "samples_to_csv",
    "table_to_csv",
]

# Probe thresholds for declaring rejection sampling infeasible.
_PROBE_PROPOSALS = 10_000_000
_PROBE_RATE = 1e-8
# Bounds on one pass of the rejection samplers: batches, and expected
# x-stage survivors, so a tiny P_x or batch_size cannot grow a pass freely.
_PASS_BATCHES = 1 << 12
_PASS_SURVIVORS = 1 << 13


def _logsumexp(a: np.ndarray, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    return out if axis is None else np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class PriorSpec:
    """Proper prior over (beta0, beta1).

    kind "uniform_box" uses ``bounds = ((b0_lo, b0_hi), (b1_lo, b1_hi))``;
    equal endpoints give a point mass in that coordinate.  kind
    "independent_normal" uses ``means`` and ``sds`` pairs.
    """

    kind: str
    bounds: tuple | None = None
    means: tuple | None = None
    sds: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind == "uniform_box":
            if self.bounds is None:
                raise ValueError("uniform_box prior requires bounds")
            for lo, hi in self.bounds:
                if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    raise ValueError(f"invalid bounds ({lo}, {hi})")
        elif self.kind == "independent_normal":
            if self.means is None or self.sds is None:
                raise ValueError("independent_normal prior requires means and sds")
            for name in ("means", "sds"):
                if np.shape(getattr(self, name)) != (2,):
                    raise ValueError(f"prior {name} must be a (beta0, beta1) pair, "
                                     f"got {getattr(self, name)!r}")
            if any(not math.isfinite(m) for m in self.means):
                raise ValueError(f"prior means must be finite, got {self.means!r}")
            if any(not (math.isfinite(s) and s > 0) for s in self.sds):
                raise ValueError("prior sds must be positive")
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` (beta0, beta1) pairs, shape (size, 2)."""
        if self.kind == "uniform_box":
            (lo0, hi0), (lo1, hi1) = self.bounds
            b0 = rng.uniform(lo0, hi0, size) if hi0 > lo0 else np.full(size, lo0)
            b1 = rng.uniform(lo1, hi1, size) if hi1 > lo1 else np.full(size, lo1)
        else:
            (m0, m1), (s0, s1) = self.means, self.sds
            b0 = rng.normal(m0, s0, size)
            b1 = rng.normal(m1, s1, size)
        return np.column_stack([b0, b1])


@dataclass(frozen=True)
class DiscreteToy:
    """Fully discrete regression instance with finite supports.

    The confidential data are n pairs (x_i, y_i) on finite integer
    supports: x follows a Poisson(lam) law truncated to ``x_support`` and
    y given x a discretized normal around ``beta0 + beta * x`` on
    ``y_support``.  Both coordinates are privatized with the double
    geometric mechanism at the budget in ``mechanism``.  The unknown is
    the slope, ranging over ``beta_grid``; the intercept is known.
    """

    beta_grid: np.ndarray
    x_support: np.ndarray
    y_support: np.ndarray
    n: int
    mechanism: MechanismSpec
    beta0: float
    sigma: float
    lam: float
    prior_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_grid", np.asarray(self.beta_grid, dtype=float))
        object.__setattr__(self, "x_support", np.asarray(self.x_support, dtype=np.int64))
        object.__setattr__(self, "y_support", np.asarray(self.y_support, dtype=np.int64))
        if self.beta_grid.size == 0 or self.x_support.size == 0 or self.y_support.size == 0:
            raise ValueError("grids and supports must be nonempty")
        if not 1 <= self.n <= 4:
            raise ValueError(f"n must be between 1 and 4, got {self.n}")
        if self.mechanism.family is not Family.DOUBLE_GEOMETRIC:
            raise ValueError("toy mechanism must be double geometric")
        _check_finite_positive(sigma=self.sigma, lam=self.lam)
        if self.prior_weights is not None:
            w = np.asarray(self.prior_weights, dtype=float)
            if w.shape != self.beta_grid.shape or np.any(w < 0) or w.sum() <= 0:
                raise ValueError("prior_weights must be nonnegative over beta_grid")
            object.__setattr__(self, "prior_weights", w)

    def log_prior(self) -> np.ndarray:
        """Normalized log prior over beta_grid."""
        if self.prior_weights is None:
            return np.full(self.beta_grid.size, -math.log(self.beta_grid.size))
        lw = np.log(self.prior_weights.astype(float))
        return lw - _logsumexp(lw)

    def x_log_pmf(self) -> np.ndarray:
        """Truncated-Poisson log pmf of x over x_support."""
        xs = self.x_support.astype(float)
        raw = xs * math.log(self.lam) - np.array([math.lgamma(v + 1.0) for v in xs])
        return raw - _logsumexp(raw)

    def y_log_pmf(self) -> np.ndarray:
        """Discretized-normal log pmf of y, shape (G, X, Y), rows normalized in y."""
        mean = self.beta0 + self.beta_grid[:, None] * self.x_support[None, :].astype(float)
        raw = -((self.y_support[None, None, :].astype(float) - mean[:, :, None]) ** 2)
        raw = raw / (2.0 * self.sigma**2)
        return raw - _logsumexp(raw, axis=2)[:, :, None]


def _as_observation(toy: DiscreteToy, s_tilde_obs) -> tuple[np.ndarray, np.ndarray]:
    x_t, y_t = s_tilde_obs
    x_t = np.asarray(x_t, dtype=np.int64)
    y_t = np.asarray(y_t, dtype=np.int64)
    if x_t.shape != (toy.n,) or y_t.shape != (toy.n,):
        raise ValueError(f"observation must be two integer vectors of length {toy.n}")
    return x_t, y_t


def grid_posterior_oracle(toy: DiscreteToy, s_tilde_obs) -> np.ndarray:
    """Exact slope posterior given the privatized observation.

    Marginalizes the confidential data exactly: because observations are
    independent given the slope, the evidence factorizes per observation
    into sums over the finite (x, y) supports.  Returns masses over
    ``toy.beta_grid`` summing to 1.
    """
    x_t, y_t = _as_observation(toy, s_tilde_obs)
    lpx = toy.x_log_pmf()
    lpy = toy.y_log_pmf()
    # Mechanism log pmfs of the observed release given each support value.
    mech_x = toy.mechanism.log_density(x_t[:, None] - toy.x_support[None, :])
    mech_y = toy.mechanism.log_density(y_t[:, None] - toy.y_support[None, :])

    # inner[i, g, x] = log sum_y p(y | x, beta_g) p_mech(y~_i | y)
    inner = _logsumexp(lpy[None, :, :, :] + mech_y[:, None, None, :], axis=3)
    # per_obs[i, g] = log sum_x p(x) p_mech(x~_i | x) inner[i, g, x]
    per_obs = _logsumexp(lpx[None, None, :] + mech_x[:, None, :] + inner, axis=2)

    log_post = toy.log_prior() + per_obs.sum(axis=0)
    log_post -= _logsumexp(log_post)
    return np.exp(log_post)


def mixture_posterior_oracle(toy: DiscreteToy, s_tilde_obs) -> np.ndarray:
    """Same posterior as a mixture of confidential-data analyses.

    Enumerates every joint confidential dataset s, computes the
    confidential posterior over the slope for that s, weights it by the
    predictive probability of s given the release, and mixes.  This is a
    deliberately different computational route from
    :func:`grid_posterior_oracle` (joint enumeration versus per-observation
    factorization); the two must agree to high accuracy.
    """
    x_t, y_t = _as_observation(toy, s_tilde_obs)
    G = toy.beta_grid.size
    lpx = toy.x_log_pmf()
    lpy = toy.y_log_pmf()

    # Per-observation configuration table over all (x, y) pairs.
    xi, yi = np.meshgrid(
        np.arange(toy.x_support.size), np.arange(toy.y_support.size), indexing="ij"
    )
    xi, yi = xi.ravel(), yi.ravel()
    base = lpx[None, xi] + lpy[:, xi, yi]  # (G, M) model log prob of one obs
    log_f = toy.mechanism.log_density

    # Joint model log likelihood A (configs x G) and mechanism log pmf B.
    log_lik = np.zeros((1, G))
    log_mech = np.zeros(1)
    for i in range(toy.n):
        mech_i = log_f(x_t[i] - toy.x_support[xi]) + log_f(y_t[i] - toy.y_support[yi])
        log_lik = (log_lik[:, None, :] + base.T[None, :, :]).reshape(-1, G)
        log_mech = (log_mech[:, None] + mech_i[None, :]).reshape(-1)

    log_prior = toy.log_prior()
    joint = log_prior[None, :] + log_lik
    evidence = _logsumexp(joint, axis=1)  # log sum_beta prior * L(s | beta)
    conditional = np.exp(joint - evidence[:, None])  # posterior given each s

    log_pred = log_mech + evidence  # predictive weight of s given release
    pred = np.exp(log_pred - _logsumexp(log_pred))
    return pred @ conditional


@dataclass(frozen=True)
class MisreportReport:
    """Posterior means under the true and an assumed mechanism budget."""

    mean_true: float
    mean_assumed: float
    discrepancy: float
    true_eps: float
    assumed_eps: float


def misreported_mechanism_bias(
    toy: DiscreteToy,
    s_tilde_obs,
    true_eps: float,
    assumed_eps: float,
) -> MisreportReport:
    """Posterior-mean error from analyzing under the wrong mechanism.

    Computes the slope posterior mean twice: under the mechanism budget
    that actually generated the release, and under the budget the analyst
    assumes.  ``assumed_eps`` may be infinite, in which case the analyst
    treats the release as confidential data (the naive analysis).  The
    discrepancy is zero exactly when the assumed budget equals the truth.
    """
    if not true_eps > 0 or not math.isfinite(true_eps):
        raise ValueError("true_eps must be positive and finite")
    if not assumed_eps > 0:
        raise ValueError("assumed_eps must be positive")

    def posterior_mean(eps: float) -> float:
        if math.isinf(eps):
            masses = _identity_mechanism_posterior(toy, s_tilde_obs)
        else:
            mechanism = replace(toy.mechanism, budget=PrivacyBudget(eps))
            masses = grid_posterior_oracle(replace(toy, mechanism=mechanism), s_tilde_obs)
        return float(masses @ toy.beta_grid)

    mean_true = posterior_mean(true_eps)
    mean_assumed = posterior_mean(assumed_eps)
    return MisreportReport(
        mean_true=mean_true,
        mean_assumed=mean_assumed,
        discrepancy=mean_assumed - mean_true,
        true_eps=true_eps,
        assumed_eps=assumed_eps,
    )


def _identity_mechanism_posterior(toy: DiscreteToy, s_tilde_obs) -> np.ndarray:
    """Posterior when the release is taken at face value (no noise assumed)."""
    x_t, y_t = _as_observation(toy, s_tilde_obs)
    in_x = np.isin(x_t, toy.x_support)
    in_y = np.isin(y_t, toy.y_support)
    if not (in_x.all() and in_y.all()):
        raise ValueError(
            "face-value analysis needs the release inside the model supports"
        )
    lpx = toy.x_log_pmf()
    lpy = toy.y_log_pmf()
    ix = np.searchsorted(toy.x_support, x_t)
    iy = np.searchsorted(toy.y_support, y_t)
    log_post = toy.log_prior() + (lpx[ix][None, :] + lpy[:, ix, iy]).sum(axis=1)
    log_post -= _logsumexp(log_post)
    return np.exp(log_post)


def toy_privatized_observation(toy: DiscreteToy, beta: float, rng: np.random.Generator):
    """Simulate one privatized release from the toy at slope ``beta``.

    Returns ((x_tilde, y_tilde), (x, y)) with the confidential draw kept
    for test oracles.
    """
    lpx = toy.x_log_pmf()
    x_idx = rng.choice(toy.x_support.size, size=toy.n, p=np.exp(lpx))
    x = toy.x_support[x_idx]
    g = int(np.argmin(np.abs(toy.beta_grid - beta)))
    if not np.isclose(toy.beta_grid[g], beta):
        raise ValueError("beta must lie on beta_grid")
    lpy = toy.y_log_pmf()[g]
    y = np.empty(toy.n, dtype=np.int64)
    for i in range(toy.n):
        y[i] = toy.y_support[rng.choice(toy.y_support.size, p=np.exp(lpy[x_idx[i]]))]
    x_tilde, _ = privatize_vector(x, toy.mechanism, rng)
    y_tilde, _ = privatize_vector(y, toy.mechanism, rng)
    return (x_tilde, y_tilde), (x, y)


def random_toy(rng: np.random.Generator, n_max: int = 3) -> tuple[DiscreteToy, tuple]:
    """Draw a small random toy instance plus a simulated observation.

    Supports are kept small enough that the joint-enumeration oracle stays
    cheap (at most a few hundred thousand configurations).
    """
    n = int(rng.integers(1, n_max + 1))
    x_lo = int(rng.integers(0, 3))
    x_support = np.arange(x_lo, x_lo + int(rng.integers(3, 6)))
    beta0 = float(rng.integers(-2, 3))
    sigma = float(rng.uniform(0.8, 2.0))
    lam = float(rng.uniform(1.0, 4.0)) + x_lo
    grid = np.round(np.linspace(-1.5, 2.5, int(rng.integers(5, 12))), 3)
    lo = math.floor(beta0 + min(grid.min() * x_support.max(), grid.min() * x_support.min()) - 2 * sigma)
    hi = math.ceil(beta0 + max(grid.max() * x_support.max(), 0) + 2 * sigma)
    span = hi - lo
    if span > 8:  # cap the y support so enumeration stays small
        y_support = np.linspace(lo, hi, 9).round().astype(int)
        y_support = np.unique(y_support)
    else:
        y_support = np.arange(lo, hi + 1)
    eps = float(rng.uniform(0.2, 1.0))
    toy = DiscreteToy(
        beta_grid=grid,
        x_support=x_support,
        y_support=y_support,
        n=n,
        mechanism=MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(eps)),
        beta0=beta0,
        sigma=sigma,
        lam=lam,
        prior_weights=None,
    )
    beta = float(toy.beta_grid[int(rng.integers(0, toy.beta_grid.size))])
    s_tilde, _ = toy_privatized_observation(toy, beta, rng)
    return toy, s_tilde


@dataclass(frozen=True)
class AbcResult:
    """Accepted posterior draws and the acceptance accounting.

    ``samples`` holds (beta0, beta1) rows from :func:`abc_exact_posterior`
    and slope values from :func:`abc_toy_posterior`; ``acceptance_rate``
    is the accepted share of all ``proposals`` made.
    """

    samples: np.ndarray
    acceptance_rate: float
    proposals: int


def _x_stage_tables(log_pass: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed form of the x stages from an (n, S) table whose entry (i, s)
    is log P(x_i = support[s]) plus record i's x-acceptance log ratio.

    Returns the probability that a proposal passes every x stage, the
    product over records of each row's total, and each row's cumulative
    pmf of x_i given that it passed.
    """
    log_rows = _logsumexp(log_pass, axis=1)
    cdf = np.cumsum(np.exp(log_pass - log_rows[:, None]), axis=1)
    # min: a product that is 1 up to rounding must stay a probability
    return min(1.0, math.exp(float(log_rows.sum()))), cdf


def _rejection_passes(rng: np.random.Generator, draws: int, batch_size: int,
                      p_x: float, x_cdf: np.ndarray, draw_theta, y_penalty) -> AbcResult:
    """The rejection loop of both exact samplers, many batches per pass.

    A pass draws the x-stage survivor counts of its batches in one
    binomial call, tags each survivor with its batch and gives it
    ``draw_theta(m)`` parameters and a uniform u.  Record by record, the
    survivors still alive draw x_i from row i of ``x_cdf`` and are charged
    ``y_penalty(i, theta, ix)`` against the slack -log u.

    The sampler stops at the first batch whose running accepted count
    reaches ``draws``, or at which the probe fails, and drops every later
    batch of the pass, so ``proposals`` is a whole number of batches, as in
    a batch-at-a-time loop.  The first pass holds one batch, later ones the
    number the running rate expects to finish, at most twice the batches
    run so far (doubling while nothing is accepted), ``_PASS_BATCHES`` and
    ``_PASS_SURVIVORS`` expected survivors, unless one batch holds more.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    last = x_cdf.shape[1] - 1
    cap = max(1, min(_PASS_BATCHES, int(_PASS_SURVIVORS / max(1.0, batch_size * p_x))))
    accepted = []
    count = batches = 0
    size = 1
    while True:
        batch = np.repeat(np.arange(size), rng.binomial(batch_size, p_x, size))
        slack = -np.log(rng.random(batch.size))
        theta = draw_theta(batch.size)
        for i, row in enumerate(x_cdf):
            # the clip guards the u > row[-1] float edge
            ix = np.minimum(np.searchsorted(row, rng.random(slack.size), side="right"), last)
            slack = slack - y_penalty(i, theta, ix)
            alive = np.flatnonzero(slack > 0)
            slack, theta, batch = slack[alive], theta[alive], batch[alive]
        running = count + np.cumsum(np.bincount(batch, minlength=size))
        props = batch_size * (batches + np.arange(1, size + 1))
        probe = (props >= _PROBE_PROPOSALS) & (running / props < _PROBE_RATE)
        stop = np.flatnonzero(probe | (running >= draws))
        end = int(stop[0]) + 1 if stop.size else size
        count, batches = int(running[end - 1]), batches + end
        proposals = batches * batch_size
        if probe[end - 1]:
            raise InfeasibleABCError(
                f"acceptance rate {count / proposals:.3g} after {proposals} proposals"
            )
        # survivors stay in batch order: the first `draws` lie in batches up to `end`
        accepted.append(theta)
        if stop.size:
            break
        expect = math.ceil((draws - count) * batches / count) if count else 2 * size
        size = min(cap, 2 * batches, expect)
    # a copy, so the result does not keep the last batch's surplus rows alive
    samples = np.concatenate(accepted)[:draws].copy()
    return AbcResult(samples=samples, acceptance_rate=count / proposals, proposals=proposals)


def abc_exact_posterior(
    data: PrivatizedDataset,
    prior: PriorSpec,
    draws: int,
    rng: np.random.Generator,
    *,
    lam: float,
    sigma: float,
    batch_size: int = 20_000,
) -> AbcResult:
    """Exact posterior draws for (beta0, beta1) given a privatized release.

    Proposals come from the prior; for each proposal a confidential
    dataset is simulated from the generative law (x Poisson(lam), y normal
    around the line with scale sigma, both known), and the proposal is
    accepted with probability equal to the declared mechanism density
    (``data.spec_x`` and ``data.spec_y``) of the observed release at that
    dataset divided by its mode, always a valid probability.

    That probability is a product A_x A_y of an x and a y factor, each a
    product over records, so testing A_x and A_y with two independent
    uniforms gives the same accept event as one uniform against A_x A_y.
    The x factor does not involve the parameters, so the x stages run in
    closed form.  Of a batch of N proposals, the number that pass every x
    stage is Binomial(N, P_x) with P_x = prod_i sum_s Pois(s; lam)
    f_x(x~_i - s) / f_x(0), and given that a proposal passed, its x_i are
    independent draws from q_i(s) ∝ Pois(s; lam) f_x(x~_i - s), the
    :func:`mcem.x_proposal` pmf.  Only those survivors draw parameters from
    the prior and go through the y stages, which run as a staged rejection:
    each survivor draws one uniform u and is accepted iff its summed
    penalties, mode - log_density(y_i - y~_i), stay below -log u, and it is
    dropped as soon as that slack, -log u less its running sum, reaches 0.
    The records are independent given that a proposal passed every x
    stage, so a survivor draws x_i only on reaching record i.  The accept
    event, and so the law of the draws and of the acceptance count, is that
    of simulating every proposal in full; only the order in which ``rng``
    is consumed differs.  ``batch_size`` stays the unit of accounting:
    ``proposals`` counts whole batches up to the first that completes
    ``draws``, though many batches run in one pass (:func:`_rejection_passes`).

    The sums over s run over the truncated support of
    :func:`mcem.x_proposal`; the tail left out, below 1e-15 of each
    record's largest term, is the only approximation.

    Raises
    ------
    ValueError
        If ``draws`` or ``batch_size`` is below 1, the release is empty, or
        ``lam`` or ``sigma`` is not finite and positive.
    DegenerateWeightsError
        If the x support would pass 100 000 (lam or a release that large).
    InfeasibleABCError
        If the acceptance rate stays below 1e-8 over a 1e7-proposal probe.
    """
    if data.n < 1:
        raise ValueError("release must hold at least one record")
    _check_finite_positive(lam=lam, sigma=sigma)
    log_fx, log_fy = data.spec_x.log_density, data.spec_y.log_density
    mode_x, mode_y = log_fx(0.0), log_fy(0.0)
    support, log_q, log_mass = _x_release_pmf(data, lam)
    p_x, x_cdf = _x_stage_tables(log_q + (log_mass - lam - mode_x)[:, None])

    def y_penalty(i, theta, ix):
        y = theta[:, 0] + theta[:, 1] * support[ix] + rng.normal(0.0, sigma, ix.size)
        return mode_y - log_fy(y - data.y_tilde[i])

    return _rejection_passes(rng, draws, batch_size, p_x, x_cdf,
                             lambda m: prior.sample(rng, m), y_penalty)


def abc_toy_posterior(
    toy: DiscreteToy,
    s_tilde_obs,
    draws: int,
    rng: np.random.Generator,
    batch_size: int = 20_000,
) -> AbcResult:
    """Exact rejection sampler for the discrete toy's slope posterior.

    Same acceptance rule, passes and batch accounting as
    :func:`abc_exact_posterior`, charging the declared mechanism's log pmf
    below its mode for every perturbation: the x stages in closed form over
    the toy's finite ``x_support``, which needs no truncation, then a
    staged y test for the survivors, each drawing x_i at record i's stage.
    """
    x_t, y_t = _as_observation(toy, s_tilde_obs)
    log_f = toy.mechanism.log_density
    mode = log_f(0)
    prior = np.exp(toy.log_prior())
    log_pass = toy.x_log_pmf() + log_f(x_t[:, None] - toy.x_support) - mode
    p_x, x_cdf = _x_stage_tables(log_pass)
    cdf = np.cumsum(np.exp(toy.y_log_pmf()), axis=2)  # (G, X, Y)
    last = toy.y_support.size - 1

    def y_penalty(i, g, ix):
        # inverse-CDF y draw from the row of cdf selected by (g, ix);
        # the clip guards the u > cdf[..., -1] float edge
        u = rng.random((ix.size, 1))
        iy = np.minimum((u > cdf[g, ix]).sum(axis=1), last)
        return mode - log_f(y_t[i] - toy.y_support[iy])

    res = _rejection_passes(rng, draws, batch_size, p_x, x_cdf,
                            lambda m: rng.choice(toy.beta_grid.size, size=m, p=prior),
                            y_penalty)
    return replace(res, samples=toy.beta_grid[res.samples])


def posterior_fit(samples: np.ndarray, n: int, sigma_sq: float) -> FitResult:
    """Summarize posterior draws as a FitResult (mean and sample covariance)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
        raise ValueError("samples must be a (draws, 2) array with draws >= 2")
    mean = samples.mean(axis=0)
    cov = np.cov(samples.T)
    return FitResult(
        beta0_hat=float(mean[0]),
        beta1_hat=float(mean[1]),
        covariance=cov,
        residual_variance=sigma_sq,
        method="abc",
        n=n,
    )


def samples_to_csv(samples: np.ndarray) -> str:
    """Render posterior draws as CSV (draw, beta0, beta1)."""
    samples = np.asarray(samples, dtype=float)
    buf = io.StringIO()
    buf.write("draw,beta0,beta1\n")
    for i, row in enumerate(samples):
        buf.write(f"{i},{float(row[0])!r},{float(row[1])!r}\n")
    return buf.getvalue()


def table_to_csv(beta_grid, masses) -> str:
    """Render an oracle posterior table as CSV (beta, mass)."""
    buf = io.StringIO()
    buf.write("beta,mass\n")
    for b, m in zip(beta_grid, masses):
        buf.write(f"{float(b)!r},{float(m)!r}\n")
    return buf.getvalue()
