"""Exact per-record likelihood of a privatized regression release.

Independent of the package under test: it shares no code with it and uses
only numpy and scipy.  The model is x ~ Poisson(lam), y = b0 + b1 x + e with
e ~ Normal(0, sigma^2), and the release adds independent Laplace noise of
scale bx to x and by to y.  Records are independent, so the observed
log-likelihood is a sum over records of

    log sum_x Pois(x; lam) Lap(x~ - x; bx) g(y~ - b0 - b1 x),

where g is the closed-form density of Normal(0, sigma^2) + Laplace(by):

    g(t) = exp(sigma^2 / (2 by^2)) / (2 by)
           * [exp(-t/by) Phi(t/sigma - sigma/by) + exp(t/by) Phi(-t/sigma - sigma/by)].

The Poisson support is truncated where its upper tail mass falls below
1e-30, far beneath any term that carries weight.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, log_ndtr, logsumexp

# Argmax of the exact likelihood of the acceptance suite's n=4 release
# (x~ and y~ below, Laplace scale 2 on both, sigma 2, lam 5), found there
# by brute-force quadrature.
QUAD_ARGMAX = (3.51345, 1.64524)
QUAD_RELEASE = {
    "x_tilde": (8.747, 7.655, 3.661, 4.664),
    "y_tilde": (12.485, 19.217, 7.683, 11.223),
    "bx": 2.0, "by": 2.0, "sigma": 2.0, "lam": 5.0,
}


def _poisson_cutoff(lam: float, tail: float = 1e-30) -> int:
    """Smallest x whose Poisson(lam) mass beyond x is below ``tail``.

    For x + 1 > lam the mass beyond x is at most pmf(x + 1) / (1 - lam / (x + 2)),
    a geometric bound on the ratio of successive terms.
    """
    x = math.ceil(lam)
    while True:
        nxt = x + 1
        log_pmf = nxt * math.log(lam) - lam - math.lgamma(nxt + 1.0)
        if log_pmf - math.log1p(-lam / (nxt + 1.0)) < math.log(tail):
            return x
        x = nxt


class Release:
    """A release with its known constants, precomputed for fast evaluation."""

    def __init__(self, x_tilde, y_tilde, bx, by, sigma, lam):
        self.x_tilde = np.asarray(x_tilde, dtype=float)
        self.y_tilde = np.asarray(y_tilde, dtype=float)
        self.by, self.sigma = float(by), float(sigma)
        self.support = np.arange(_poisson_cutoff(lam) + 1, dtype=float)
        log_pois = self.support * math.log(lam) - lam - gammaln(self.support + 1.0)
        log_lap = -math.log(2.0 * bx) - np.abs(self.x_tilde[:, None] - self.support) / bx
        # (n, X): the parameter-free part of each record's mixture weights
        self.log_wx = log_pois[None, :] + log_lap

    def log_g(self, t):
        """Log density of Normal(0, sigma^2) + Laplace(by) at t."""
        s, b = self.sigma, self.by
        lo = -t / b + log_ndtr(t / s - s / b)
        hi = t / b + log_ndtr(-t / s - s / b)
        return -math.log(2.0 * b) + s * s / (2.0 * b * b) + np.logaddexp(lo, hi)

    def loglik(self, b0, b1):
        """Exact log-likelihood at (b0, b1); arrays broadcast to a grid."""
        b0 = np.asarray(b0, dtype=float)[..., None, None]
        b1 = np.asarray(b1, dtype=float)[..., None, None]
        t = self.y_tilde[:, None] - b0 - b1 * self.support
        per_record = logsumexp(self.log_wx + self.log_g(t), axis=-1)
        return per_record.sum(axis=-1)

    def argmax(self, starts):
        """Maximize the exact log-likelihood from each start; keep the best."""
        best = None
        for start in starts:
            res = minimize(
                lambda th: -float(self.loglik(th[0], th[1])),
                np.asarray(start, dtype=float),
                method="Nelder-Mead",
                options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000},
            )
            if best is None or res.fun < best.fun:
                best = res
        return (float(best.x[0]), float(best.x[1])), -float(best.fun)

    def posterior(self, box, points=201):
        """Mean likelihood over ``box``, and the posterior mean of (b0, b1),
        under a flat prior on ``box``.

        Trapezoid rule on a points x points grid over the box, evaluated in
        slabs of b1 values so the work arrays stay small.
        """
        (lo0, hi0), (lo1, hi1) = box
        g0 = np.linspace(lo0, hi0, points)
        g1 = np.linspace(lo1, hi1, points)
        ll = np.empty((points, points))
        for j in range(0, points, 16):
            ll[:, j:j + 16] = self.loglik(g0[:, None], g1[None, j:j + 16])
        wq = np.ones(points)
        wq[[0, -1]] = 0.5
        top = ll.max()
        post = np.exp(ll - top) * wq[:, None] * wq[None, :]
        mean_lik = math.exp(top) * float(post.sum()) / float(wq.sum()) ** 2
        post /= post.sum()
        return mean_lik, (float(post.sum(axis=1) @ g0), float(post.sum(axis=0) @ g1))


def self_test(tol=1e-4) -> float:
    """Distance from the reference argmax on the quadrature release to QUAD_ARGMAX."""
    theta, _ = Release(**QUAD_RELEASE).argmax([(4.0, 1.5)])
    err = max(abs(theta[0] - QUAD_ARGMAX[0]), abs(theta[1] - QUAD_ARGMAX[1]))
    if err > tol:
        raise AssertionError(
            f"reference likelihood argmax {theta} is {err:.2e} from {QUAD_ARGMAX}"
        )
    return err


def double_geometric_moments(eps: float) -> tuple[float, float]:
    """Variance and fourth moment of the double geometric law at eps.

    The pmf is proportional to exp(-eps |u|); with q = exp(-eps) the
    variance is 2 q / (1 - q)^2.  The fourth moment is summed over the
    support up to where the remaining mass is below 1e-300.
    """
    q = math.exp(-eps)
    var = 2.0 * q / (1.0 - q) ** 2
    u = np.arange(0, int(700.0 / eps) + 1, dtype=float)
    pmf = (1.0 - q) / (1.0 + q) * np.exp(-eps * u)
    m4 = float(2.0 * (pmf[1:] * u[1:] ** 4).sum())
    return var, m4
