"""Ordinary least squares, the naive fit to privatized data.

Fitting the textbook regression to privatized pairs ignores the additive
noise, so the slope is attenuated, the intercept drifts, and the residual
variance is inflated.  The slope's limit gamma * beta1 and its normal law
are in :mod:`asymptotics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError

__all__ = ["METHODS", "FitResult", "ols"]

METHODS = ("naive", "mcem")


@dataclass(frozen=True)
class FitResult:
    """Point estimates and covariance for a two-parameter regression fit."""

    beta0_hat: float
    beta1_hat: float
    covariance: np.ndarray
    residual_variance: float
    method: str
    n: int

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError(f"covariance must be 2x2, got shape {cov.shape}")
        # An all-NaN matrix is the explicit "covariance unavailable" sentinel.
        # Equal off-diagonal entries and a diagonal free of NaN pass the
        # allclose test; only other matrices need it.
        exact = cov[0, 1] == cov[1, 0] and cov[0, 0] == cov[0, 0] and cov[1, 1] == cov[1, 1]
        if not (exact or np.isnan(cov).all() or np.allclose(cov, cov.T)):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "covariance", cov)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.residual_variance < 0:
            raise ValueError("residual_variance must be nonnegative")


def ols(x, y) -> FitResult:
    """Fit y = beta0 + beta1 x by least squares.

    Parameters
    ----------
    x, y : array_like
        Paired observations, equal lengths, n >= 3.

    Returns
    -------
    FitResult
        Slope, intercept, classical covariance s^2 (X'X)^{-1} with the
        residual mean square s^2 on n - 2 degrees of freedom, method "naive".

    Raises
    ------
    DegenerateDesignError
        If x is constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")

    # np.add.reduce(x) / n is what x.mean() computes
    sum_x = np.add.reduce(x)
    x_bar = sum_x / n
    y_bar = np.add.reduce(y) / n
    # The squares and cross products in place, two arrays of n in all; the
    # same values as (x - x_bar) ** 2 and (x - x_bar) * (y - y_bar).
    d = x - x_bar
    e = y - y_bar
    e *= d
    d *= d
    sxx = float(np.add.reduce(d))
    if sxx == 0.0:
        raise DegenerateDesignError("x is constant; slope undefined")
    sxy = float(np.add.reduce(e))
    del d, e

    beta1 = sxy / sxx
    beta0 = float(y_bar - beta1 * x_bar)

    resid = y - beta0 - beta1 * x
    resid *= resid
    s_sq = float(np.add.reduce(resid)) / (n - 2)

    # (X'X)^{-1} for the design [1, x]; det = n * sxx.
    sum_x = float(sum_x)
    sum_xx = float(np.add.reduce(x * x))
    det = n * sxx
    xtx_inv = np.array([[sum_xx, -sum_x], [-sum_x, float(n)]]) / det

    return FitResult(
        beta0_hat=beta0,
        beta1_hat=beta1,
        covariance=s_sq * xtx_inv,
        residual_variance=s_sq,
        method="naive",
        n=n,
    )
