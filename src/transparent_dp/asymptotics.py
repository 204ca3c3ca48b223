"""Fixed-design large-sample theory for the naive slope on privatized data.

Treats the confidential regressor as a fixed design, takes the privacy
noise on both coordinates as Laplace with known variances, and gives the
exact normal limit of the naive slope: center gamma * beta1 with the
biasing coefficient gamma = v / (v + sigma_u^2), and an explicit asymptotic
variance driven by the design's second and fourth central moments.

Coverage of nominal intervals follows in closed form.  Two interval
conventions are supported, because an analyst may compute the standard
error either from the privacy-aware limit above or from the classical
noise-free formula; both are reported by the grid evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError
from .normal import std_normal_cdf, std_normal_quantile
from .rng import stream

__all__ = [
    "CONVENTIONS",
    "REFERENCE_DESIGN_SEED",
    "FixedDesignMoments",
    "sample_moments",
    "biasing_coefficient",
    "clt_variance",
    "distribution_limits",
    "limit_coverage",
    "coverage_grid",
    "reference_design",
]

CONVENTIONS = ("privacy_aware_se", "classical_se")

# Standard-normal design of size 500 whose unadjusted sample variance is
# 1.023 to within 5e-5; found by direct search over seeds.
REFERENCE_DESIGN_SEED = 876


@dataclass(frozen=True)
class FixedDesignMoments:
    """Second and fourth central moments of a fixed design."""

    v: float
    k: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and self.v > 0):
            raise ValueError(f"v must be positive, got {self.v!r}")
        # Cauchy-Schwarz on central moments; allow float slack at equality.
        if self.k < self.v**2 * (1.0 - 1e-12):
            raise ValueError("k must be at least v^2")


def sample_moments(x) -> FixedDesignMoments:
    """Unadjusted sample variance and fourth central moment of a design.

    v = (1/n) sum (x - xbar)^2 and k = (1/n) sum (x - xbar)^4.

    Raises
    ------
    DegenerateDesignError
        If x is constant.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-d array with at least 2 entries")
    centered = x - x.mean()
    v = float(np.mean(centered**2))
    if v == 0.0:
        raise DegenerateDesignError("x is constant; moments degenerate")
    k = float(np.mean(centered**4))
    return FixedDesignMoments(v=v, k=k, n=x.size)


def biasing_coefficient(moments: FixedDesignMoments, sigma_u_sq: float) -> float:
    """Multiplicative bias gamma = v / (v + sigma_u_sq) of the naive slope."""
    if sigma_u_sq < 0:
        raise ValueError("sigma_u_sq must be nonnegative")
    return moments.v / (moments.v + sigma_u_sq)


def clt_variance(
    moments: FixedDesignMoments,
    beta1: float,
    sigma_sq: float,
    sigma_u_sq: float,
    sigma_v_sq: float,
) -> float:
    """Asymptotic variance of sqrt(n) times the naive slope.

    With v and k the design moments, gamma the biasing coefficient, and
    Laplace noise of variances sigma_u_sq (on x) and sigma_v_sq (on y):

        { beta1^2 [ gamma^2 (k + 6 su v + 6 su^2)
                    - 2 gamma (k + 3 su v) + k + su v ]
          + (sigma_v_sq + sigma_sq) (v + su) } / (v + su)^2

    where su = sigma_u_sq.  The fourth-moment terms come from the exact
    Laplace moment identities E(a+u)^2 = a^2 + su and
    E(a+u)^4 = a^4 + 6 a^2 su + 6 su^2.

    Raises
    ------
    ValueError
        If a variance is negative, or the result is not a finite float:
        an input is not finite, or a term overflows.
    """
    for name, val in (("sigma_sq", sigma_sq), ("sigma_u_sq", sigma_u_sq),
                      ("sigma_v_sq", sigma_v_sq)):
        if val < 0:
            raise ValueError(f"{name} must be nonnegative, got {val!r}")
    v, k = moments.v, moments.k
    # As Python floats, a square that overflows raises instead of warning.
    beta1, sigma_sq, su, sigma_v_sq = map(float, (beta1, sigma_sq, sigma_u_sq, sigma_v_sq))
    try:
        if su == 0.0 and sigma_v_sq == 0.0:
            # Noise-free reduction; keep it bit-identical to sigma^2 / v.
            out = sigma_sq / v
        else:
            gamma = biasing_coefficient(moments, su)
            bracket = (
                gamma**2 * (k + 6.0 * su * v + 6.0 * su**2)
                - 2.0 * gamma * (k + 3.0 * su * v)
                + k
                + su * v
            )
            denom = (v + su) ** 2
            out = (beta1**2 * bracket + (sigma_v_sq + sigma_sq) * (v + su)) / denom
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(
            f"the CLT variance is not finite at v={v!r}, k={k!r}, beta1={beta1!r}, "
            f"sigma_sq={sigma_sq!r}, sigma_u_sq={su!r}, sigma_v_sq={sigma_v_sq!r}"
        )
    return out


def distribution_limits(
    gamma: float,
    beta1: float,
    sigma_tilde: float,
    n: int,
    alpha: float,
) -> tuple[float, float]:
    """Lower and upper normal-limit quantiles for the naive slope.

    Returns gamma * beta1 -/+ z_{1 - alpha/2} sqrt(sigma_tilde / n).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if sigma_tilde < 0:
        raise ValueError("sigma_tilde must be nonnegative")
    z = std_normal_quantile(1.0 - alpha / 2.0)
    center = gamma * beta1
    half = z * math.sqrt(sigma_tilde / n)
    return (center - half, center + half)


def limit_coverage(
    gamma: float,
    beta1: float,
    sigma_tilde: float,
    n: int,
    alpha: float,
    convention: str = "privacy_aware_se",
    sigma_sq: float | None = None,
    v: float | None = None,
) -> float:
    """Exact asymptotic coverage of a nominal (1 - alpha) slope interval.

    The naive slope is Normal(gamma * beta1, sigma_tilde / n); the interval
    is the estimate plus or minus z * SE.  Under ``privacy_aware_se`` the
    analyst uses SE = sqrt(sigma_tilde / n); under ``classical_se`` the
    noise-free textbook SE = sqrt(sigma_sq / (n v)), which requires the
    ``sigma_sq`` and ``v`` arguments.

    Returns the probability that the interval covers the true beta1.  With
    no privacy noise this is exactly 1 - alpha; as the x-noise grows the
    bias (gamma - 1) beta1 dominates and coverage drops to zero.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if sigma_tilde <= 0:
        raise ValueError("sigma_tilde must be positive")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")

    z = std_normal_quantile(1.0 - alpha / 2.0)
    s = math.sqrt(sigma_tilde / n)
    if convention == "privacy_aware_se":
        half = z * s
    else:
        if sigma_sq is None or v is None:
            raise ValueError("classical_se requires sigma_sq and v")
        half = z * math.sqrt(sigma_sq / (n * v))

    # Coverage depends on the bias only through its magnitude, so fold the
    # sign out; this keeps beta1 -> -beta1 symmetry exact in floats.
    bias = abs((gamma - 1.0) * beta1)
    return std_normal_cdf((half - bias) / s) - std_normal_cdf((-half - bias) / s)


def coverage_grid(
    x,
    beta1: float,
    sigma_sq: float,
    sigma_u_range,
    sigma_v_range,
    alpha: float = 0.05,
    convention: str = "both",
) -> list[tuple[float, float, str, float]]:
    """Evaluate interval coverage over a grid of noise levels.

    Parameters
    ----------
    x : array_like
        Fixed design; its sample moments drive every cell.
    beta1, sigma_sq : float
        True slope and idiosyncratic variance.
    sigma_u_range, sigma_v_range : array_like
        Noise standard deviations (not variances) for x and y.
    alpha : float
        Interval level.
    convention : str
        One of ``privacy_aware_se``, ``classical_se``, or ``both``.

    Returns
    -------
    list of (sigma_u, sigma_v, convention, coverage)
        Long-form rows in deterministic order: sigma_u outer, sigma_v
        inner, convention innermost.
    """
    if convention == "both":
        conventions = list(CONVENTIONS)
    elif convention in CONVENTIONS:
        conventions = [convention]
    else:
        raise ValueError(f"convention must be one of {CONVENTIONS + ('both',)}")

    moments = sample_moments(x)
    rows = []
    # Python floats, so a square that overflows raises OverflowError.
    for su in np.asarray(sigma_u_range, dtype=float).tolist():
        if su < 0:
            raise ValueError("sigma_u values must be nonnegative")
        for sv in np.asarray(sigma_v_range, dtype=float).tolist():
            if sv < 0:
                raise ValueError("sigma_v values must be nonnegative")
            sigma_tilde = clt_variance(moments, beta1, sigma_sq, su**2, sv**2)
            gamma = biasing_coefficient(moments, su**2)
            for conv in conventions:
                cov = limit_coverage(
                    gamma, beta1, sigma_tilde, moments.n, alpha,
                    convention=conv, sigma_sq=sigma_sq, v=moments.v,
                )
                rows.append((su, sv, conv, cov))
    return rows


def reference_design(n: int = 500) -> np.ndarray:
    """Stored standard-normal design for the coverage study.

    Its seed, :data:`REFERENCE_DESIGN_SEED`, is fixed so that the n = 500
    design has unadjusted sample variance 1.023 to within 5e-4, matching the
    documented study configuration; regeneration is bit-reproducible.
    An ``n`` below 2 is refused: no slope can be fitted on such a design.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return stream(REFERENCE_DESIGN_SEED, "reference-design").normal(0.0, 1.0, n)
