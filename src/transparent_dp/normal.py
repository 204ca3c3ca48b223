"""Standard normal CDF/quantile, the 2-df chi-square quantile, and the
Normal ⊛ Laplace convolution.

The scalar functions need only the standard library: the CDF is erfc-based
and the quantile is :class:`statistics.NormalDist`'s, whose error stays
within a few ulps.

The vectorized functions (numpy) work in the log domain, so they neither
underflow nor cancel in the far lower tail: log Φ, the moments of a normal
truncated above, and the density and conditional moments of a normal
observed through Laplace noise.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# log(erfcx(z) (2 + z) / 2) as a polynomial in x = (2 - z) / (2 + z), which
# maps z in [0, inf] onto [-1, 1]; erfcx(z) = exp(z^2) erfc(z).  This is the
# Chebyshev interpolant at 64 nodes, computed in 50-digit arithmetic, cut
# where its coefficients fall below 1e-17 (degree 27) and rewritten in powers
# of x.  Its coefficients sum to 1.46 in absolute value, so Horner's rule
# loses nothing to cancellation.
_ERFCX_POLY = (
    -0.6717940840566923, 0.6726432239776567, 0.04734330684190443,
    -0.0468956102311753, -0.009872689366389959, 0.008824938557060623,
    0.001758933557799016, -0.002345812500482853, -0.00014624686337800336,
    0.000673678795580235, -9.37350311709817e-05, -0.0001743029472030762,
    7.14010141275703e-05, 3.17451797494374e-05, -3.0187884551394243e-05,
    1.3772664134464417e-07, 8.562623420121286e-06, -2.947986876998259e-06,
    -1.27231190486887e-06, 1.2500276612569754e-06, -1.6849800720653297e-07,
    -2.495832761719667e-07, 1.5334345920908177e-07, 1.4448658046252676e-09,
    -3.9171820510271855e-08, 1.1172352263623759e-08, 4.06088214696972e-09,
    -1.8902306008944537e-09,
)
# Below a = -_GAP_SERIES_FROM the gap moments come from the asymptotic series
# t h(-t) = sum_k _GAP_SERIES[k] t^(-2k), whose terms past the last are below
# 1e-17 there.
_GAP_SERIES_FROM = 20.0
_GAP_SERIES = (
    1.0, -2.0, 10.0, -74.0, 706.0, -8162.0, 110410.0, -1708394.0,
    29752066.0, -576037442.0, 12277827850.0, -285764591114.0,
)


def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for Z standard normal."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def chi2_2_quantile(p: float) -> float:
    """Quantile of the chi-square distribution with 2 degrees of freedom.

    Closed form: the 2-df chi-square is exponential with mean 2, so the
    quantile at level p is -2 log(1 - p).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    return -2.0 * math.log1p(-p)


def _log_erfcx(z: np.ndarray) -> np.ndarray:
    """log(exp(z^2) erfc(z)) for z >= 0."""
    t = 2.0 / (2.0 + z)
    x = 2.0 * t - 1.0
    out = np.full_like(t, _ERFCX_POLY[-1])
    for c in _ERFCX_POLY[-2::-1]:
        out *= x
        out += c
    out += np.log(t)
    return out


def _log_cdf_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log Φ(a), log Φ(a) + a²/2), each to full relative precision."""
    half_sq = 0.5 * a * a
    # log Φ(-|a|) + a²/2 = log(erfcx(|a| / √2) / 2)
    tail = _log_erfcx(np.abs(a) / _SQRT2) - _LOG2
    upper = a > 0.0
    log_cdf = np.where(upper, np.log1p(-np.exp(tail - half_sq)), tail - half_sq)
    return log_cdf, np.where(upper, log_cdf + half_sq, tail)


def _gap_moments(a: np.ndarray, scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of a - Z given Z < a, for Z standard normal, given
    scaled = log Φ(a) + a²/2 (see :func:`_log_cdf_pair`).

    The mean is h(a) = a + φ(a)/Φ(a) and the variance 1 - h(a) φ(a)/Φ(a).
    Both are computed without the cancellation the formulas suffer when
    a << 0, where the gap is nearly exponential with rate -a.
    """
    ratio = np.exp(-_LOG_SQRT_2PI - scaled)  # φ(a) / Φ(a)
    h = a + ratio
    var = 1.0 - h * ratio
    # Far below, a + φ/Φ cancels; with t = -a and u = 1/t², t h = 1 - q and
    # E[(a - Z)²] = 1 + a h = q, where q = -sum_{k>=1} _GAP_SERIES[k] u^k.
    far = a < -_GAP_SERIES_FROM
    if far.any():
        t = -a[far]
        u = 1.0 / (t * t)
        q = np.zeros_like(t)
        for c in _GAP_SERIES[:0:-1]:
            q -= c
            q *= u
        h[far] = (1.0 - q) / t
        var[far] = q - u * (1.0 - q) ** 2
    return h, var


def normal_laplace(d, sigma: float, b: float):
    """Normal ⊛ Laplace: the law of d = r + e for r ~ N(0, sigma²) and
    independent Laplace(b) noise e, and the law of r given d.

    Split the joint density at r = d.  Below d, φ_σ(r) exp(-(d - r)/b) is a
    N(sigma²/b, sigma²) density truncated to r < d; above, a
    N(-sigma²/b, sigma²) density truncated to r > d.  With κ = sigma/b,
    a₁ = d/sigma - κ, a₂ = -d/sigma - κ and M(a) = log Φ(a) + a²/2,

        log g(d) = -log(2b) - d²/(2 sigma²) + log(exp M(a₁) + exp M(a₂)),

    the two pieces carry weights ∝ exp M(aⱼ), and their means are
    d - sigma h(a₁) and d + sigma h(a₂), with h and the variances from
    :func:`_gap_moments`.  M stays moderate even when κ is huge (a
    nearly noise-free release), where log Φ(aⱼ) and the square terms of a
    direct evaluation would cancel.

    Returns
    -------
    (log_g, mean, var)
        Arrays of d's shape: the log density of d, and E[r | d] and
        Var(r | d).
    """
    d = np.asarray(d, dtype=float)
    kappa = sigma / b
    scaled_d = d / sigma
    a = np.stack([scaled_d - kappa, -scaled_d - kappa])
    _, scaled = _log_cdf_pair(a)
    h, var = _gap_moments(a, scaled)
    total = np.logaddexp(scaled[0], scaled[1])
    p = np.exp(scaled - total)
    log_g = total - math.log(2.0 * b) - 0.5 * scaled_d * scaled_d
    mean = d - sigma * (p[0] * h[0] - p[1] * h[1])
    spread = h[0] + h[1]
    var = sigma**2 * (p[0] * var[0] + p[1] * var[1] + p[0] * p[1] * spread * spread)
    return log_g, mean, var
