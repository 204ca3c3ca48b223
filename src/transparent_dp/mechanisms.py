"""Transparent privacy mechanisms: samplers, exact densities, verification.

Implements the pure-epsilon additive mechanisms (Laplace on reals, double
geometric on integers), binary randomized response, and a brute-force
differential-privacy verifier for the discrete families.

Every mechanism here is *transparent*: the noise family, its scale, and the
per-coordinate budgets are public objects (:class:`MechanismSpec`), so an
analyst can evaluate the exact release density.  All densities are exposed
in log space; budgets as small as 0.01 must not underflow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedFamilyError

# Smallest double geometric rate eps / sensitivity the sampler accepts.
# numpy's ziggurat standard_exponential never returns more than
# r + 53 ln 2 < 45 (r = 7.697 is the ziggurat's tail start; its tail draw is
# r - log1p(-U) with U at most 1 - 2^-53), so at this rate every floor(E / rate)
# stays below 4.5e13, far under 2^53, where floats still hold every integer.
# A smaller rate would round the noise, or overflow it to inf.
DG_MIN_RATE = 1e-12
# Largest Laplace scale the sampler accepts.  Its transform multiplies the
# scale by |log t| with t >= the smallest normal float, and |log t| <= 709
# there, so at this scale every draw stays finite.
LAPLACE_MAX_SCALE = float(np.finfo(float).max) / 709.0
# Largest |value| the double geometric mechanism releases.  Floats (the
# CLI reads values as floats) hold every integer only up to 2^53, and
# 2^53 plus noise below 4.5e13 (see DG_MIN_RATE) cannot wrap in int64.
DG_MAX_VALUE = 2**53
# Second-batch exponentials the double geometric sampler draws per call
# (32 KiB), so that a draw of n holds one array of n, not two.
_SCRATCH = 4096

__all__ = [
    "Family",
    "PrivacyBudget",
    "MechanismSpec",
    "DpReport",
    "DG_MIN_RATE",
    "DG_MAX_VALUE",
    "LAPLACE_MAX_SCALE",
    "laplace_noise",
    "laplace_log_density",
    "double_geometric_noise",
    "double_geometric_log_pmf",
    "privatize_vector",
    "check_dg_values",
    "verify_dp_discrete",
]


class Family(str, enum.Enum):
    """Mechanism noise family."""

    LAPLACE = "laplace"
    DOUBLE_GEOMETRIC = "double_geometric"
    RANDOMIZED_RESPONSE = "randomized_response"

    @property
    def additive(self) -> bool:
        return self in (Family.LAPLACE, Family.DOUBLE_GEOMETRIC)


@dataclass(frozen=True)
class PrivacyBudget:
    """A privacy-loss budget: a positive, finite epsilon.

    Smaller epsilon means stronger privacy and noisier releases.
    """

    epsilon: float

    def __post_init__(self) -> None:
        eps = self.epsilon
        if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0):
            raise ValueError(f"epsilon must be positive and finite, got {eps!r}")


@dataclass(frozen=True)
class MechanismSpec:
    """Public description of a privacy mechanism.

    For the additive families the noise scale is *derived*, never stored:
    ``scale = sensitivity / epsilon``.  For randomized response the
    binding quantity is the truth probability ``e^eps / (1 + e^eps)``.

    Parameters
    ----------
    family : Family
        Noise family.
    sensitivity : float
        Global sensitivity of the query (1 for counting queries).
    budget : PrivacyBudget
        Per-coordinate privacy-loss budget.
    """

    family: Family
    sensitivity: float
    budget: PrivacyBudget

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sensitivity) and self.sensitivity > 0):
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity!r}")
        if self.family is Family.DOUBLE_GEOMETRIC and not float(self.sensitivity).is_integer():
            raise ValueError(
                f"double geometric sensitivity must be an integer, got {self.sensitivity!r}"
            )
        if self.family is Family.RANDOMIZED_RESPONSE and self.sensitivity != 1:
            raise ValueError(
                f"randomized response has sensitivity 1, got {self.sensitivity!r}"
            )
        if self.family is Family.LAPLACE:
            _check_laplace_scale(self.scale)
        if self.family is Family.DOUBLE_GEOMETRIC:
            _check_dg_rate(self.budget.epsilon / self.sensitivity)

    @property
    def scale(self) -> float:
        """Noise scale for the additive families."""
        if not self.family.additive:
            raise UnsupportedFamilyError("scale is defined for additive families only")
        return self.sensitivity / self.budget.epsilon

    @property
    def truth_probability(self) -> float:
        """Randomized-response truth probability p = e^eps / (1 + e^eps)."""
        if self.family is not Family.RANDOMIZED_RESPONSE:
            raise UnsupportedFamilyError("truth probability applies to randomized response")
        return 1.0 / (1.0 + math.exp(-self.budget.epsilon))

    def log_density(self, delta):
        """Exact log density of the noise at ``delta``, normalization included.

        The Laplace density for the Laplace family, the pmf at integer
        ``delta`` for the double geometric; this is the one noise law that
        inference on a release reads from its public spec.
        """
        if self.family is Family.LAPLACE:
            return laplace_log_density(delta, self.scale)
        if self.family is Family.DOUBLE_GEOMETRIC:
            return double_geometric_log_pmf(delta, self.budget, self.sensitivity)
        raise UnsupportedFamilyError("log_density is defined for additive families only")

    def to_dict(self) -> dict:
        return {"family": self.family.value, "sensitivity": self.sensitivity,
                "epsilon": self.budget.epsilon}

    @classmethod
    def from_dict(cls, obj: dict) -> "MechanismSpec":
        # scale is always recomputed from (sensitivity, epsilon); any scale
        # field present in the input is untrusted and ignored.
        return cls(
            family=Family(obj["family"]),
            sensitivity=float(obj["sensitivity"]),
            budget=PrivacyBudget(float(obj["epsilon"])),
        )


def _check_laplace_scale(scale: float) -> None:
    if scale > LAPLACE_MAX_SCALE:
        raise ValueError(
            f"Laplace scale must be at most LAPLACE_MAX_SCALE={LAPLACE_MAX_SCALE!r} "
            f"(float max / 709) for finite noise, got {scale!r}"
        )


def _check_dg_rate(rate: float) -> None:
    if not rate >= DG_MIN_RATE:
        raise ValueError(
            f"double geometric rate eps / sensitivity must be at least "
            f"DG_MIN_RATE={DG_MIN_RATE!r} for exact integer noise, got {rate!r}"
        )


def check_dg_values(values) -> None:
    """Refuse finite values the double geometric mechanism cannot release.

    Raises ``ValueError`` unless every value is an integer at most
    :data:`DG_MAX_VALUE` in magnitude.
    """
    values = np.asarray(values)
    if not np.all(values == np.floor(values)):
        raise ValueError("double geometric mechanism requires integer values")
    if np.any(np.abs(values) > DG_MAX_VALUE):
        raise ValueError(
            f"double geometric values must be at most DG_MAX_VALUE={DG_MAX_VALUE} "
            f"(2^53) in magnitude, got {float(np.max(np.abs(values)))!r}"
        )


def laplace_noise(rng: np.random.Generator, scale: float, count: int) -> np.ndarray:
    """Draw i.i.d. zero-mean Laplace noise.

    Sampling is by the inverse-CDF transform of a single uniform draw per
    value, which is exact and symmetric between the two branches.

    Parameters
    ----------
    rng : numpy.random.Generator
        Source stream.
    scale : float
        Laplace scale b > 0, at most :data:`LAPLACE_MAX_SCALE`; the variance
        of each draw is 2 b^2.
    count : int
        Number of draws, at least 1.

    Returns
    -------
    numpy.ndarray
        ``count`` float draws.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive, got {scale!r}")
    _check_laplace_scale(scale)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    u = rng.random(count) - 0.5
    # 1 - 2|u| is 0 only when random() returns exactly 0; floor it to keep
    # the transform finite on that measure-zero event.
    t = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    return -scale * np.sign(u) * np.log(t)


def laplace_log_density(u, scale: float):
    """Exact log density of the zero-mean Laplace distribution.

    log f(u) = -log(2 b) - |u| / b, normalization included.

    Parameters
    ----------
    u : float or array_like
        Evaluation point(s).
    scale : float
        Laplace scale b > 0.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive, got {scale!r}")
    # In place on abs's fresh array: -log(2 b) - |u| / b, one temporary fewer.
    out = np.abs(np.asarray(u, dtype=float))
    out /= -scale
    out += -math.log(2.0 * scale)
    return float(out) if out.ndim == 0 else out


def double_geometric_noise(
    rng: np.random.Generator, budget: PrivacyBudget, count: int, sensitivity=1, *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw i.i.d. integer noise from the double geometric distribution.

    With rate a = eps / sensitivity and E ~ Exp(1), floor(E / a) is
    geometric on {0, 1, ...} with P(>= k) = e^(-a k).  Each draw is the
    difference of two such floors, the first ``count`` exponentials of the
    stream minus the next ``count``, and has pmf proportional to
    e^(-a |u|) with normalizing constant (1 - e^-a) / (1 + e^-a); no
    truncation.  The second ``count`` are drawn 4096 (``_SCRATCH``) at a
    time, which reads the stream exactly as one call would, so a call holds
    one array of ``count`` floats, not two.  Counts that differ by at most
    ``sensitivity`` then have output log-ratios of at most eps.  The
    floors are taken in floating point, as numpy's own geometric sampler
    does; a rate below :data:`DG_MIN_RATE` is refused, since its floors
    could exceed the integers a float holds exactly.

    Parameters
    ----------
    rng : numpy.random.Generator
        Source stream.
    budget : PrivacyBudget
        Budget eps of the mechanism.
    count : int
        Number of draws, at least 1.
    sensitivity : int
        Integer sensitivity of the released counts (default 1).
    out : numpy.ndarray, optional
        A contiguous float64 array of shape ``(count,)`` to draw into; the
        draws are then written as integer-valued floats, the same values,
        and no array of ``count`` draws is allocated.

    Returns
    -------
    numpy.ndarray
        ``count`` int64 draws, or ``out`` holding them.

    Raises
    ------
    ValueError
        If ``count`` is below 1, the rate is below :data:`DG_MIN_RATE`, or
        ``out`` is not a float64 array of shape ``(count,)``.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rate = budget.epsilon / sensitivity
    _check_dg_rate(rate)
    given = out is not None
    if not given:
        out = np.empty(count)
    elif out.dtype != np.float64 or out.shape != (count,):
        raise ValueError(f"out must be a float64 array of shape ({count},), "
                         f"got {out.dtype} of shape {out.shape}")
    _exponential_floors(rng, rate, out)
    scratch = np.empty(min(count, _SCRATCH))
    for start in range(0, count, _SCRATCH):
        part = out[start:start + _SCRATCH]
        part -= _exponential_floors(rng, rate, scratch[:part.size])
    return out if given else out.astype(np.int64)


def _exponential_floors(rng: np.random.Generator, rate: float, out: np.ndarray) -> np.ndarray:
    # floor(E / rate), in place, over a fresh batch of standard exponentials
    rng.standard_exponential(out=out)
    out /= rate
    return np.floor(out, out=out)


def double_geometric_log_pmf(u, budget: PrivacyBudget, sensitivity=1):
    """Exact log pmf of the double geometric distribution at integer u.

    The rate is eps / sensitivity, matching :func:`double_geometric_noise`.
    """
    rate = budget.epsilon / sensitivity
    log_const = math.log(-math.expm1(-rate)) - math.log1p(math.exp(-rate))
    u = np.asarray(u)
    out = log_const - rate * np.abs(u)
    return float(out) if out.ndim == 0 else out


def privatize_vector(values, spec: MechanismSpec, rng: np.random.Generator) -> np.ndarray:
    """Release a vector through the mechanism described by ``spec``.

    Parameters
    ----------
    values : array_like
        Query answers to privatize; must be finite.  Integer-valued and at
        most :data:`DG_MAX_VALUE` in magnitude for the double geometric
        family, bits for randomized response.  A Laplace release that
        overflows to inf is refused with a ``ValueError``.
    spec : MechanismSpec
        Public mechanism description.
    rng : numpy.random.Generator
        Source stream.

    Returns
    -------
    numpy.ndarray
        The privatized vector, the same size as ``values``: floats for the
        Laplace family, integers otherwise.  The realized noise stays with
        the curator and is not returned.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("values must be nonempty")
    if not np.all(np.isfinite(values.astype(float))):
        raise ValueError("values must be finite")
    n = values.size

    if spec.family is Family.LAPLACE:
        with np.errstate(over="ignore"):
            released = values.astype(float) + laplace_noise(rng, spec.scale, n)
        overflowed = ~np.isfinite(released)
        if overflowed.any():
            raise ValueError(
                f"Laplace release overflows to inf at {int(overflowed.sum())} of {n} values"
            )
        return released

    if spec.family is Family.DOUBLE_GEOMETRIC:
        check_dg_values(values)
        ints = values.astype(np.int64)
        return ints + double_geometric_noise(rng, spec.budget, n, spec.sensitivity)

    if np.any((values != 0) & (values != 1)):
        raise ValueError("randomized response requires binary values")
    p = spec.truth_probability
    bits = values.astype(np.int64)
    flips = rng.random(n) >= p
    return np.where(flips, 1 - bits, bits)


@dataclass(frozen=True)
class DpReport:
    """Result of a brute-force differential-privacy check."""

    max_log_ratio: float
    satisfied: bool
    epsilon_claimed: float


def verify_dp_discrete(
    family: Family,
    budget: PrivacyBudget,
    *,
    claimed: PrivacyBudget | None = None,
    sensitivity: int = 1,
) -> DpReport:
    """Brute-force the DP likelihood-ratio bound for a discrete family.

    Runs the mechanism at ``budget`` on a pair of adjacent inputs (counts
    0 and ``sensitivity`` for the double geometric, opposite truth bits for
    randomized response), enumerates the outputs, and takes the maximum
    absolute difference of output log probabilities.  The bound is checked
    against ``claimed`` if given, else against ``budget`` itself; the
    falsification case is a claim below the mechanism's true ratio.

    For the double geometric at sensitivity Δ the log ratio at output o is
    -eps (|o| - |o - Δ|) / Δ: eps at every o <= 0, -eps at every o >= Δ and
    linear in between.  The outputs scanned, -Δ, 0, Δ and 2Δ, therefore
    reach its largest magnitude, and the scan costs the same at every Δ.

    The per-output log ratios are formed after algebraic cancellation of
    the normalizing constants, so they are exact, not rounded differences
    of two logs.

    Parameters
    ----------
    family : Family
        Discrete family; the Laplace family is rejected (its bound is
        continuous and verified analytically in the test suite).
    budget : PrivacyBudget
        Budget the mechanism actually runs at.
    claimed : PrivacyBudget, optional
        The budget being claimed, when different from ``budget``.
    sensitivity : int
        Integer sensitivity the double geometric runs at (default 1);
        randomized response accepts 1 only.

    Returns
    -------
    DpReport
        Maximum log ratio found and whether it is within the claim
        (tolerance 1e-10).
    """
    eps = budget.epsilon
    eps_claimed = (claimed or budget).epsilon

    if family is Family.DOUBLE_GEOMETRIC:
        if not (sensitivity >= 1 and sensitivity % 1 == 0):
            raise ValueError(f"sensitivity must be a positive integer, got {sensitivity!r}")
        delta = int(sensitivity)
        # Adjacent counts 0 and delta; the log-pmf constant cancels exactly.
        # The integer gap is divided by delta before scaling, so the
        # extreme outputs give a ratio of exactly eps.  Python integers keep
        # the gap exact at any delta, and four outputs bound the whole range.
        max_log_ratio = max(abs(-eps * ((abs(o) - abs(o - delta)) / delta))
                            for o in (-delta, 0, delta, 2 * delta))
    elif family is Family.RANDOMIZED_RESPONSE:
        if sensitivity != 1:
            raise ValueError("randomized response has sensitivity 1")
        # Outputs {0, 1}, adjacent truths 0 and 1; P(out|truth) puts log
        # weight eps on agreement, 0 on disagreement, up to a shared
        # constant that cancels in the ratio.
        ratios = [eps * ((out == 0) - (out == 1)) for out in (0, 1)]
        max_log_ratio = float(max(abs(r) for r in ratios))
    else:
        raise UnsupportedFamilyError(
            f"verify_dp_discrete supports discrete families only, got {family}"
        )

    return DpReport(
        max_log_ratio=max_log_ratio,
        satisfied=max_log_ratio <= eps_claimed + 1e-10,
        epsilon_claimed=eps_claimed,
    )
