"""Confidential regression data and its privatized release.

The setting is a simple linear regression with a Poisson regressor: the
curator holds (x_i, y_i), releases (x_i + u_i, y_i + v_i) with independent
Laplace noise at per-coordinate budgets eps_x and eps_y, and publishes the
mechanism specs alongside the noisy values.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedFamilyError
from .mechanisms import Family, MechanismSpec, PrivacyBudget, privatize_vector

__all__ = [
    "RegressionParams",
    "ConfidentialDataset",
    "PrivatizedDataset",
    "gen_confidential",
    "privatize_dataset",
    "dataset_from_dict",
    "dataset_to_json",
    "dataset_from_json",
    "json_parts",
]

# Values per slice when an array is written as text, so a writer holds one
# slice's text (and Python numbers, where it uses them) at a time, not the
# whole array's.
_SLICE = 65_536


@dataclass(frozen=True)
class RegressionParams:
    """Generating parameters of the regression model.

    The model is x_i ~ Poisson(lam) and y_i = beta0 + beta1 * x_i + e_i
    with e_i ~ Normal(0, sigma^2).
    """

    beta0: float
    beta1: float
    sigma: float
    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive, got {self.lam!r}")


@dataclass(frozen=True)
class ConfidentialDataset:
    """Curator-side regression sample (never released)."""

    x: np.ndarray
    y: np.ndarray
    params: RegressionParams
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if self.x.size < 3:
            raise ValueError("dataset needs at least 3 observations")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("x and y must be finite")


@dataclass(frozen=True)
class PrivatizedDataset:
    """Released regression sample with its public mechanism specs.

    The specs must be able to describe the values: the model's y is
    real-valued, so ``spec_y`` is Laplace; x is a count, so ``spec_x`` is
    Laplace or, with integer ``x_tilde``, double geometric.  Any other
    release, or an empty one, is refused when it is built.

    Raises
    ------
    UnsupportedFamilyError
        If ``spec_y`` is not Laplace or ``spec_x`` is randomized response.
    ValueError
        If the release is empty, not finite, or double geometric in x with a
        non-integer ``x_tilde``.
    """

    x_tilde: np.ndarray
    y_tilde: np.ndarray
    spec_x: MechanismSpec
    spec_y: MechanismSpec
    parent_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_tilde", np.asarray(self.x_tilde, dtype=float))
        object.__setattr__(self, "y_tilde", np.asarray(self.y_tilde, dtype=float))
        if self.x_tilde.shape != self.y_tilde.shape or self.x_tilde.ndim != 1:
            raise ValueError("x_tilde and y_tilde must be 1-d arrays of equal length")
        if not (np.isfinite(self.x_tilde).all() and np.isfinite(self.y_tilde).all()):
            raise ValueError("x_tilde and y_tilde must be finite")
        if self.x_tilde.size == 0:
            raise ValueError("release must hold at least one record")
        fx, fy = self.spec_x.family, self.spec_y.family
        if fy is not Family.LAPLACE:
            raise UnsupportedFamilyError(
                f"the model's real-valued y needs a Laplace y release, got {fy.value}"
            )
        if not fx.additive:
            raise UnsupportedFamilyError(
                f"x needs a Laplace or double geometric release, got {fx.value}"
            )
        if fx is Family.DOUBLE_GEOMETRIC and not np.all(self.x_tilde == np.floor(self.x_tilde)):
            raise ValueError("a double geometric x release must hold integer x_tilde")

    @property
    def n(self) -> int:
        return self.x_tilde.size


def gen_confidential(
    n: int,
    params: RegressionParams,
    rng: np.random.Generator,
    seed: int = 0,
) -> ConfidentialDataset:
    """Draw a confidential regression sample.

    Parameters
    ----------
    n : int
        Sample size, at least 3.
    params : RegressionParams
        Generating parameters.
    rng : numpy.random.Generator
        Source stream.
    seed : int
        Provenance tag recorded on the dataset; sampling itself uses ``rng``.

    Returns
    -------
    ConfidentialDataset
        x_i i.i.d. Poisson(lam); y_i = beta0 + beta1 x_i + Normal(0, sigma^2).
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    x = rng.poisson(params.lam, n)
    # An overflow leaves inf or NaN, which the dataset refuses by name.
    with np.errstate(over="ignore", invalid="ignore"):
        y = params.beta0 + params.beta1 * x + rng.normal(0.0, params.sigma, n)
    return ConfidentialDataset(x=x, y=y, params=params, seed=seed)


def privatize_dataset(
    data: ConfidentialDataset,
    eps_x: PrivacyBudget,
    eps_y: PrivacyBudget,
    rng: np.random.Generator,
) -> PrivatizedDataset:
    """Release a dataset through per-coordinate Laplace mechanisms.

    Both coordinates use sensitivity 1, so the noise scales are 1/eps_x and
    1/eps_y and the marginal noise variances are 2/eps_x^2 and 2/eps_y^2.

    Parameters
    ----------
    data : ConfidentialDataset
        Sample to privatize.
    eps_x, eps_y : PrivacyBudget
        Per-coordinate budgets; the total release budget is their sum.
    rng : numpy.random.Generator
        Source stream.
    """
    spec_x = MechanismSpec(Family.LAPLACE, 1.0, eps_x)
    spec_y = MechanismSpec(Family.LAPLACE, 1.0, eps_y)
    return PrivatizedDataset(
        x_tilde=privatize_vector(data.x, spec_x, rng),
        y_tilde=privatize_vector(data.y, spec_y, rng),
        spec_x=spec_x,
        spec_y=spec_y,
        parent_seed=data.seed,
    )


def _dataset_fields(data) -> dict:
    """A dataset's JSON fields, with its arrays left as ndarrays."""
    if isinstance(data, ConfidentialDataset):
        return {
            "kind": "confidential",
            "seed": data.seed,
            "params": {
                "beta0": data.params.beta0,
                "beta1": data.params.beta1,
                "sigma": data.params.sigma,
                "lam": data.params.lam,
            },
            "x": data.x,
            "y": data.y,
        }
    if isinstance(data, PrivatizedDataset):
        return {
            "kind": "privatized",
            "parent_seed": data.parent_seed,
            "spec_x": data.spec_x.to_dict(),
            "spec_y": data.spec_y.to_dict(),
            "x_tilde": data.x_tilde,
            "y_tilde": data.y_tilde,
        }
    raise TypeError(f"unsupported dataset type {type(data).__name__}")


def _slice_text(s: np.ndarray) -> str:
    """``json.dumps(s.tolist())`` without its brackets.

    orjson writes an int64 slice from the array buffer more than ten times
    faster, and so the runs of a float64 slice between the values Python
    prints in exponent form or not at all (0 < |v| < 1e-4, |v| >= 1e16,
    NaN, inf): for 0 and magnitudes in [1e-4, 1e16) it prints the shortest
    digits in fixed notation, as Python's float repr does.  Each such value
    goes through ``json.dumps``, and so does a whole slice of another dtype
    or with more than one such value in 32, where the calls per run would
    cost more than the slice.
    """
    if s.dtype == np.int64:
        return _orjson_text(s)
    if s.dtype != np.float64:
        return json.dumps(s.tolist())[1:-1]
    a = np.abs(s)
    odd = np.flatnonzero(~((a == 0) | ((a >= 1e-4) & (a < 1e16)))).tolist()
    if 32 * len(odd) > s.size:
        return json.dumps(s.tolist())[1:-1]
    parts, lo = [], 0
    for i in odd:
        if lo < i:
            parts.append(_orjson_text(s[lo:i]))
        parts.append(json.dumps(float(s[i])))
        lo = i + 1
    if lo < s.size:
        parts.append(_orjson_text(s[lo:]))
    return ", ".join(parts)


def _orjson_text(s: np.ndarray) -> str:
    # Imported here, so commands that write no array skip its import time.
    import orjson
    return (orjson.dumps(np.ascontiguousarray(s), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
            .replace(b",", b", ").decode())


def json_parts(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True)``, in pieces.

    A dataset anywhere in ``obj`` stands for the object of its fields (see
    :func:`_dataset_fields`), and its arrays are written from the ndarray
    in slices of at most ``_SLICE`` values, so neither the whole text nor a
    Python number per value exists at once.  An int64 slice, and each run
    of a float64 slice between values that Python prints in exponent form
    (0 < |v| < 1e-4 or |v| >= 1e16) or that are not finite, is formatted by
    orjson from the array buffer; each of those values goes through
    ``json.dumps`` alone, and a slice of another dtype, or one where they
    are more than one value in 32, through ``json.dumps(slice.tolist())``.
    The text is the same either way.  Other values go through
    ``json.dumps``.
    """
    if isinstance(obj, (ConfidentialDataset, PrivatizedDataset)):
        obj = _dataset_fields(obj)
    if isinstance(obj, np.ndarray):
        yield "["
        for start in range(0, obj.size, _SLICE):
            if start:
                yield ", "
            # No name holds a slice's text, so the last one is freed
            # before the next is built.
            yield _slice_text(obj[start:start + _SLICE])
        yield "]"
    elif isinstance(obj, dict):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from json_parts(obj[key])
        yield "}"
    else:
        yield json.dumps(obj, sort_keys=True)


_NUMBER = (numbers.Real, "a number")
_INTEGER = (numbers.Integral, "an integer")
_LIST = ((list, np.ndarray), "a list")
_OBJECT = (dict, "an object")


def _listed(val):
    """``val``, or the list an ndarray stands for where a list was read as one.

    A reader may give a JSON list of numbers as an ndarray; where a field
    takes no such list, it is named and printed as the list.
    """
    return val.tolist() if isinstance(val, np.ndarray) else val


def _fields(obj: dict, section: str, kinds: dict) -> dict:
    """The fields of ``obj`` named in ``kinds``, each present and of its kind.

    A missing or mistyped field raises ``ValueError`` naming ``section`` and
    the field, so a malformed envelope never escapes as a ``KeyError``.
    """
    out = {}
    for key, (kind, what) in kinds.items():
        if key not in obj:
            raise ValueError(f"{section} has no {key!r} field")
        val = obj[key]
        if isinstance(val, bool) or not isinstance(val, kind):
            raise ValueError(
                f"{section} field {key!r} must be {what}, got {type(_listed(val)).__name__}"
            )
        out[key] = val
    return out


def _numbers(fields: dict, section: str, key: str, dtype=None) -> np.ndarray:
    try:
        arr = np.asarray(fields[key], dtype=dtype)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise ValueError(f"{section} field {key!r} must be a list of numbers")
    return arr


def _spec_from_dict(obj: dict, key: str) -> MechanismSpec:
    try:
        return MechanismSpec.from_dict(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"privatized field {key!r} is malformed: {exc!r}") from None


def dataset_from_dict(obj: dict):
    """The dataset of an object that :func:`dataset_to_json` writes, parsed;
    dispatches on the ``kind`` field.

    A list of numbers may also be given as an ndarray.  Raises
    ``ValueError`` naming the field when one is missing or mistyped.
    """
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "confidential":
        f = _fields(obj, "confidential", {
            "params": _OBJECT, "x": _LIST, "y": _LIST, "seed": _INTEGER,
        })
        params = _fields(f["params"], "confidential params", {
            "beta0": _NUMBER, "beta1": _NUMBER, "sigma": _NUMBER, "lam": _NUMBER,
        })
        return ConfidentialDataset(
            x=_numbers(f, "confidential", "x"),
            y=_numbers(f, "confidential", "y", float),
            params=RegressionParams(**params), seed=int(f["seed"]),
        )
    if kind == "privatized":
        f = _fields(obj, "privatized", {
            "x_tilde": _LIST, "y_tilde": _LIST, "spec_x": _OBJECT, "spec_y": _OBJECT,
            "parent_seed": _INTEGER,
        })
        return PrivatizedDataset(
            x_tilde=_numbers(f, "privatized", "x_tilde", float),
            y_tilde=_numbers(f, "privatized", "y_tilde", float),
            spec_x=_spec_from_dict(f["spec_x"], "spec_x"),
            spec_y=_spec_from_dict(f["spec_y"], "spec_y"),
            parent_seed=int(f["parent_seed"]),
        )
    raise ValueError(f"unrecognized dataset kind {kind!r}")


def dataset_to_json(data) -> str:
    """Serialize a dataset to a JSON envelope carrying params or specs."""
    return "".join(json_parts(data))


def dataset_from_json(text: str):
    """Inverse of :func:`dataset_to_json`; dispatches on the ``kind`` field."""
    return dataset_from_dict(json.loads(text))
