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
import re
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from itertools import dropwhile
from pathlib import Path

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
    "load_envelope",
]

# Values per line when an array is written as text, so a writer, and a
# reader, holds one line's text and Python numbers at a time, not the whole
# array's.
_SLICE = 8_192


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


def json_parts(obj) -> Iterator[str]:
    """The JSON text of ``obj``, keys sorted, in pieces.

    A dataset anywhere in ``obj`` stands for the object of its fields (see
    :func:`_dataset_fields`).  An ndarray is written as ``[``, then its
    slices of at most ``_SLICE`` values, each on a line of its own and
    every one after the first starting with ``,``, then ``]`` on a new
    line.  A slice is orjson's text of its values, formatted from the array
    buffer, so neither the whole text nor a Python number per value exists
    at once; a float array is written as float64, so every value keeps the
    double it widens to.  orjson writes NaN and infinities as null, and a
    dataset holds neither.  :func:`load_envelope` reads this layout by
    lines.  Other values go through ``json.dumps``.
    """
    if isinstance(obj, (ConfidentialDataset, PrivatizedDataset)):
        obj = _dataset_fields(obj)
    if isinstance(obj, np.ndarray):
        # Imported here, so commands that write no array skip its import time.
        import orjson
        dtype = np.float64 if obj.dtype.kind == "f" else None
        yield "["
        for start in range(0, obj.size, _SLICE):
            yield "\n," if start else "\n"
            # No name holds a slice's text, so the last one is freed
            # before the next is built.
            yield orjson.dumps(np.ascontiguousarray(obj[start:start + _SLICE], dtype),
                               option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        yield "\n]"
    elif isinstance(obj, dict):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from json_parts(obj[key])
        yield "}"
    else:
        yield json.dumps(obj, sort_keys=True)


# Text that keeps a line from being a slice of numbers: a bracket, a brace,
# a quote, or the first letter of true, false or null.
_NOT_NUMBERS = '[{}"tfn'
_INT64_MIN = -(2**63)
# The escape that starts the mark of the k-th array, the JSON string
# "\\u0000<k>" that stands for it in an envelope's structure text.  A line of
# structure holding it is refused, so no other string decodes to a mark.
_MARK = "\\u0000"


def load_envelope(path: str, keep: Collection[str]) -> dict:
    """``json.loads`` of the text of ``path`` with its leading ``#`` lines
    blanked, holding only the ``keep`` members of a top-level object.

    Text in the layout of :func:`json_parts` is read by lines (see
    :func:`_read_lines`): each array of numbers becomes one int64 or
    float64 ndarray whose ``tolist()`` is json's list, and an array of a
    member not kept is checked but not built, so a read holds one line and
    the arrays it keeps, never the whole text.  Any other text (an error, a
    byte order mark, an array on one line, an array orjson would read
    otherwise than json) is decoded whole by ``json.loads``, lists staying
    lists, so every value and every error is json's.
    """
    with open(path) as fh:
        try:
            return _read_lines(fh, keep)
        except (ValueError, RecursionError):
            pass
    text = Path(path).read_text()
    body = re.match(r"(?:#[^\n]*\n?)*", text).end()
    obj = json.loads(re.sub("[^\n]", " ", text[:body]) + text[body:])
    return {k: v for k, v in obj.items() if k in keep} if isinstance(obj, dict) else obj


def _layout(fh) -> Iterator[tuple]:
    """The body of the text of ``fh``, after its leading ``#`` lines, as
    ``(None, text)`` for each line of structure and ``(k, part)`` for each
    slice of the k-th array's numbers.

    A line ending in ``[`` opens an array, and its structure text ends with
    the array's mark in place of the bracket.  Each line after it is a
    slice, and every one after the first starts with a ``,`` that the part
    leaves out, until a line starting with ``]`` closes the array; the rest
    of that line is structure again, so text that ends inside an array
    leaves the structure without its end.  Raises ``ValueError`` where a
    line of structure holds another ``[`` or the mark's escape, or a slice
    after the first does not start with ``,``.
    """
    k, inside = -1, False
    for line in dropwhile(lambda line: line.startswith("#"), fh):
        if inside and not line.startswith("]"):
            if not line.startswith(lead):
                raise ValueError("a slice that does not start with a comma")
            yield k, line[len(lead):]
            lead = ","
            continue
        if inside:
            line = line[1:]
        inside = line.endswith("[\n")
        head = line[:-2] if inside else line
        if "[" in head or _MARK in line:
            raise ValueError("the text is not in the line layout")
        if inside:
            k, lead = k + 1, ""
            head += f'"{_MARK}{k}"'
        yield None, head


def _read_lines(fh, keep: Collection[str]) -> dict:
    """The envelope of ``fh`` as :func:`load_envelope` gives it, read in
    the layout of :func:`_layout`, in two passes.

    The first joins the structure and decodes it with ``json.loads``, so
    every structural value is json's, and finds each array's mark as the
    value of an object member.  The second parses each slice with
    :func:`_number_slice` into the array of a kept member, which grows in
    place, so a read holds those arrays and one slice.
    Raises ``ValueError`` where the text does not fit: a mark anywhere
    else, or a slice that is not one of numbers of the array's kind.
    """
    structure = "".join(text for k, text in _layout(fh) if k is None)
    obj = json.loads(structure)
    # Only objects are walked: a mark in a list is not found, and a list
    # may be long.
    slots, stack = {}, [(obj, None)] if isinstance(obj, dict) else []
    while stack:
        members, top = stack.pop()
        for key, val in members.items():
            member = key if top is None else top
            if isinstance(val, dict):
                stack.append((val, member))
            elif isinstance(val, str) and val.startswith("\0"):
                slots[int(val[1:])] = members, key, member in keep
    if len(slots) != structure.count(_MARK):
        raise ValueError("an array that is not the value of an object member")
    fh.seek(0)
    sizes = dict.fromkeys(slots, 0)
    for k, part in _layout(fh):
        if k is None:
            continue
        members, key, build = slots[k]
        piece = _number_slice(part, build)
        if piece is None:
            raise ValueError("a slice that is not one of numbers")
        if not build:
            continue
        size, out = sizes[k], members[key]
        if not size:
            members[key] = piece
        elif piece.dtype != out.dtype:
            raise ValueError("an array of both ints and floats")
        else:
            # The array grows in place, by a quarter at least, so a value
            # is copied a bounded number of times.
            if size + piece.size > out.size:
                out.resize(max(size + piece.size, out.size + out.size // 4), refcheck=False)
            out[size:size + piece.size] = piece
        sizes[k] = size + piece.size
    for k, (members, key, build) in slots.items():
        if build and sizes[k]:
            members[key].resize(sizes[k], refcheck=False)
        elif build:  # an array of no lines
            members[key] = []
    return {k: v for k, v in obj.items() if k in keep} if isinstance(obj, dict) else obj


def _number_slice(part: str, build: bool) -> np.ndarray | None:
    """The comma-separated numbers of ``part`` as orjson reads them, or None.

    They give an int64 array if ``part`` holds no ``.``, ``e`` or ``E``,
    and a float64 one if it does.  The result is None if ``part`` holds one
    of ``_NOT_NUMBERS``, if orjson fails or reads no value, or if a value
    is not of the array's kind as ``json`` would read it: an int, within
    int64, or a float of magnitude below 2^63.  orjson reads an integer
    literal from 2^63 as a uint64 and past 2^64, or below -2^63, as a
    float, where ``json`` keeps an int.  With ``build`` false the values
    are checked, not converted, and the array is empty.
    """
    if any(c in part for c in _NOT_NUMBERS):
        return None
    # Imported here, so that importing this module does not load it.
    import orjson
    try:
        values = orjson.loads(f"[{part}]")
    except orjson.JSONDecodeError:
        return None
    if not values:
        return None
    n = len(values)
    kind = float if "." in part or "e" in part or "E" in part else int
    if not build:
        return np.empty(0, kind)
    try:
        piece = np.fromiter(values, kind, n)
    except OverflowError:
        return None
    # An int, or a float read from an integer literal, has an integral
    # value, so types are checked only where one may be.
    if kind is float:
        exact = not np.any(piece == np.trunc(piece)) or (
            np.abs(piece).max() < 2.0**63 and int not in set(map(type, values)))
    else:
        exact = piece.min() > _INT64_MIN or float not in set(map(type, values))
    return piece if exact else None


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
