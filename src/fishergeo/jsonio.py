"""JSON wire formats for every value the CLI consumes or emits.

All formats are flat JSON objects with fixed key order; loading validates
the type invariants (strict positivity, normalization, sum-zero, centering,
column stochasticity, surjectivity) and raises the package's semantic
errors.

The ``read_*`` functions decide what a valid JSON object, integer, number,
bool or list of numbers is, here and in a battery config: an object carries
only its format's keys, a bool is never taken for a number, and a string
never for a number or a bool. Each returns the value in its Python type or
raises InvalidParameter naming the key.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import BadSize, FisherGeoError, InvalidParameter, SizeMismatch, is_integer
from .geometry import CotangentVector, TangentVector
from .markov import Channel
from .models import (
    ParametricModel,
    affine_model,
    bernoulli_model,
    categorical_model,
    exponential_family_model,
)
from .simplex import Distribution, RandomVariable, SampleSpace, new_distribution


def _require(obj: dict, key: str):
    if not isinstance(obj, dict):
        raise InvalidParameter(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise InvalidParameter(f"missing key {key!r}")
    return obj[key]


def read_object(value, keys: tuple[str, ...], what: str) -> dict:
    """A JSON object whose every key is one of ``keys``, the keys of the
    format ``what``: a key the format does not define is an error naming it."""
    if not isinstance(value, dict):
        raise InvalidParameter(f"{what} is a JSON object, not {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise InvalidParameter(f"{what} has no key {key!r}; its keys: {sorted(keys)}")
    return value


#: The largest integer a JSON value may carry: beyond it a double cannot
#: hold every integer (I-JSON, RFC 7493 section 2.2).
MAX_INT = 2**53 - 1


def read_int(value, key: str, minimum: int = -MAX_INT, maximum: int = MAX_INT) -> int:
    """An integer in [minimum, maximum]; numpy integers count, bools do not."""
    if not is_integer(value):
        raise InvalidParameter(f"{key} must be an integer, not {value!r}")
    if not minimum <= value <= maximum:
        raise InvalidParameter(f"{key} must be an integer in [{minimum}, {maximum}], got {value!r}")
    return int(value)


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def read_float(value, key: str) -> float:
    """A finite number, as a float."""
    try:
        number = float(value) if _number(value) else None
    except OverflowError:  # an integer beyond the double range
        number = None
    if number is None or not math.isfinite(number):
        raise InvalidParameter(f"{key} must be a finite number, not {value!r}")
    return number


def read_float_list(value, key: str) -> tuple[float, ...]:
    """A non-empty list of finite numbers, as a tuple of floats."""
    if not isinstance(value, (list, tuple)) or not value:
        raise InvalidParameter(f"{key} must be a non-empty list of finite numbers, not {value!r}")
    return tuple(read_float(item, key) for item in value)


def read_bool(value, key: str) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameter(f"{key} must be true or false, not {value!r}")
    return bool(value)


def _numbers_only(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_numbers_only(item) for item in value)
    return _number(value)


def read_floats(value, key: str) -> np.ndarray:
    """A number or a rectangular nest of lists of numbers, as a float array.

    Shape and finiteness are left to the constructor the array feeds, which
    names its own error (a NaN weight is a NonPositiveWeight).
    """
    if _numbers_only(value):
        try:
            return np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or beyond the double range
            pass
    raise InvalidParameter(f"{key} must be a number or a rectangular list of numbers")


def _field(obj: dict, key: str, read):
    return read(_require(obj, key), key)


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float).reshape(-1)]


def _flat(values, key: str, scalar: bool = True) -> np.ndarray:
    """A flat list of numbers, as a float array; with ``scalar`` a single
    number is let through, for the constructor to size."""
    array = read_floats(values, key)
    if array.ndim > 1 or (array.ndim == 0 and not scalar):
        raise BadSize(f"{key} must be a flat list of numbers, got shape {array.shape}")
    return array


def _point(values, key: str) -> Distribution:
    """A distribution sized by its own list of weights."""
    weights = _flat(values, key, scalar=False)
    return new_distribution(SampleSpace(weights.shape[0]), weights)


def _of_size(n: int, values: np.ndarray, key: str, what: str) -> np.ndarray:
    """``values``, read from ``key``, if it holds the ``n`` entries the object's n gives."""
    if values.size != n:
        raise SizeMismatch(f"n is {n}, but {key} has {values.size} {what}")
    return values


def distribution_from_json(obj: dict) -> Distribution:
    read_object(obj, ("n", "p"), "distribution")
    space = SampleSpace(_field(obj, "n", read_int))
    return new_distribution(space, _of_size(space.size, _field(obj, "p", _flat), "p", "weights"))


def random_variable_from_json(obj: dict) -> RandomVariable:
    read_object(obj, ("n", "values"), "random variable")
    space = SampleSpace(_field(obj, "n", read_int))
    return RandomVariable(space, _of_size(space.size, _field(obj, "values", _flat), "values", "values"))


def tangent_to_json(x: TangentVector) -> dict:
    return {"p": _floats(x.base.weights), "m_rep": _floats(x.m_rep)}


def tangent_from_json(obj: dict) -> TangentVector:
    read_object(obj, ("p", "m_rep"), "tangent vector")
    base = _field(obj, "p", _point)
    return TangentVector(base, _field(obj, "m_rep", _flat))


def cotangent_to_json(alpha: CotangentVector) -> dict:
    return {"p": _floats(alpha.base.weights), "rep": _floats(alpha.rep.values)}


def cotangent_from_json(obj: dict) -> CotangentVector:
    read_object(obj, ("p", "rep"), "cotangent vector")
    base = _field(obj, "p", _point)
    rep = _field(obj, "rep", _flat)
    return CotangentVector(base, RandomVariable(base.space, rep))


def channel_from_json(obj: dict) -> Channel:
    read_object(obj, ("n_in", "n_out", "kernel"), "channel")
    n_in = _field(obj, "n_in", read_int)
    n_out = _field(obj, "n_out", read_int)
    kernel = _field(obj, "kernel", read_floats)
    return Channel(SampleSpace(n_in), SampleSpace(n_out), kernel)


def model_from_json(obj: dict) -> ParametricModel:
    """Build a zoo model from its JSON description.

    Kinds: ``bernoulli``; ``categorical`` (needs n); ``expfam`` (needs the
    sufficient-statistics matrix ``stats``, optional ``base`` weights);
    ``affine`` (needs the anchor ``p0`` and ``directions``, optional ``n``,
    which must be the length of ``p0``).
    """
    kind = _require(obj, "kind")
    if kind == "bernoulli":
        read_object(obj, ("kind",), "bernoulli model")
        return bernoulli_model()
    if kind == "categorical":
        read_object(obj, ("kind", "n"), "categorical model")
        return categorical_model(_field(obj, "n", read_int))
    if kind == "expfam":
        read_object(obj, ("kind", "stats", "base"), "expfam model")
        stats = _field(obj, "stats", read_floats)
        base = None if obj.get("base") is None else _point(obj["base"], "base")
        return exponential_family_model(stats, base)
    if kind == "affine":
        read_object(obj, ("kind", "n", "p0", "directions"), "affine model")
        anchor = _field(obj, "p0", _flat)
        if "n" in obj:
            _of_size(_field(obj, "n", read_int), anchor, "p0", "weights")
        directions = _field(obj, "directions", read_floats)
        return affine_model(anchor, directions)
    raise InvalidParameter(f"unknown model kind {kind!r}")


def estimators_from_json(obj) -> list[RandomVariable]:
    """The estimators of a JSON array; an item's error keeps its type, prefixed ``estimators[i]: ``."""
    if not isinstance(obj, list):
        raise InvalidParameter("estimators file must hold a JSON array")
    estimators = []
    for i, item in enumerate(obj):
        try:
            estimators.append(random_variable_from_json(item))
        except FisherGeoError as exc:
            raise type(exc)(f"estimators[{i}]: {exc}") from exc
    return estimators
