"""JSON wire formats for every value the CLI consumes or emits.

All formats are flat JSON objects with fixed key order; loading validates
the type invariants (strict positivity, normalization, sum-zero, centering,
column stochasticity, surjectivity) and raises the package's semantic
errors.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
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


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float).reshape(-1)]


def distribution_from_json(obj: dict) -> Distribution:
    n = int(_require(obj, "n"))
    return new_distribution(SampleSpace(n), np.asarray(_require(obj, "p"), dtype=float))


def random_variable_from_json(obj: dict) -> RandomVariable:
    n = int(_require(obj, "n"))
    return RandomVariable(SampleSpace(n), np.asarray(_require(obj, "values"), dtype=float))


def tangent_to_json(x: TangentVector) -> dict:
    return {"p": _floats(x.base.weights), "m_rep": _floats(x.m_rep)}


def tangent_from_json(obj: dict) -> TangentVector:
    weights = np.asarray(_require(obj, "p"), dtype=float)
    base = new_distribution(SampleSpace(weights.shape[0]), weights)
    return TangentVector(base, np.asarray(_require(obj, "m_rep"), dtype=float))


def cotangent_to_json(alpha: CotangentVector) -> dict:
    return {"p": _floats(alpha.base.weights), "rep": _floats(alpha.rep.values)}


def cotangent_from_json(obj: dict) -> CotangentVector:
    weights = np.asarray(_require(obj, "p"), dtype=float)
    base = new_distribution(SampleSpace(weights.shape[0]), weights)
    rep = np.asarray(_require(obj, "rep"), dtype=float)
    return CotangentVector(base, RandomVariable(base.space, rep))


def channel_from_json(obj: dict) -> Channel:
    n_in = int(_require(obj, "n_in"))
    n_out = int(_require(obj, "n_out"))
    kernel = np.asarray(_require(obj, "kernel"), dtype=float)
    return Channel(SampleSpace(n_in), SampleSpace(n_out), kernel)


def model_from_json(obj: dict) -> ParametricModel:
    """Build a zoo model from its JSON description.

    Kinds: ``bernoulli``; ``categorical`` (needs n); ``expfam`` (needs the
    sufficient-statistics matrix ``stats``, optional ``base`` weights);
    ``affine`` (needs the anchor ``p0`` and ``directions``).
    """
    kind = _require(obj, "kind")
    if kind == "bernoulli":
        return bernoulli_model()
    if kind == "categorical":
        return categorical_model(int(_require(obj, "n")))
    if kind == "expfam":
        stats = np.asarray(_require(obj, "stats"), dtype=float)
        base = None
        if obj.get("base") is not None:
            weights = np.asarray(obj["base"], dtype=float)
            base = new_distribution(SampleSpace(weights.shape[0]), weights)
        return exponential_family_model(stats, base)
    if kind == "affine":
        anchor = np.asarray(_require(obj, "p0"), dtype=float)
        directions = np.asarray(_require(obj, "directions"), dtype=float)
        return affine_model(anchor, directions)
    raise InvalidParameter(f"unknown model kind {kind!r}")


def estimators_from_json(obj) -> list[RandomVariable]:
    if not isinstance(obj, list):
        raise InvalidParameter("estimators file must hold a JSON array")
    return [random_variable_from_json(item) for item in obj]
