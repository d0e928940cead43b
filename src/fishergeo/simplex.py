"""Finite sample spaces, strictly positive distributions, and random variables.

A distribution is a strictly positive probability vector on ``{1, ..., n}``;
a random variable is any real vector on the same index set. First and second
moments (expectation, covariance and its matrix, variance) are the only
operations; everything heavier lives in the geometry modules.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadFloor, BadSize, InvalidParameter, NonPositiveWeight, NotNormalized, SizeMismatch

#: Weights at or below this floor are rejected as non-positive.
POSITIVITY_FLOOR = 1e-12
#: Absolute tolerance on |sum(weights) - 1| at construction time.
NORMALIZATION_TOL = 1e-12


def _readonly(values, n: int | None = None) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    if n is not None and arr.shape[0] != n:
        raise SizeMismatch(f"expected length {n}, got {arr.shape[0]}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SampleSpace:
    """Finite sample space; elements are identified with indices 1..size."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 2:
            raise BadSize(f"sample space needs size >= 2, got {self.size!r}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Strictly positive probability vector on a finite sample space."""

    space: SampleSpace
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _readonly(self.weights, self.space.size)
        object.__setattr__(self, "weights", w)
        # Written so that NaN fails both tests.
        if not np.all(w > POSITIVITY_FLOOR):
            finite = np.isfinite(w)
            if np.all(finite):
                bad = int(np.argmin(w))
                problem = f"is at or below {POSITIVITY_FLOOR}"
            else:
                bad = int(np.argmin(finite))
                problem = "is non-finite"
            raise NonPositiveWeight(f"weight {float(w[bad])!r} at index {bad + 1} {problem}")
        total = float(np.sum(w))
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise NotNormalized(f"weights sum to {total!r}, not 1")

    # Value equality, not tolerance: two distributions are the same base
    # point only if their weights are bitwise equal.
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Distribution)
            and self.space == other.space
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.space, self.weights.tobytes()))


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """Real-valued function on a finite sample space."""

    space: SampleSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _readonly(self.values, self.space.size))
        if not np.isfinite(self.values).all():
            raise InvalidParameter(f"random variable values must be finite: {self.values.tolist()}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RandomVariable)
            and self.space == other.space
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.space, self.values.tobytes()))


def new_distribution(space: SampleSpace, weights) -> Distribution:
    """Validate and build a strictly positive, normalized distribution."""
    return Distribution(space, np.asarray(weights, dtype=float))


def uniform(space: SampleSpace) -> Distribution:
    return Distribution(space, np.full(space.size, 1.0 / space.size))


def _require_same_space(p: Distribution | RandomVariable, a: RandomVariable) -> None:
    if p.space != a.space:
        raise SizeMismatch(f"sample spaces differ: {p.space.size} vs {a.space.size}")


def expect(p: Distribution, a: RandomVariable) -> float:
    """Expectation sum(p(w) * A(w))."""
    _require_same_space(p, a)
    return float(np.dot(p.weights, a.values))


def cov(p: Distribution, a: RandomVariable, b: RandomVariable) -> float:
    """Covariance: the L2 inner product of the centered arguments."""
    _require_same_space(p, a)
    _require_same_space(p, b)
    ca = a.values - np.dot(p.weights, a.values)
    cb = b.values - np.dot(p.weights, b.values)
    return float(np.dot(p.weights, ca * cb))


def cov_matrix(p: Distribution, variables) -> np.ndarray:
    """[Cov_p(A_i, A_j)] for a sequence of random variables.

    Each variable is checked and centered once; every entry is then the
    ``cov`` of its two variables, bitwise.
    """
    for a in variables:
        _require_same_space(p, a)
    centered = [a.values - np.dot(p.weights, a.values) for a in variables]
    k = len(centered)
    matrix = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            matrix[i, j] = matrix[j, i] = np.dot(p.weights, centered[i] * centered[j])
    return matrix


def variance(p: Distribution, a: RandomVariable) -> float:
    return cov(p, a, a)


def sample_interior(space: SampleSpace, seed: int, floor: float = 1e-6) -> Distribution:
    """Draw a reproducible interior point of the simplex.

    Flat Dirichlet draw flattened into ``[floor, 1 - (n-1)*floor]``: every
    weight is >= floor by construction and the sum stays 1 to float
    precision, so no renormalization can push a weight back under the floor.
    """
    n = space.size
    if not 0.0 < floor < 1.0 / n:
        raise BadFloor(f"floor must lie in (0, 1/{n}), got {floor!r}")
    rng = np.random.default_rng(seed)
    draw = rng.dirichlet(np.ones(n))
    return Distribution(space, floor + (1.0 - n * floor) * draw)
