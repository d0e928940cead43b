"""Finite sample spaces, strictly positive distributions, and random variables.

A distribution is a strictly positive probability vector on ``{1, ..., n}``;
a random variable is any real vector on the same index set. First and second
moments are the only operations, each with one arithmetic over stacked
points (``expect_rows``, ``centered_rows``, ``cov_rows``): a scalar function
checks its objects' spaces and calls it on a batch of one, and a kernel
calls it on its stacks, then runs the constructors' ``require_*`` checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadFloor, BadSize, InvalidParameter, NonPositiveWeight, NotNormalized, SizeMismatch, is_integer,
    require_seed,
)

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


def _first_row(rows: np.ndarray, good: np.ndarray) -> np.ndarray:
    """The first row, in C order over the leading axes, whose ``good`` is False."""
    return rows.reshape(-1, rows.shape[-1])[np.argmin(good.reshape(-1))]


def require_weights(w: np.ndarray) -> np.ndarray:
    """The ``Distribution`` checks on weight rows: each weight above the
    floor, each row summing to 1. Rows may be stacked along leading axes;
    the first bad row is named, as its ``Distribution`` would name it.
    Returns ``w``."""
    # Written so that NaN fails both tests; count_nonzero, because .all()
    # costs about 2 µs even on one row.
    positive = w > POSITIVITY_FLOOR
    if np.count_nonzero(positive) != positive.size:
        row = _first_row(w, positive.all(axis=-1))
        finite = np.isfinite(row)
        if np.all(finite):
            bad = int(np.argmin(row))
            problem = f"is at or below {POSITIVITY_FLOOR}"
        else:
            bad = int(np.argmin(finite))
            problem = "is non-finite"
        raise NonPositiveWeight(f"weight {float(row[bad])!r} at index {bad + 1} {problem}")
    totals = w.sum(axis=-1)
    normalized = abs(totals - 1.0) <= NORMALIZATION_TOL
    if np.count_nonzero(normalized) != normalized.size:
        total = float(_first_row(totals[..., None], normalized)[0])
        raise NotNormalized(f"weights sum to {total!r}, not 1")
    return w


def require_finite(values: np.ndarray) -> np.ndarray:
    """The ``RandomVariable`` check on value rows, stacked along leading axes
    or not; the first row with a non-finite value is named. Returns ``values``."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) != finite.size:
        row = _first_row(values, finite.all(axis=-1))
        raise InvalidParameter(f"random variable values must be finite: {row.tolist()}")
    return values


@dataclass(frozen=True)
class SampleSpace:
    """Finite sample space; elements are identified with indices 1..size."""

    size: int

    def __post_init__(self) -> None:
        if type(self.size) is not int:
            if not is_integer(self.size):
                raise BadSize(f"sample space size must be an integer, got {self.size!r}")
            object.__setattr__(self, "size", int(self.size))
        if self.size < 2:
            raise BadSize(f"sample space needs size >= 2, got {self.size!r}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Strictly positive probability vector on a finite sample space."""

    space: SampleSpace
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _readonly(self.weights, self.space.size)
        object.__setattr__(self, "weights", w)
        require_weights(w)

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
        require_finite(self.values)

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
    """Expectation sum(p(w) * A(w)), ``expect_rows`` on a batch of one."""
    _require_same_space(p, a)
    return float(expect_rows(p.weights[None], a.values[None])[0])


def expect_rows(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Expectations of value rows (T, ..., n) at stacked points (T, n), as
    (T, ...): ``np.dot(w[t], row)`` for each row of trial t, one BLAS dot each."""
    return (w.reshape(len(w), *(1,) * (rows.ndim - 1), -1) @ rows[..., None])[..., 0, 0]


def centered_rows(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Value rows (T, ..., n) centered at stacked points (T, n): A - <A>_p."""
    return rows - expect_rows(w, rows)[..., None]


def cov_rows(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Covariances of value rows (T, ..., n), broadcast against each other, at
    stacked points (T, n): the expectation of the centered rows' product."""
    return expect_rows(w, centered_rows(w, a) * centered_rows(w, b))


def cov(p: Distribution, a: RandomVariable, b: RandomVariable) -> float:
    """Covariance, ``cov_rows`` on a batch of one."""
    _require_same_space(p, a)
    _require_same_space(p, b)
    return float(cov_rows(p.weights[None], a.values[None], b.values[None])[0])


def cov_matrix(p: Distribution, variables) -> np.ndarray:
    """[Cov_p(A_i, A_j)] for an iterable of random variables, ``cov_rows`` of
    every pair on a batch of one: each entry is the ``cov`` of its pair, bitwise."""
    variables = list(variables)
    for a in variables:
        _require_same_space(p, a)
    rows = np.array([a.values for a in variables]).reshape(1, len(variables), 1, p.space.size)
    return cov_rows(p.weights[None], rows, rows.transpose(0, 2, 1, 3))[0]


def variance(p: Distribution, a: RandomVariable) -> float:
    return cov(p, a, a)


def interior_rows(draws: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Flat Dirichlet draws, rows (..., n), flattened into ``[floor, 1 - (n-1)*floor]``.

    Every weight is >= floor by construction and each row still sums to 1 to
    float precision, so no renormalization can push a weight back under the
    floor. ``sample_interior_weights`` is it on one draw.
    """
    n = draws.shape[-1]
    if not 0.0 < floor < 1.0 / n:
        raise BadFloor(f"floor must lie in (0, 1/{n}), got {floor!r}")
    return floor + (1.0 - n * floor) * draws


def sample_interior(space: SampleSpace, seed: int, floor: float = 1e-6) -> Distribution:
    """A reproducible interior point of the simplex: the Distribution of ``sample_interior_weights``."""
    return Distribution(space, sample_interior_weights(space.size, seed, floor))


def sample_interior_weights(n: int, seed: int, floor: float = 1e-6) -> np.ndarray:
    """The weights of a reproducible interior point of the simplex on n points:
    one flat Dirichlet draw from ``default_rng(seed)``, flattened by ``interior_rows``."""
    require_seed(seed)
    draw = np.random.default_rng(seed).dirichlet(np.ones(SampleSpace(n).size))
    return interior_rows(draw, floor)
