"""Semantic exception hierarchy, and the residual tolerances of the verdicts.

Every public operation raises one of these instead of bare ValueError,
so callers (and the CLI's exit-code mapping) can dispatch on type.

This module also holds the batching contract of every kernel that checks a
batch of trials at once: ``by_shape`` groups the trials that stack together,
and ``in_trial_order`` makes a failing batch raise what its first failing
trial, or row, raises alone.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

_R = TypeVar("_R")

#: Residuals at or below this pass outright.
PASS_TOL = 1e-9
#: Residuals above this are genuine counterexamples (witness threshold);
#: the band between the two is reported as "inconclusive".
VIOLATION_TOL = 1e-6


class FisherGeoError(Exception):
    """Base error for this package."""


class SizeMismatch(FisherGeoError, ValueError):
    """Operands live on different sample spaces or have wrong lengths."""


class NonPositiveWeight(FisherGeoError, ValueError):
    """A probability weight is at or below the positivity floor."""


class NotNormalized(FisherGeoError, ValueError):
    """Weights do not sum to one within tolerance."""


class BadFloor(FisherGeoError, ValueError):
    """Interior-sampling floor outside (0, 1/n)."""


class BadSize(FisherGeoError, ValueError):
    """A requested size or index is out of range."""


class NotSumZero(FisherGeoError, ValueError):
    """An m-representation does not sum to zero within tolerance."""


class NotCentered(FisherGeoError, ValueError):
    """A random variable is not centered at the base distribution."""


class BasePointMismatch(FisherGeoError, ValueError):
    """Tangent/cotangent operands are attached to different base points.

    Base points are compared for exact value equality: mixing base points
    is a logic error, not a numeric one.
    """


class RankDeficient(FisherGeoError, ValueError):
    """Model Jacobian is rank deficient at the queried parameter."""


class InvalidParameter(FisherGeoError, ValueError):
    """Parameter outside the model's admissible region."""


class SingularMatrix(FisherGeoError, ValueError):
    """A matrix that must be inverted is numerically singular."""


class NotLocallyUnbiased(FisherGeoError, ValueError):
    """Estimator tuple fails the local-unbiasedness precondition."""


class NotSurjective(FisherGeoError, ValueError):
    """A map or channel misses part of its declared codomain."""


class InvalidChannel(FisherGeoError, ValueError):
    """Channel kernel has negative entries."""


class NotRational(FisherGeoError, ValueError):
    """Distribution has no rational representation within the denominator bound."""


def in_trial_order(rows: Callable[..., _R], *columns) -> _R:
    """``rows(*columns)`` for a kernel whose arguments hold one entry per
    trial (or per row). When a check fails, the error raised is the one the
    first failing trial raises alone: the trials are rerun one at a time, in
    order."""
    if len({len(column) for column in columns}) != 1:
        raise SizeMismatch("every argument needs one entry per trial")
    try:
        return rows(*columns)
    except FisherGeoError:
        if len(columns[0]) > 1:
            for t in range(len(columns[0])):
                rows(*(column[t : t + 1] for column in columns))
        raise


def by_shape(shapes: Iterable[Hashable]) -> list[list[int]]:
    """The trials of each shape, given one shape per trial, with the shapes
    in order of first appearance."""
    groups: dict[Hashable, list[int]] = {}
    for t, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(t)
    return list(groups.values())
