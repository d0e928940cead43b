"""Tangent/cotangent calculus on the open probability simplex.

Tangent vectors are carried by their m-representation (a sum-zero vector of
probability increments); cotangent vectors by a random variable centered at
the base point, the canonical representative of its class modulo constants.
The differential-of-expectation map ``delta`` sends a random variable A to
the cotangent vector d<A> at p; its kernel is exactly the constants.

The Fisher co-metric is the covariance of representatives,

    g_p(delta_p(A), delta_p(B)) = Cov_p(A, B),

and the Fisher metric is the L2 inner product of e-representations
(scores) L_X = X_m / p. ``flat``/``sharp`` realize the metric <-> co-metric
correspondence; both routes agree and give mutually inverse Gram matrices
in any coordinate system.

The rows forms (``delta_rows``, ``flat_rows``) check whole stacks of rows at
once; on a failure, ``errors.in_trial_order`` reruns the checks row by row,
so a stack raises what its first bad row, in C order, raises alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import BasePointMismatch, NotCentered, NotSumZero, SizeMismatch, in_trial_order
from .simplex import Distribution, RandomVariable, centered_rows, cov, expect, expect_rows, require_finite

#: Absolute tolerance on sum(m_rep) for tangent vectors.
SUM_ZERO_TOL = 1e-10
#: Absolute tolerance on <rep>_p for canonical cotangent representatives.
#: Looser than the construction tolerance to absorb accumulated arithmetic.
CENTERING_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent vector at ``base``, stored as its m-representation."""

    base: Distribution
    m_rep: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m_rep, dtype=float, copy=True).reshape(-1)
        if m.shape[0] != self.base.space.size:
            raise SizeMismatch(
                f"m_rep length {m.shape[0]} != space size {self.base.space.size}"
            )
        require_rows_sum_zero(m)
        m.flags.writeable = False
        object.__setattr__(self, "m_rep", m)


@dataclass(frozen=True, eq=False)
class CotangentVector:
    """Cotangent vector at ``base``, stored as its centered representative."""

    base: Distribution
    rep: RandomVariable

    def __post_init__(self) -> None:
        if self.rep.space != self.base.space:
            raise SizeMismatch(
                f"rep on space of size {self.rep.space.size}, "
                f"base on size {self.base.space.size}"
            )
        require_centered(expect_rows(self.base.weights[None], self.rep.values[None]))


def require_centered(means: np.ndarray) -> None:
    """The ``CotangentVector`` check on an array of means <rep>_p, one per
    representative; the first bad mean in C order is named."""
    centered = abs(means) <= CENTERING_TOL
    if np.count_nonzero(centered) != centered.size:
        mean = float(np.reshape(means, -1)[np.argmin(np.reshape(centered, -1))])
        raise NotCentered(f"representative has mean {mean!r} at the base point")


def require_same_base(a: TangentVector | CotangentVector, b: TangentVector | CotangentVector) -> None:
    if a.base != b.base:
        raise BasePointMismatch("operands are attached to different base points")


def delta(p: Distribution, a: RandomVariable) -> CotangentVector:
    """Differential of the expectation functional of A at p.

    The representative is A - <A>_p, so delta kills constants: the class of
    A modulo constants is all that survives.
    """
    if a.space != p.space:
        raise SizeMismatch("random variable and distribution on different spaces")
    centered = centered_rows(p.weights[None], a.values[None])[0]
    return CotangentVector(p, RandomVariable(p.space, centered))


def pair(alpha: CotangentVector, x: TangentVector) -> float:
    """Dual pairing alpha(X) = sum over w of X_m(w) * rep(w).

    Any representative of alpha's class gives the same value because the
    m-representation sums to zero.
    """
    require_same_base(alpha, x)
    return float(np.dot(x.m_rep, alpha.rep.values))


def e_rep(x: TangentVector) -> RandomVariable:
    """Score (e-representation) L_X = X_m / p; centered at the base point."""
    return RandomVariable(x.base.space, score_rows(x.base.weights[None], x.m_rep[None, None])[0, 0])


def from_e_rep(p: Distribution, ell: RandomVariable) -> TangentVector:
    """Inverse of ``e_rep``: m_rep = p * L. Requires <L>_p = 0."""
    if ell.space != p.space:
        raise SizeMismatch("random variable and distribution on different spaces")
    require_centered(np.array([expect(p, ell)]))
    return TangentVector(p, p.weights * ell.values)


def fisher_metric(x: TangentVector, y: TangentVector) -> float:
    """g_p(X, Y) = <L_X | L_Y>_p = sum(X_m * Y_m / p), on one row each."""
    require_same_base(x, y)
    return float(fisher_metric_rows(x.base, x.m_rep[None], y.m_rep[None])[0, 0])


def fisher_cometric(alpha: CotangentVector, beta: CotangentVector) -> float:
    """g_p(alpha, beta) = Cov_p of the representatives."""
    require_same_base(alpha, beta)
    return cov(alpha.base, alpha.rep, beta.rep)


def flat(x: TangentVector) -> CotangentVector:
    """Lower the index: the cotangent vector with representative L_X."""
    return CotangentVector(x.base, e_rep(x))


def sharp(alpha: CotangentVector) -> TangentVector:
    """Raise the index: inverse of ``flat``."""
    return from_e_rep(alpha.base, alpha.rep)


def norm_tangent(x: TangentVector) -> float:
    return math.sqrt(max(fisher_metric(x, x), 0.0))


def norm_cotangent(alpha: CotangentVector) -> float:
    return math.sqrt(max(fisher_cometric(alpha, alpha), 0.0))


def require_rows_sum_zero(rows: np.ndarray) -> np.ndarray:
    """Raise ``NotSumZero`` unless every row, as an m-representation, sums to 0.

    The row-wise form of the ``TangentVector`` check, with the same tolerance;
    a non-finite row fails. Rows may be stacked along leading axes; the first
    bad row in C order is named. Returns ``rows``.
    """
    totals = rows.sum(axis=-1)
    zero = abs(totals) <= SUM_ZERO_TOL
    # count_nonzero: zero.all() costs about 2 µs even on a single row
    if np.count_nonzero(zero) != zero.size:
        total = float(np.reshape(totals, -1)[np.argmin(np.reshape(zero, -1))])
        raise NotSumZero(f"m-representation sums to {total!r}, not 0")
    return rows


def _row_checks(reps: np.ndarray, means: np.ndarray, *m_reps: np.ndarray) -> None:
    """The checks of each row's ``TangentVector`` (when its m-representations
    are given), then of its ``RandomVariable`` and ``CotangentVector``:
    representatives (rows, n) with their means (rows,)."""
    for m in m_reps:
        require_rows_sum_zero(m)
    require_finite(reps)
    require_centered(means)


def delta_rows(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``delta`` of value rows (T, ..., n) at stacked points (T, n): the
    centered representatives, each with the checks of its ``RandomVariable``
    and ``CotangentVector``. A failing check raises what the first failing
    row, in C order, raises alone."""
    centered = centered_rows(w, values)
    n = w.shape[-1]
    in_trial_order(_row_checks, centered.reshape(-1, n), expect_rows(w, centered).reshape(-1))
    return centered


def score_rows(w: np.ndarray, m_reps: np.ndarray) -> np.ndarray:
    """The scores ``m_rep / p`` of m-representations (T, r, n) at points (T, n),
    unchecked: ``e_rep`` on stacks."""
    return m_reps / w[:, None, :]


def flat_rows(w: np.ndarray, m_reps: np.ndarray) -> np.ndarray:
    """``flat`` of tangent m-representations (T, r, n) at stacked points
    (T, n): the scores ``m_rep / p``, each with the checks of its
    ``TangentVector``, ``RandomVariable`` and ``CotangentVector``. A failing
    check raises what the first failing row, in C order, raises alone."""
    reps = score_rows(w, m_reps)
    n = w.shape[-1]
    in_trial_order(
        _row_checks, reps.reshape(-1, n), expect_rows(w, reps).reshape(-1), m_reps.reshape(-1, n)
    )
    return reps


def fisher_metric_rows(p: Distribution | np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[g_p(X_i, Y_j)] for m-representations given as rows, C-ordered.

    ``p`` is a distribution, or the weights of several points stacked along
    leading axes, (..., n) with rows (..., i, n) and (..., j, n). Each entry
    is ``fisher_metric`` of the two rows, bitwise.
    """
    w = p.weights if isinstance(p, Distribution) else p
    return (xs[..., :, None, :] * ys[..., None, :, :] / w[..., None, None, :]).sum(axis=-1)
