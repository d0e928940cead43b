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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasePointMismatch, NotCentered, NotSumZero, SizeMismatch
from .simplex import Distribution, RandomVariable, cov, expect

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
        mean = expect(self.base, self.rep)
        if not abs(mean) <= CENTERING_TOL:
            raise NotCentered(f"representative has mean {mean!r} at the base point")


def require_centered(means: np.ndarray) -> None:
    """The ``CotangentVector`` check on an array of means <rep>_p, one per
    representative; the first bad mean in C order is named."""
    centered = abs(means) <= CENTERING_TOL
    if not centered.all():
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
    centered = a.values - np.dot(p.weights, a.values)
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
    return RandomVariable(x.base.space, x.m_rep / x.base.weights)


def from_e_rep(p: Distribution, ell: RandomVariable) -> TangentVector:
    """Inverse of ``e_rep``: m_rep = p * L. Requires <L>_p = 0."""
    if ell.space != p.space:
        raise SizeMismatch("random variable and distribution on different spaces")
    mean = expect(p, ell)
    if not abs(mean) <= CENTERING_TOL:
        raise NotCentered(f"<L>_p = {mean!r}, expected 0")
    return TangentVector(p, p.weights * ell.values)


def fisher_metric(x: TangentVector, y: TangentVector) -> float:
    """g_p(X, Y) = <L_X | L_Y>_p = sum(X_m * Y_m / p)."""
    require_same_base(x, y)
    return float(np.sum(x.m_rep * y.m_rep / x.base.weights))


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


def require_rows_sum_zero(rows: np.ndarray) -> None:
    """Raise ``NotSumZero`` unless every row, as an m-representation, sums to 0.

    The row-wise form of the ``TangentVector`` check, with the same tolerance;
    a non-finite row fails. Rows may be stacked along leading axes; the first
    bad row in C order is named.
    """
    totals = rows.sum(axis=-1)
    zero = abs(totals) <= SUM_ZERO_TOL
    # count_nonzero: zero.all() costs about 2 µs even on a single row
    if np.count_nonzero(zero) != zero.size:
        total = float(np.reshape(totals, -1)[np.argmin(np.reshape(zero, -1))])
        raise NotSumZero(f"m-representation sums to {total!r}, not 0")


def _weights(p: Distribution | np.ndarray) -> np.ndarray:
    return p.weights if isinstance(p, Distribution) else p


def fisher_metric_rows(p: Distribution | np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[g_p(X_i, Y_j)] for m-representations given as rows, C-ordered.

    ``p`` is a distribution, or the weights of several points stacked along
    leading axes, (..., n) with rows (..., i, n) and (..., j, n). Each entry
    is ``fisher_metric`` of the two rows, bitwise.
    """
    w = _weights(p)
    return (xs[..., :, None, :] * ys[..., None, :, :] / w[..., None, None, :]).sum(axis=-1)


def orthonormal_basis_rows(p: Distribution | np.ndarray) -> np.ndarray:
    """Deterministic g-orthonormal tangent basis at p, as m-representation rows.

    Right-looking Gram-Schmidt over e_i - e_n, i = 1..n-1: row k is
    normalized, then its projection is removed from every later row at once.
    Each row receives the same subtractions in the same order as in
    left-looking Gram-Schmidt, so every entry is the same float.

    ``p`` is a distribution, giving rows (n - 1, n), or the weights of k
    points of one size n as a (k, n) array, giving (k, n - 1, n): each
    point's basis is bitwise the one it has alone. Every step checks that
    the rows still sum to 0.
    """
    w = _weights(p)
    batch = np.atleast_2d(w)
    count, n = batch.shape
    rows = np.zeros((count, n - 1, n))
    rows[:, np.arange(n - 1), np.arange(n - 1)] = 1.0
    rows[:, :, n - 1] = -1.0
    for k in range(n - 1):
        v = rows[:, k]
        u = v / np.sqrt(np.maximum((v * v / batch).sum(axis=-1), 0.0))[:, None]
        rows[:, k] = u
        rest = rows[:, k + 1 :]
        rest -= (rest * u[:, None] / batch[:, None]).sum(axis=-1)[..., None] * u[:, None]
        require_rows_sum_zero(rows[:, k:])
    return rows if w.ndim == 2 else rows[0]
