"""e-, m-, and alpha-connections on the simplex.

Both distinguished connections are flat with explicit parallel transports:
m-transport keeps the m-representation, e-transport keeps the representative
class of the score (re-centering it at the target point). Covariant
derivatives are computed by differentiating a field's transported
representation along a coordinate curve, so the transports contribute no
error and all discretization error sits in one central difference, second
order in the step, which must be finite and positive. Each point is
evaluated once: ``p_xi``, one validated Jacobian and every field value there
come from one evaluation.

The alpha-family interpolates the two flat connections affinely,

    nabla^alpha = (1 + alpha)/2 * nabla^e + (1 - alpha)/2 * nabla^m,

which reproduces the exponential connection at alpha = +1 and the mixture
connection at alpha = -1. ``duality_check`` evaluates the defining duality

    Z g(X, Y) = g(nabla^e_Z X, Y) + g(X, nabla^m_Z Y)

with an independent finite difference on the left, both sides read from the
same three evaluations at xi and xi +- step Z, and
``weak_invariance_check`` compares a connection on a small simplex with the
conjugated connection pushed through a Markov embedding/co-embedding pair,
both as ambient vectors and in metric-contracted form.

Every check is one stencil kernel on a batch of one: the stencils xi and
xi +- step Z are stacked by model shape, every point and raw Jacobian comes
from its model, and the checks of ``jacobian_at``, ``Distribution``,
``RandomVariable`` and ``TangentVector``, the transports, the central
differences, the pushforwards and the metric contractions run on the
stacks, in the order a single stencil meets them. ``weak_invariance_kernel``
runs the stencils of many trials and grid points at once; the
``weak_invariance`` battery checks all its trials in one call of it. It
takes each pair as its 0-based map and fiber matrix, and both pushforwards
read the kernels of ``markov.pair_stacks``. The embedded family is Phi
applied to the small model's points and Jacobians at each stencil point.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidParameter, NonPositiveWeight, NotNormalized, SizeMismatch, by_shape, in_trial_order,
    require_integer,
)
from .geometry import (
    TangentVector,
    fisher_metric_rows,
    require_centered,
    require_rows_sum_zero,
    score_rows,
)
from .markov import EmbeddingPair, apply_rows, pair_stacks
from .models import ParametricModel, checked_jacobians, jacobians_at
from .simplex import Distribution, centered_rows, expect_rows, require_finite, require_weights

#: Default finite-difference step for covariant derivatives.
DEFAULT_STEP = 1e-4


@dataclass(frozen=True)
class ConnectionTag:
    """Point on the alpha-family; +1 is the e-, -1 the m-connection.

    ``alpha`` must be a finite number.
    """

    alpha: float

    def __post_init__(self) -> None:
        # Written so that NaN fails the test.
        if not (isinstance(self.alpha, numbers.Real) and -math.inf < self.alpha < math.inf):
            raise InvalidParameter(f"alpha must be a finite number, got {self.alpha!r}")


E_CONNECTION = ConnectionTag(1.0)
M_CONNECTION = ConnectionTag(-1.0)


def m_transport(x: TangentVector, q: Distribution) -> TangentVector:
    """Mixture transport: the m-representation does not depend on the point."""
    if q.space != x.base.space:
        raise SizeMismatch("target point lives on a different sample space")
    return TangentVector(q, x.m_rep)


def e_transport(x: TangentVector, q: Distribution) -> TangentVector:
    """Exponential transport: keep the score class, re-center at the target.

    The corresponding 1-form d<A> is m-parallel, so the representative class
    A modulo constants is preserved exactly. The stencil kernel's transport
    on a batch of one.
    """
    if q.space != x.base.space:
        raise SizeMismatch("target point lives on a different sample space")
    return TangentVector(q, _e_transported(q.weights[None], x.base.weights[None], x.m_rep[None])[0])


def _e_transported(w: np.ndarray, w_from: np.ndarray, m_reps: np.ndarray) -> np.ndarray:
    """e-transport of m-representations (T, n) at points ``w_from`` (T, n) to
    points ``w`` (T, n), with the checks of ``e_transport``'s objects in its
    order: the score's and the shifted score's ``RandomVariable``, the
    centering of ``from_e_rep`` and the result's ``TangentVector``."""
    scores = require_finite(score_rows(w_from, m_reps[:, None])[:, 0])
    shifted = require_finite(centered_rows(w, scores))
    require_centered(expect_rows(w, shifted))
    return require_rows_sum_zero(w * shifted)


@dataclass(frozen=True)
class VectorFieldOnModel:
    """Vector field on a parametric model, in coordinate components."""

    model: ParametricModel
    coefficients: Callable[[np.ndarray], np.ndarray]

    def coefficients_at(self, xi) -> np.ndarray:
        c = np.asarray(self.coefficients(np.asarray(xi, dtype=float)), dtype=float)
        if c.shape != (self.model.dim,):
            raise SizeMismatch(
                f"coefficient function returned shape {c.shape}, "
                f"expected ({self.model.dim},)"
            )
        return c


def coordinate_field(model: ParametricModel, index: int) -> VectorFieldOnModel:
    require_integer(index, "coordinate index")
    if not 0 <= index < model.dim:
        raise InvalidParameter(f"coordinate index {index} out of range")
    unit = np.zeros(model.dim)
    unit[index] = 1.0
    return VectorFieldOnModel(model, lambda xi: unit.copy())


def _require_inputs(model: ParametricModel, step: float, fields) -> None:
    """Reject a step that is not finite and positive, and a field whose
    values would be read on another model."""
    if not 0.0 < step < np.inf:
        raise InvalidParameter(f"step must be finite and > 0, got {step!r}")
    for field in fields:
        if field.model is not model:
            raise InvalidParameter("vector field lives on a different model")


# ---------------------------------------------------------------------------
# The stencil kernel
#
# Stencils of one model shape are stacked into C-ordered arrays with a
# leading axis, one row per stencil. Every product is the one a single
# stencil makes: one vector-matrix product per field value, one
# matrix-vector product per pushed vector and last-axis sums for the metric,
# so every entry is bitwise the stencil's own. The checks run on the stacks
# in the order a single stencil meets them.
# ---------------------------------------------------------------------------


def _values_at(model, xi: np.ndarray, fields) -> tuple[np.ndarray, ...]:
    """The values of each row's fields at p_xi, for points xi (T, dim) of one
    model shape: the weights (T, n), the m-representations (T, r, n) with the
    check of each ``TangentVector``, and the coefficients (T, r, dim) and
    checked Jacobians (T, dim, n) they read. Each point is evaluated once."""
    w = np.array([one.point(at).weights for one, at in zip(model, xi)])
    coefficients = np.array([[f.coefficients_at(at) for f in row] for row, at in zip(fields, xi)])
    jac = np.array(jacobians_at(model, xi))
    return w, require_rows_sum_zero((coefficients[..., None, :] @ jac[:, None])[..., 0, :]), coefficients, jac


def _image_points(phi: np.ndarray, w: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Phi p (T, n) of points p (T, m) at parameters xi (T, dim), through
    kernels Phi (T, n, m), checked as ``ParametricModel.point`` checks a point of
    the embedded family. A failure names the first row's xi: run it in trial order."""
    try:
        return require_weights(apply_rows(phi, w))
    except (NonPositiveWeight, NotNormalized) as exc:
        raise InvalidParameter(f"xi={xi[0].tolist()} outside the model: {exc}") from exc


def _image_values(phi, w, coefficients, jac, xi) -> tuple[np.ndarray, np.ndarray]:
    """``_values_at`` of the embedded family from the small model's weights
    (T, m), coefficients and checked Jacobians (T, dim, m) at points xi:
    Phi p, then Phi applied to each Jacobian row with ``jacobian_at``'s
    checks, then the same coefficients read through them."""
    w_big = _image_points(phi, w, xi)
    jac_big = checked_jacobians(apply_rows(phi[:, None], jac))
    return w_big, require_rows_sum_zero((coefficients[..., None, :] @ jac_big[:, None])[..., 0, :])


def _stencil(xi: np.ndarray, shift: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """The points xi + shift and xi - shift (and ``more``) of each row of xi, interleaved in the order
    a single stencil meets them. A nonzero shift lost in either raises: its difference would read 0."""
    up, down = xi + shift, xi - shift
    if np.count_nonzero((shift != 0.0) & ((up == xi) | (down == xi))):
        raise InvalidParameter("step vanishes against xi: some xi +- step * Z equals xi, Z != 0")
    return np.stack([up, down, *more], axis=1).reshape(-1, xi.shape[1])


def _transported_difference(
    alpha: np.ndarray, w: np.ndarray, w_pm: np.ndarray, m_pm: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Central differences of a field's values ``m_pm`` at the points ``w_pm``,
    (2T, n) with the rows at xi + h Z and xi - h Z interleaved, e- and
    m-transported back to the points ``w`` (T, n) and mixed with the weights
    of each row's alpha: the m-reps of nabla^alpha_Z, with the check of their
    ``TangentVector``. A row whose weight of a transport is 0 skips it; the
    m-transport keeps the m-reps."""
    parts = np.zeros(w.shape)
    two_h = 2.0 * h[:, None]
    weight = 0.5 * (1.0 + alpha)
    on = weight != 0.0
    if np.count_nonzero(on):
        pm = np.repeat(on, 2)
        moved = in_trial_order(_e_transported, np.repeat(w[on], 2, axis=0), w_pm[pm], m_pm[pm])
        parts[on] += weight[on, None] * ((moved[0::2] - moved[1::2]) / two_h[on])
    weight = 0.5 * (1.0 - alpha)
    on = weight != 0.0
    parts[on] += weight[on, None] * ((m_pm[0::2] - m_pm[1::2])[on] / two_h[on])
    return require_rows_sum_zero(parts)


def _nabla_rows(alpha: np.ndarray, model, xi: np.ndarray, x, y, h: np.ndarray):
    """nabla^alpha_X Y at points xi (T, dim) of one model shape: the points,
    their weights (T, n), the checked m-reps (T, n), and the stencil as
    ``_image_values`` reads it: weights, coefficients, Jacobians, points."""
    direction = np.array([f.coefficients_at(at) for f, at in zip(x, xi)])
    points = [one.point(at) for one, at in zip(model, xi)]
    w = np.array([p.weights for p in points])
    twice = [one for one in model for _ in (0, 1)]
    fields = [[f] for f in y for _ in (0, 1)]
    at_pm = _stencil(xi, h[:, None] * direction)
    w_pm, m_pm, *read = in_trial_order(_values_at, twice, at_pm, fields)
    return points, w, _transported_difference(alpha, w, w_pm, m_pm[:, 0], h), (w_pm, *read, at_pm)


def _metric(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g(X_t, Y_t) of the rows of x and y (T, n) at points w (T, n)."""
    return fisher_metric_rows(w, x[:, None], y[:, None])[:, 0, 0]


def covariant_derivative(
    tag: ConnectionTag,
    model: ParametricModel,
    xi,
    x: VectorFieldOnModel,
    y: VectorFieldOnModel,
    step: float = DEFAULT_STEP,
) -> TangentVector:
    """nabla^alpha_X Y at p_xi, as an ambient tangent vector.

    The result need not lie in the model's tangent space. ``step`` must be
    finite and positive, and both fields must live on ``model``. The stencil
    kernel on a batch of one.
    """
    _require_inputs(model, step, [x, y])
    xi = np.asarray(xi, dtype=float).reshape(1, -1)
    h = np.array([step], dtype=float)
    points, _, nabla, _ = _nabla_rows(np.array([tag.alpha]), [model], xi, [x], [y], h)
    return TangentVector(points[0], nabla[0])


def duality_check(
    model: ParametricModel,
    xi,
    x: VectorFieldOnModel,
    y: VectorFieldOnModel,
    z: VectorFieldOnModel,
    step: float = DEFAULT_STEP,
) -> float:
    """Residual |Z g(X, Y) - g(nabla^e_Z X, Y) - g(X, nabla^m_Z Y)|.

    The left side is an independent central difference of the metric along
    Z; the residual vanishes at rate O(step^2) on smooth models. Both sides
    read the same three evaluations, at xi +- step Z and at xi. All three
    fields must live on ``model``. The stencil kernel on a batch of one.
    """
    _require_inputs(model, step, [x, y, z])
    xi = np.asarray(xi, dtype=float).reshape(1, -1)
    h = np.array([step], dtype=float)
    shift = h[:, None] * np.array([z.coefficients_at(xi[0])])
    # the values of x and y at xi + step Z, xi - step Z and xi
    w3, m3, _, _ = in_trial_order(_values_at, [model] * 3, _stencil(xi, shift, xi), [[x, y]] * 3)
    w_pm, w, x_pm, y_pm = w3[:2], w3[2:], m3[:2, 0], m3[:2, 1]
    g_pm = _metric(w_pm, x_pm, y_pm)
    lhs = (g_pm[0::2] - g_pm[1::2]) / (2.0 * h)
    nabla_e_x = _transported_difference(np.array([E_CONNECTION.alpha]), w, w_pm, x_pm, h)
    rhs = _metric(w, nabla_e_x, m3[2:, 1])
    nabla_m_y = _transported_difference(np.array([M_CONNECTION.alpha]), w, w_pm, y_pm, h)
    rhs = rhs + _metric(w, m3[2:, 0], nabla_m_y)
    return float(abs(lhs - rhs)[0])


@dataclass(frozen=True)
class WeakInvarianceReport:
    """Grid maxima for the connection-invariance identities."""

    residual_max: float  # vector form: nabla_X Y vs psi_*(nabla'_{phi_* X} phi_* Y)
    metric_residual_max: float  # metric form, contracted against phi_* Z
    grid: tuple[tuple[float, ...], ...]
    step: float
    alpha: float
    alpha_big: float


def weak_invariance_check(
    pair: EmbeddingPair,
    tag: ConnectionTag,
    x: VectorFieldOnModel,
    y: VectorFieldOnModel,
    grid: Sequence[Sequence[float]],
    step: float = DEFAULT_STEP,
    tag_big: ConnectionTag | None = None,
) -> WeakInvarianceReport:
    """Compare nabla_X Y with the embedded connection pushed back down.

    ``x`` and ``y`` live on a model of the small simplex; the same
    coefficient functions are reused on the image family, which is exactly
    the pushforward of the fields through the embedding. With matching
    alpha on both sides the identity holds up to finite-difference error;
    ``tag_big`` lets a deliberately mismatched connection be installed on
    the big simplex as a control. ``grid`` must hold at least one point,
    and ``step`` must be finite and positive; both are checked before
    anything is evaluated. ``weak_invariance_kernel`` on a batch of one.
    """
    arrays = [pair.surjection.map0], [pair.fiber_distributions]
    return weak_invariance_kernel(*arrays, [tag], [x], [y], [grid], [step], [tag_big])[0]


def weak_invariance_kernel(surjection, fibers, tag, x, y, grid, step, tag_big) -> list[WeakInvarianceReport]:
    """``weak_invariance_check`` over a leading trial axis.

    Each argument is a sequence with one entry per trial, in any mix of
    pairs, models, grids and tags; a pair is a 0-based map (n,) and a fiber
    matrix (m, n), checked first. The stencils of every grid point of every
    trial are evaluated together, stacked by the shapes of the small and the
    image model; the image model's points and Jacobians are Phi applied to
    the small model's, evaluated once per stencil point. Every report is
    bitwise the one the trial gives alone, and a failed check raises what
    the first failing trial raises alone, which is what its first failing
    grid point raises.
    """
    return in_trial_order(_weak_invariance_rows, surjection, fibers, tag, x, y, grid, step, tag_big)


def _weak_invariance_rows(surjection, fibers, tag, x, y, grid, step, tag_big) -> list[WeakInvarianceReport]:
    kernels = {}  # each trial's Phi and Psi, from the stacks of its shape
    for trials, _, phi, psi in pair_stacks(surjection, fibers):
        kernels.update(zip(trials, zip(phi, psi)))
    grids, units = [], []
    for t, tag_t, x_t, y_t, grid_t, step_t, big_t in zip(range(len(tag)), tag, x, y, grid, step, tag_big):
        phi_t, psi_t = kernels[t]
        if x_t.model is not y_t.model:
            raise InvalidParameter("x and y must live on the same model")
        if x_t.model.space.size != phi_t.shape[1]:
            raise SizeMismatch("model space does not match the embedding input")
        _require_inputs(x_t.model, step_t, [x_t, y_t])
        points = [np.asarray(raw, dtype=float).reshape(-1) for raw in grid_t]
        if not points:
            raise InvalidParameter("grid must hold at least one point")
        inner = tag_t if big_t is None else big_t
        grids.append((points, tag_t.alpha, inner.alpha, step_t))
        for xi in points:
            units.append((phi_t, psi_t, x_t.model, xi, tag_t.alpha, inner.alpha, x_t, y_t, step_t))
    vec, metric = in_trial_order(_grid_point_rows, *zip(*units)) if units else ([], [])
    reports, u = [], 0
    for points, alpha, alpha_big, step_t in grids:
        # builtin max in grid order, as the grid loop reduced them
        worst_vec = worst_metric = 0.0
        for value, row in zip(vec[u : u + len(points)], metric[u : u + len(points)]):
            worst_vec = max(worst_vec, value)
            for entry in row:
                worst_metric = max(worst_metric, entry)
        u += len(points)
        reports.append(WeakInvarianceReport(
            residual_max=worst_vec,
            metric_residual_max=worst_metric,
            grid=tuple(tuple(float(t) for t in xi) for xi in points),
            step=step_t,
            alpha=alpha,
            alpha_big=alpha_big,
        ))
    return reports


def _grid_point_rows(
    phi, psi, small, xi, alpha, alpha_big, x, y, step
) -> tuple[list[float], list[list[float]]]:
    """The vector residual and the metric residual of each row of the small
    model's Jacobian, for every grid point (one entry each), stacked by the
    shapes of the small and the image model."""
    vec: list = [None] * len(xi)
    metric: list = [None] * len(xi)
    for units in by_shape((one.dim, one.space.size, len(k), at.shape[0]) for one, k, at in zip(small, phi, xi)):
        def pick(column):
            return [column[u] for u in units]

        at, h, x_u, y_u = np.array(pick(xi)), np.array(pick(step), dtype=float), pick(x), pick(y)
        psi_u, phi_u = np.array(pick(psi)), np.array(pick(phi))
        _, w, nabla, stencil = _nabla_rows(np.array(pick(alpha)), pick(small), at, x_u, y_u, h)
        # the image connection from the small model's evaluation: its points, then its stencil
        w_big = in_trial_order(_image_points, phi_u, w, at)
        w_pm, m_pm = in_trial_order(_image_values, np.repeat(phi_u, 2, axis=0), *stencil)
        nabla_big = _transported_difference(np.array(pick(alpha_big)), w_big, w_pm, m_pm[:, 0], h)
        # pushforward(psi, ...) of the image connection: its point, then its vector
        require_weights(apply_rows(psi_u, w_big))
        pushed = require_rows_sum_zero(apply_rows(psi_u, nabla_big))
        residual = abs(nabla - pushed).max(axis=-1)
        jac = np.array(jacobians_at(pick(small), at))
        phi_z = apply_rows(phi_u[:, None], jac)
        for i in range(jac.shape[1]):
            # row i as a TangentVector, then the vector of its pushforward at the image point
            require_rows_sum_zero(jac[:, i])
            require_rows_sum_zero(phi_z[:, i])
        lhs = fisher_metric_rows(w, nabla[:, None], jac)[:, 0]
        rhs = fisher_metric_rows(w_big, nabla_big[:, None], phi_z)[:, 0]
        for row, u in enumerate(units):
            vec[u] = float(residual[row])
            metric[u] = abs(lhs[row] - rhs[row]).tolist()
    return vec, metric
