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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter, SizeMismatch
from .geometry import TangentVector, e_rep, fisher_metric, from_e_rep
from .markov import EmbeddingPair, apply, pushforward
from .models import ParametricModel, jacobian_at
from .simplex import Distribution, RandomVariable, expect

#: Default finite-difference step for covariant derivatives.
DEFAULT_STEP = 1e-4


@dataclass(frozen=True)
class ConnectionTag:
    """Point on the alpha-family; +1 is the e-, -1 the m-connection."""

    alpha: float


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
    A modulo constants is preserved exactly.
    """
    if q.space != x.base.space:
        raise SizeMismatch("target point lives on a different sample space")
    ell = e_rep(x)
    shifted = ell.values - expect(q, ell)
    return from_e_rep(q, RandomVariable(q.space, shifted))


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


def _values_at(model: ParametricModel, xi, fields) -> list[TangentVector]:
    """Each field's value at p_xi, from one point and one Jacobian."""
    p = model.point(xi)
    coefficients = [field.coefficients_at(xi) for field in fields]
    jac = jacobian_at(model, xi)
    return [TangentVector(p, c @ jac) for c in coefficients]


def _transported_difference(
    tag: ConnectionTag, p: Distribution, up: TangentVector, down: TangentVector, h: float
) -> np.ndarray:
    """Central difference of a field's values at xi +- h Z, e- and m-transported
    back to p and mixed with the tag's weights: the m-rep of nabla^alpha_Z."""
    weight_e, weight_m = 0.5 * (1.0 + tag.alpha), 0.5 * (1.0 - tag.alpha)
    parts = np.zeros(p.space.size)
    for transport, weight in ((e_transport, weight_e), (m_transport, weight_m)):
        if weight != 0.0:
            diff = transport(up, p).m_rep - transport(down, p).m_rep
            parts = parts + weight * (diff / (2.0 * h))
    return parts


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
    finite and positive.
    """
    _require_inputs(model, step, [y])
    xi = np.asarray(xi, dtype=float).reshape(-1)
    direction = x.coefficients_at(xi)
    p = model.point(xi)
    (up,) = _values_at(model, xi + step * direction, [y])
    (down,) = _values_at(model, xi - step * direction, [y])
    return TangentVector(p, _transported_difference(tag, p, up, down, step))


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
    read the same three evaluations, at xi +- step Z and at xi.
    """
    _require_inputs(model, step, [x, y])
    xi = np.asarray(xi, dtype=float).reshape(-1)
    direction = z.coefficients_at(xi)
    x_up, y_up = _values_at(model, xi + step * direction, [x, y])
    x_down, y_down = _values_at(model, xi - step * direction, [x, y])
    x_at, y_at = _values_at(model, xi, [x, y])
    p = x_at.base
    lhs = (fisher_metric(x_up, y_up) - fisher_metric(x_down, y_down)) / (2.0 * step)
    nabla_e_x = _transported_difference(E_CONNECTION, p, x_up, x_down, step)
    rhs = fisher_metric(TangentVector(p, nabla_e_x), y_at)
    nabla_m_y = _transported_difference(M_CONNECTION, p, y_up, y_down, step)
    rhs = rhs + fisher_metric(x_at, TangentVector(p, nabla_m_y))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class WeakInvarianceReport:
    """Grid maxima for the connection-invariance identities."""

    residual_max: float  # vector form: nabla_X Y vs psi_*(nabla'_{phi_* X} phi_* Y)
    metric_residual_max: float  # metric form, contracted against phi_* Z
    grid: tuple[tuple[float, ...], ...]
    step: float
    alpha: float
    alpha_big: float


def pushforward_model(pair: EmbeddingPair, model: ParametricModel) -> ParametricModel:
    """The image family xi -> Phi(p_xi) inside the big simplex."""
    channel = pair.embedding_channel
    if model.space != channel.in_space:
        raise SizeMismatch("model space does not match the embedding input")

    def point_map(xi: np.ndarray) -> Distribution:
        return apply(channel, model.point(xi))

    def jac(xi: np.ndarray) -> np.ndarray:
        return jacobian_at(model, xi) @ channel.kernel.T

    return ParametricModel(
        channel.out_space, model.dim, point_map, jac, name=f"{model.name}>embedded"
    )


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
    the big simplex as a control.
    """
    if x.model is not y.model:
        raise InvalidParameter("x and y must live on the same model")
    model = x.model
    inner_tag = tag if tag_big is None else tag_big
    big = pushforward_model(pair, model)
    x_big = VectorFieldOnModel(big, x.coefficients)
    y_big = VectorFieldOnModel(big, y.coefficients)
    psi = pair.coembedding_channel
    phi = pair.embedding_channel

    worst_vec = 0.0
    worst_metric = 0.0
    frozen_grid: list[tuple[float, ...]] = []
    for raw in grid:
        xi = np.asarray(raw, dtype=float).reshape(-1)
        frozen_grid.append(tuple(float(t) for t in xi))
        small_nabla = covariant_derivative(tag, model, xi, x, y, step)
        big_nabla = covariant_derivative(inner_tag, big, xi, x_big, y_big, step)
        pushed_back = pushforward(psi, big_nabla.base, big_nabla)
        worst_vec = max(
            worst_vec, float(np.max(np.abs(small_nabla.m_rep - pushed_back.m_rep)))
        )
        p_small = small_nabla.base
        for row in jacobian_at(model, xi):
            z = TangentVector(p_small, row)
            lhs = fisher_metric(small_nabla, z)
            rhs = fisher_metric(big_nabla, pushforward(phi, p_small, z))
            worst_metric = max(worst_metric, abs(lhs - rhs))
    return WeakInvarianceReport(
        residual_max=worst_vec,
        metric_residual_max=worst_metric,
        grid=tuple(frozen_grid),
        step=step,
        alpha=tag.alpha,
        alpha_big=inner_tag.alpha,
    )
