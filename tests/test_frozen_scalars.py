"""The scalar primitives against frozen copies of their former arithmetic.

Each scalar operation (expectation, covariance, delta, flat, the metric, the
push of a point or vector, the conditional expectation and the lift) is its
rows form on a batch of one, and the kernels run the same rows forms on
stacks. A test that compares a kernel with the scalar functions therefore
compares the rows forms with themselves. The functions below are verbatim
copies of the scalar bodies as they were written before the rows forms
took over: ``np.dot`` expectations, ``kernel @ w``, ``kernel.T @ a``,
``values[map0]``, ``np.sum(x * y / w)``, ``m / w``, the double loop of
``cov_matrix`` and the Jacobian product of an embedded model; the family
matrix has its one frozen copy in ``frozen_probe``. They build the
library's objects, so they run the same checks. The kernel tests use them
as references, and the
hypothesis tests here hold every public scalar to its copy through
``float.hex``, on 2 to 39 outcomes, weights pushed down to 1e-9 and
channels that are not square.
"""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeo import connections, geometry, markov, simplex
from fishergeo.errors import BasePointMismatch, FisherGeoError, SizeMismatch
from fishergeo.geometry import CotangentVector, TangentVector, from_e_rep, require_same_base
from fishergeo.markov import Channel, Surjection, canonical_embedding, random_surjection
from fishergeo.models import exponential_family_model, jacobian_at, jacobian_rows
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace

# ---------------------------------------------------------------------------
# Frozen copies
# ---------------------------------------------------------------------------


def _require_same_space(p, a) -> None:
    if p.space != a.space:
        raise SizeMismatch(f"sample spaces differ: {p.space.size} vs {a.space.size}")


def expect(p: Distribution, a: RandomVariable) -> float:
    _require_same_space(p, a)
    return float(np.dot(p.weights, a.values))


def cov(p: Distribution, a: RandomVariable, b: RandomVariable) -> float:
    _require_same_space(p, a)
    _require_same_space(p, b)
    ca = a.values - np.dot(p.weights, a.values)
    cb = b.values - np.dot(p.weights, b.values)
    return float(np.dot(p.weights, ca * cb))


def cov_matrix(p: Distribution, variables) -> np.ndarray:
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


def delta(p: Distribution, a: RandomVariable) -> CotangentVector:
    if a.space != p.space:
        raise SizeMismatch("random variable and distribution on different spaces")
    centered = a.values - np.dot(p.weights, a.values)
    return CotangentVector(p, RandomVariable(p.space, centered))


def e_rep(x: TangentVector) -> RandomVariable:
    return RandomVariable(x.base.space, x.m_rep / x.base.weights)


def flat(x: TangentVector) -> CotangentVector:
    return CotangentVector(x.base, e_rep(x))


def fisher_metric(x: TangentVector, y: TangentVector) -> float:
    require_same_base(x, y)
    return float(np.sum(x.m_rep * y.m_rep / x.base.weights))


def norm_tangent(x: TangentVector) -> float:
    return math.sqrt(max(fisher_metric(x, x), 0.0))


def fisher_cometric(alpha: CotangentVector, beta: CotangentVector) -> float:
    require_same_base(alpha, beta)
    return cov(alpha.base, alpha.rep, beta.rep)


def apply(channel: Channel, p: Distribution) -> Distribution:
    if p.space != channel.in_space:
        raise SizeMismatch("distribution is not on the channel input space")
    return Distribution(channel.out_space, channel.kernel @ p.weights)


def pushforward(channel: Channel, p: Distribution, x: TangentVector) -> TangentVector:
    if x.base != p:
        raise BasePointMismatch("tangent vector is not based at p")
    return TangentVector(apply(channel, p), channel.kernel @ x.m_rep)


def conditional_expectation(channel: Channel, a: RandomVariable) -> RandomVariable:
    if a.space != channel.out_space:
        raise SizeMismatch("variable is not on the channel output space")
    return RandomVariable(channel.in_space, channel.kernel.T @ a.values)


def pullback(channel: Channel, p: Distribution, alpha: CotangentVector) -> CotangentVector:
    if alpha.base != apply(channel, p):
        raise BasePointMismatch("covector is not based at the image of p")
    return delta(p, conditional_expectation(channel, alpha.rep))


def compose_variable(surjection: Surjection, a: RandomVariable) -> RandomVariable:
    if a.space != surjection.codomain:
        raise SizeMismatch("variable is not on the codomain")
    return RandomVariable(surjection.domain, a.values[np.asarray(surjection.map0)])


def e_transport(x: TangentVector, q: Distribution) -> TangentVector:
    if q.space != x.base.space:
        raise SizeMismatch("target point lives on a different sample space")
    ell = e_rep(x)
    shifted = ell.values - expect(q, ell)
    return from_e_rep(q, RandomVariable(q.space, shifted))


def pushed_jacobian(pair, model, xi) -> np.ndarray:
    """The Jacobian at xi of the image of ``model`` through the pair's embedding."""
    return jacobian_at(model, xi) @ pair.embedding_channel.kernel.T


# ---------------------------------------------------------------------------
# The public scalars against their copies
# ---------------------------------------------------------------------------


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def boundary_weights(rng: np.random.Generator, n: int, pushed: int) -> np.ndarray:
    """A Dirichlet draw on n outcomes with ``pushed`` weights near 1e-9."""
    w = rng.dirichlet(np.ones(n))
    low = rng.choice(n, size=min(pushed, n - 1), replace=False)
    w[low] = 1e-9 * (1.0 + rng.random(low.size))
    rest = np.ones(n, dtype=bool)
    rest[low] = False
    w[rest] *= (1.0 - w[low].sum()) / w[rest].sum()
    return w


def values(rng: np.random.Generator, size) -> np.ndarray:
    """Normal draws, each row scaled by 1e-5..1e5."""
    rows = np.atleast_2d(rng.normal(size=size))
    return (rows * 10.0 ** rng.uniform(-5, 5, size=(len(rows), 1))).reshape(size)


def sum_zero(rng: np.random.Generator, n: int) -> np.ndarray:
    """An m-representation scaled by 1e-5..1e2: larger scales round its sum
    beyond the ``TangentVector`` tolerance."""
    m = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 2)
    return m - m.mean()


def channel(rng: np.random.Generator, n_in: int, n_out: int, column_major: bool) -> Channel:
    """A channel with a flat Dirichlet column per input, in either memory layout:
    the product with a kernel rounds differently between layouts."""
    columns = rng.dirichlet(np.ones(n_out), size=n_in)
    kernel = columns.T if column_major else np.ascontiguousarray(columns.T)
    return Channel(SampleSpace(n_in), SampleSpace(n_out), kernel)


cases = st.fixed_dictionaries({
    "n": st.integers(2, 39),
    "pushed": st.integers(0, 3),
    "seed": st.integers(0, 2**32 - 1),
})


def outcome(run) -> list[str] | tuple[type, str]:
    """The value's floats as hex, or the error raised: scores and centerings
    of values near 1e5 at weights near 1e-9 may fail their centering check."""
    try:
        return hexes(run())
    except FisherGeoError as exc:
        return type(exc), str(exc)


def same(new, old) -> bool:
    return outcome(new) == outcome(old)


def ok(run) -> bool:
    """Whether ``run()`` returns rather than raising a FisherGeoError."""
    try:
        run()
    except FisherGeoError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(cases, st.integers(0, 5))
def test_moments_and_geometry_match_their_copies(case, k):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    space = SampleSpace(n)
    p = Distribution(space, boundary_weights(rng, n, case["pushed"]))
    q = Distribution(space, boundary_weights(rng, n, case["pushed"]))
    a, b = (RandomVariable(space, values(rng, n)) for _ in range(2))
    variables = [RandomVariable(space, row) for row in values(rng, (k, n))]
    x, y = (TangentVector(p, sum_zero(rng, n)) for _ in range(2))
    alpha, beta = delta(p, a), delta(p, b)

    assert same(lambda: simplex.expect(p, a), lambda: expect(p, a))
    assert same(lambda: simplex.cov(p, a, b), lambda: cov(p, a, b))
    assert same(lambda: simplex.variance(p, a), lambda: variance(p, a))
    assert same(lambda: simplex.cov_matrix(p, variables), lambda: cov_matrix(p, variables))
    assert same(lambda: geometry.delta(p, a).rep.values, lambda: alpha.rep.values)
    assert same(lambda: geometry.e_rep(x).values, lambda: e_rep(x).values)
    assert same(lambda: geometry.flat(x).rep.values, lambda: flat(x).rep.values)
    assert same(lambda: geometry.fisher_metric(x, y), lambda: fisher_metric(x, y))
    assert same(lambda: geometry.norm_tangent(x), lambda: norm_tangent(x))
    assert same(lambda: geometry.fisher_cometric(alpha, beta), lambda: fisher_cometric(alpha, beta))
    assert same(lambda: connections.e_transport(x, q).m_rep, lambda: e_transport(x, q).m_rep)


@settings(max_examples=300, deadline=None)
@given(cases, st.integers(2, 39), st.booleans())
def test_markov_maps_match_their_copies(case, n_out, column_major):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    p = Distribution(SampleSpace(n), boundary_weights(rng, n, case["pushed"]))
    x = TangentVector(p, sum_zero(rng, n))
    k = channel(rng, n, n_out, column_major)
    a = RandomVariable(k.out_space, values(rng, n_out))
    alpha = delta(apply(k, p), a)

    assert same(lambda: markov.apply(k, p).weights, lambda: apply(k, p).weights)
    assert same(lambda: markov.pushforward(k, p, x).m_rep, lambda: pushforward(k, p, x).m_rep)
    assert same(lambda: markov.conditional_expectation(k, a).values,
                lambda: conditional_expectation(k, a).values)
    assert same(lambda: markov.pullback(k, p, alpha).rep.values,
                lambda: pullback(k, p, alpha).rep.values)
    if n_out <= n:
        surjection = random_surjection(n, n_out, seed=case["seed"])
        assert same(lambda: surjection.compose_variable(a).values,
                    lambda: compose_variable(surjection, a).values)


@settings(max_examples=100, deadline=None)
@given(cases, st.integers(0, 37), st.integers(1, 3))
def test_pushed_jacobians_match_their_copy(case, extra, dim):
    """Each entry of an embedding's kernel product has one nonzero term, so
    the Jacobian rows that the weak-invariance kernel pushes, stacked over
    points, match the former matrix product bitwise. The push reads no
    weights, so the points' weights are uniform here."""
    rng = np.random.default_rng(case["seed"])
    m = case["n"]
    n = min(m + extra, 39)
    q = Distribution(SampleSpace(n), boundary_weights(rng, n, case["pushed"]))
    pair = canonical_embedding(random_surjection(n, m, seed=case["seed"]), q)
    model = exponential_family_model(values(rng, (min(dim, m - 1), m)))
    # the kernel pushes Jacobians that passed their checks: keep the points where they pass
    xi = np.array([at for at in rng.normal(size=(3, model.dim)) if ok(lambda: jacobian_at(model, at))])
    ((_, _, phi, _),) = markov.pair_stacks([pair.surjection.map0], [pair.fiber_distributions])
    pushed, checked = [], connections.checked_jacobians

    def spy(raw):
        pushed.append(raw)
        return checked(raw)

    if len(xi):
        k = len(xi)
        with mock.patch.object(connections, "checked_jacobians", spy), np.errstate(all="ignore"):
            ok(lambda: connections._image_values(
                np.repeat(phi, k, axis=0), np.full((k, m), 1.0 / m), np.ones((k, 1, model.dim)),
                jacobian_rows([model] * k, xi), xi,
            ))
        assert len(pushed[0]) == k
        for raw, at in zip(pushed[0], xi):
            assert same(lambda: raw, lambda: pushed_jacobian(pair, model, at))


P3 = Distribution(SampleSpace(3), np.full(3, 1 / 3))
A3 = RandomVariable(SampleSpace(3), [1.0, 2.0, 3.0])
B2 = RandomVariable(SampleSpace(2), [1.0, 2.0])
K23 = Channel(SampleSpace(2), SampleSpace(3), np.full((3, 2), 1 / 3))
F32 = Surjection(SampleSpace(3), SampleSpace(2), (0, 1, 1))


@pytest.mark.parametrize("new, old, args", [
    (simplex.expect, expect, (P3, B2)),
    (simplex.cov, cov, (P3, A3, B2)),
    (simplex.cov_matrix, cov_matrix, (P3, [A3, B2])),
    (geometry.delta, delta, (P3, B2)),
    (markov.apply, apply, (K23, P3)),
    (markov.conditional_expectation, conditional_expectation, (K23, B2)),
    (Surjection.compose_variable, compose_variable, (F32, A3)),
], ids=["expect", "cov", "cov_matrix", "delta", "apply", "conditional_expectation",
        "compose_variable"])
def test_space_checks_match_their_copies(new, old, args):
    """A variable or point on another space raises what the copy raises."""
    with pytest.raises(SizeMismatch) as raised:
        new(*args)
    with pytest.raises(SizeMismatch) as expected:
        old(*args)
    assert str(raised.value) == str(expected.value)
