"""The array strong-invariance kernel against the object-level code it replaced.

The reference below is the per-entry implementation: Gram-Schmidt over
``TangentVector`` objects and the double ``fisher_metric`` loop for the
matrices of the two differentials and for ``tangent_gram``. The array kernel
does the same float operations in the same order, so every basis entry,
every residual and every Gram entry must be the same float, compared through
``float.hex``.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeo.errors import BasePointMismatch
from fishergeo.geometry import (
    TangentVector,
    fisher_metric,
    norm_tangent,
    orthonormal_basis_rows,
    orthonormal_tangent_basis,
    tangent_gram,
)
from fishergeo.markov import (
    apply,
    canonical_embedding,
    conditional_expectation,
    random_surjection,
)
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace, cov
from fishergeo.verify import check_strong_invariance


def reference_basis(p: Distribution) -> list[TangentVector]:
    n = p.space.size
    basis: list[TangentVector] = []
    for i in range(n - 1):
        m = np.zeros(n)
        m[i] = 1.0
        m[n - 1] = -1.0
        v = TangentVector(p, m)
        for u in basis:
            v = TangentVector(p, v.m_rep - fisher_metric(v, u) * u.m_rep)
        basis.append(TangentVector(p, v.m_rep / norm_tangent(v)))
    return basis


def reference_residuals(pair, q, a, b) -> dict[str, float]:
    phi = pair.embedding_channel
    psi = pair.coembedding_channel
    p = apply(psi, q)
    small_basis = reference_basis(p)
    big_basis = reference_basis(q)
    dim_small, dim_big = len(small_basis), len(big_basis)
    a_mat = np.empty((dim_big, dim_small))
    for i, u in enumerate(small_basis):
        image = TangentVector(q, phi.kernel @ u.m_rep)
        for j, v in enumerate(big_basis):
            a_mat[j, i] = fisher_metric(image, v)
    b_mat = np.empty((dim_small, dim_big))
    for j, v in enumerate(big_basis):
        image = TangentVector(p, psi.kernel @ v.m_rep)
        for i, u in enumerate(small_basis):
            b_mat[i, j] = fisher_metric(image, u)
    projector = a_mat @ b_mat
    eye_small = np.eye(dim_small)
    residuals = {
        "adjoint": float(np.max(np.abs(b_mat - a_mat.T))),
        "projector_idempotent": float(np.max(np.abs(projector @ projector - projector))),
        "projector_self_adjoint": float(np.max(np.abs(projector - projector.T))),
        "projector_fixes_image": float(np.max(np.abs(projector @ a_mat - a_mat))),
        "section": float(np.max(np.abs(b_mat @ a_mat - eye_small))),
        "isometry": float(np.max(np.abs(a_mat.T @ a_mat - eye_small))),
        "coisometry": float(np.max(np.abs(b_mat @ b_mat.T - eye_small))),
    }
    lhs = cov(p, a, conditional_expectation(phi, b))
    rhs = cov(q, pair.surjection.compose_variable(a), b)
    residuals["covariance_identity"] = abs(lhs - rhs)
    return residuals


def reference_gram(vectors: list[TangentVector]) -> np.ndarray:
    k = len(vectors)
    g = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            g[i, j] = g[j, i] = fisher_metric(vectors[i], vectors[j])
    return g


def boundary_point(n: int, seed: int, exponent: float, count: int) -> Distribution:
    """A Dirichlet draw with ``count`` weights pushed down to about 10**-exponent."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n))
    low = rng.choice(n, size=min(count, n - 1), replace=False)
    w[low] = 10.0**-exponent * (1.0 + rng.random(low.size))
    rest = np.ones(n, dtype=bool)
    rest[low] = False
    w[rest] *= (1.0 - w[low].sum()) / w[rest].sum()
    return Distribution(SampleSpace(n), w)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


points = st.builds(
    boundary_point,
    n=st.integers(3, 24),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(1.0, 10.0),
    count=st.integers(0, 3),
)


@settings(max_examples=200, deadline=None)
@given(points)
def test_basis_rows_bitwise(p):
    expected = [v.m_rep for v in reference_basis(p)]
    assert hexes(orthonormal_basis_rows(p)) == hexes(expected)
    assert hexes([v.m_rep for v in orthonormal_tangent_basis(p)]) == hexes(expected)


@settings(max_examples=200, deadline=None)
@given(
    n_big=st.integers(3, 24),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(1.0, 10.0),
    count=st.integers(0, 3),
)
def test_strong_invariance_residuals_bitwise(n_big, data, seed, exponent, count):
    n_small = data.draw(st.integers(2, n_big - 1), label="n_small")
    q = boundary_point(n_big, seed, exponent, count)
    pair = canonical_embedding(random_surjection(n_big, n_small, seed=seed), q)
    rng = np.random.default_rng(seed + 1)
    a = RandomVariable(SampleSpace(n_small), rng.normal(size=n_small))
    b = RandomVariable(SampleSpace(n_big), rng.normal(size=n_big))
    expected = reference_residuals(pair, q, a, b)
    residuals = check_strong_invariance(pair, q, a, b).residuals
    assert list(residuals) == list(expected)
    assert hexes(list(residuals.values())) == hexes(list(expected.values()))


@settings(max_examples=200, deadline=None)
@given(
    p=points,
    seed=st.integers(0, 2**32 - 1),
    basis_count=st.integers(0, 4),
    random_count=st.integers(0, 4),
    mismatch=st.booleans(),
)
def test_tangent_gram_bitwise(p, seed, basis_count, random_count, mismatch):
    """Basis vectors, random vectors of mixed scale and, with ``mismatch``,
    one vector at another base point, which both sides reject."""
    rng = np.random.default_rng(seed)
    n = p.space.size
    vectors = reference_basis(p)[:basis_count]
    for _ in range(random_count):
        m = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 3, size=n)
        m[-1] = -m[:-1].sum()
        vectors.append(TangentVector(p, m))
    if mismatch:
        other = boundary_point(n, seed + 1, 2.0, 1)
        vectors.insert(int(rng.integers(len(vectors) + 1)), TangentVector(other, np.zeros(n)))
        if len(vectors) > 1:
            with pytest.raises(BasePointMismatch):
                reference_gram(vectors)
            with pytest.raises(BasePointMismatch):
                tangent_gram(vectors)
            return
    gram = tangent_gram(vectors)
    assert gram.shape == (len(vectors), len(vectors))
    assert hexes(gram) == hexes(reference_gram(vectors))
