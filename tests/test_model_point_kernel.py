"""One evaluation per model point against the code it replaced.

The references below are the per-call implementations: ``crb_check`` with
one ``restrict`` per estimator (each evaluating the point and the Jacobian
again), centering inside the V loop and ``cometric_matrix`` for G^{-1};
``lift`` evaluating G per coefficient vector; the covariant derivative with
one ``_flat_derivative`` per transport (each evaluating every shifted point
again); the weak-invariance z-loop over ``coordinate_field`` values; and
``duality_check`` with per-field ``ambient`` calls and two full covariant
derivatives. The library now evaluates each point once and reads those
values, with the same float operations in the same order, so every output
must be the same float, compared through ``float.hex``, or the same error
type.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeo.batteries import _draw_crb
from fishergeo.connections import (
    ConnectionTag,
    VectorFieldOnModel,
    coordinate_field,
    covariant_derivative,
    duality_check,
    e_transport,
    m_transport,
    pushforward_model,
    weak_invariance_check,
)
from fishergeo.errors import (
    BasePointMismatch,
    FisherGeoError,
    NotLocallyUnbiased,
    SingularMatrix,
    SizeMismatch,
)
from fishergeo.geometry import (
    CotangentVector,
    TangentVector,
    delta,
    fisher_metric,
    flat,
    pair,
)
from fishergeo.markov import canonical_embedding, pushforward, random_surjection
from fishergeo.models import (
    UNBIASED_TOL,
    FisherMatrix,
    ParametricModel,
    affine_model,
    bernoulli_model,
    categorical_model,
    crb_check,
    exponential_family_model,
    jacobian_at,
    lifts,
    tangent_basis,
)
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace, sample_interior

# ---------------------------------------------------------------------------
# References: the per-call code
# ---------------------------------------------------------------------------


def reference_fisher_info(model: ParametricModel, xi) -> FisherMatrix:
    p = model.point(xi)
    jac = jacobian_at(model, xi)
    scores = jac / p.weights
    g = scores @ (scores * p.weights).T
    return FisherMatrix(0.5 * (g + g.T), np.asarray(xi, dtype=float))


def reference_cometric_matrix(model: ParametricModel, xi) -> np.ndarray:
    g = reference_fisher_info(model, xi).matrix
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def reference_restrict(model: ParametricModel, xi, alpha_ambient: CotangentVector) -> np.ndarray:
    p = model.point(xi)
    if alpha_ambient.base != p:
        raise BasePointMismatch("ambient covector is not based at p_xi")
    return np.array([pair(alpha_ambient, v) for v in tangent_basis(model, xi)])


def reference_lift(model: ParametricModel, xi, coeffs) -> CotangentVector:
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    if coeffs.shape[0] != model.dim:
        raise SizeMismatch(f"expected {model.dim} coefficients, got {coeffs.shape[0]}")
    p = model.point(xi)
    g = reference_fisher_info(model, xi).matrix
    try:
        weights = np.linalg.solve(g, coeffs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    m_rep = weights @ jacobian_at(model, xi)
    return flat(TangentVector(p, m_rep))


def reference_unbiasedness_errors(model, xi, estimators) -> np.ndarray:
    p = model.point(xi)
    errors = np.empty((len(estimators), model.dim))
    for i, a in enumerate(estimators):
        target = np.zeros(model.dim)
        target[i] = 1.0
        errors[i] = reference_restrict(model, xi, delta(p, a)) - target
    return errors


def reference_crb(model: ParametricModel, xi, estimators) -> dict:
    """The local-mode ``crb_check`` values."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if len(estimators) != model.dim:
        raise SizeMismatch(f"need {model.dim} estimators, got {len(estimators)}")
    errors = reference_unbiasedness_errors(model, xi, estimators)
    worst = float(np.max(np.abs(errors)))
    if worst > UNBIASED_TOL:
        raise NotLocallyUnbiased(f"deviates by {worst:.3e}")
    p = model.point(xi)
    k = model.dim
    v = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            ci = estimators[i].values - np.dot(p.weights, estimators[i].values)
            cj = estimators[j].values - np.dot(p.weights, estimators[j].values)
            v[i, j] = v[j, i] = float(np.dot(p.weights, ci * cj))
    g_inv = reference_cometric_matrix(model, xi)
    diff = v - g_inv
    diff = 0.5 * (diff + diff.T)
    min_eig = float(np.min(np.linalg.eigvalsh(diff)))
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (g_inv + g_inv.T)))))
    return {
        "covariance": v,
        "inverse_information": g_inv,
        "min_eigenvalue": min_eig,
        "psd_tolerance": 1e-8 * (1.0 + spectral),
    }


def reference_draw_crb(rng: np.random.Generator, n_max: int) -> dict:
    n = int(rng.integers(2, n_max + 1))
    model = categorical_model(n)
    xi = sample_interior(model.space, seed=int(rng.integers(2**32))).weights[: n - 1]
    p = model.point(xi)
    jac = jacobian_at(model, xi)
    estimators = []
    for unit in np.eye(n - 1):
        rep = reference_lift(model, xi, unit).rep.values
        noise = rng.normal(size=n)
        noise -= jac.T @ np.linalg.lstsq(jac.T, noise, rcond=None)[0]
        estimators.append(RandomVariable(model.space, rep + float(rng.uniform(0, 2)) * noise))
    return {"model": model, "xi": xi, "p": p, "estimators": estimators}


def reference_flat_derivative(
    transport: Callable[[TangentVector, Distribution], TangentVector],
    model: ParametricModel,
    xi: np.ndarray,
    direction: np.ndarray,
    field: VectorFieldOnModel,
    step: float,
) -> np.ndarray:
    p = model.point(xi)

    def pulled(t: float) -> np.ndarray:
        shifted = xi + t * direction
        value = TangentVector(model.point(shifted), field.ambient_m_rep(shifted))
        return transport(value, p).m_rep

    return (pulled(step) - pulled(-step)) / (2.0 * step)


def reference_covariant_derivative(tag, model, xi, x, y, step=1e-4, richardson=False):
    xi = np.asarray(xi, dtype=float).reshape(-1)
    direction = x.coefficients_at(xi)
    p = model.point(xi)

    def at_step(h: float) -> np.ndarray:
        parts = np.zeros(model.space.size)
        weight_e = 0.5 * (1.0 + tag.alpha)
        weight_m = 0.5 * (1.0 - tag.alpha)
        if weight_e != 0.0:
            parts = parts + weight_e * reference_flat_derivative(
                e_transport, model, xi, direction, y, h
            )
        if weight_m != 0.0:
            parts = parts + weight_m * reference_flat_derivative(
                m_transport, model, xi, direction, y, h
            )
        return parts

    m_rep = at_step(step)
    if richardson:
        m_rep = (4.0 * at_step(step / 2.0) - m_rep) / 3.0
    return TangentVector(p, m_rep)


def reference_duality_check(model, xi, x, y, z, step=1e-4):
    xi = np.asarray(xi, dtype=float).reshape(-1)
    direction = z.coefficients_at(xi)

    def metric_along(t: float) -> float:
        shifted = xi + t * direction
        return fisher_metric(x.ambient(shifted), y.ambient(shifted))

    lhs = (metric_along(step) - metric_along(-step)) / (2.0 * step)
    x_at = x.ambient(xi)
    y_at = y.ambient(xi)
    e_tag, m_tag = ConnectionTag(1.0), ConnectionTag(-1.0)
    rhs = fisher_metric(
        reference_covariant_derivative(e_tag, model, xi, z, x, step), y_at
    ) + fisher_metric(x_at, reference_covariant_derivative(m_tag, model, xi, z, y, step))
    return abs(lhs - rhs)


def reference_weak_invariance(pair_, tag, x, y, grid, step=1e-4, tag_big=None):
    model = x.model
    inner_tag = tag if tag_big is None else tag_big
    big = pushforward_model(pair_, model)
    x_big = VectorFieldOnModel(big, x.coefficients)
    y_big = VectorFieldOnModel(big, y.coefficients)
    psi = pair_.coembedding_channel
    phi = pair_.embedding_channel
    worst_vec = 0.0
    worst_metric = 0.0
    for raw in grid:
        xi = np.asarray(raw, dtype=float).reshape(-1)
        small_nabla = reference_covariant_derivative(tag, model, xi, x, y, step)
        big_nabla = reference_covariant_derivative(inner_tag, big, xi, x_big, y_big, step)
        pushed_back = pushforward(psi, big_nabla.base, big_nabla)
        worst_vec = max(
            worst_vec, float(np.max(np.abs(small_nabla.m_rep - pushed_back.m_rep)))
        )
        p_small = small_nabla.base
        for k in range(model.dim):
            z = coordinate_field(model, k).ambient(xi)
            lhs = fisher_metric(small_nabla, z)
            rhs = fisher_metric(big_nabla, pushforward(phi, p_small, z))
            worst_metric = max(worst_metric, abs(lhs - rhs))
    return worst_vec, worst_metric


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def outcome(fn, *args, **kwargs):
    """The value of ``fn``, or the type of the library error it raised."""
    try:
        return fn(*args, **kwargs)
    except FisherGeoError as exc:
        return type(exc)


def interior_point(n: int, seed: int, exponent: float, count: int) -> np.ndarray:
    """Dirichlet weights with ``count`` of them pushed down to about 10**-exponent."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n))
    low = rng.choice(n, size=min(count, n - 1), replace=False)
    w[low] = 10.0**-exponent * (1.0 + rng.random(low.size))
    rest = np.ones(n, dtype=bool)
    rest[low] = False
    w[rest] *= (1.0 - w[low].sum()) / w[rest].sum()
    return w


def draw_model(kind: str, n: int, seed: int, exponent: float, count: int):
    """A model on n points and a parameter inside it."""
    rng = np.random.default_rng(seed + 7)
    if kind == "bernoulli":
        return bernoulli_model(), interior_point(2, seed, exponent, count)[:1]
    if kind == "categorical":
        w = interior_point(n, seed, exponent, count)
        return categorical_model(n), w[: n - 1]
    dim = int(rng.integers(1, n))
    if kind == "affine":
        anchor = interior_point(n, seed, exponent, count)
        anchor[-1] = 1.0 - anchor[:-1].sum()
        directions = rng.normal(size=(dim, n))
        directions -= directions.mean(axis=1, keepdims=True)
        directions[:, -1] = -directions[:, :-1].sum(axis=1)
        # |xi_i| <= 1 keeps every weight at least half the smallest anchor weight
        directions *= anchor.min() / (2.0 * dim * np.abs(directions).max())
        return affine_model(anchor, directions), rng.uniform(-1.0, 1.0, size=dim)
    return exponential_family_model(rng.normal(size=(dim, n))), rng.normal(size=dim)


models = st.builds(
    draw_model,
    kind=st.sampled_from(["categorical", "affine", "expfam"]),
    n=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(1.0, 6.0),
    count=st.integers(0, 2),
)


def fields(model: ParametricModel, seed: int):
    """Two smooth coefficient fields on ``model``."""
    rng = np.random.default_rng(seed)
    cx, cy, shift = rng.normal(size=(3, model.dim))
    x = VectorFieldOnModel(model, lambda xi: cx * (1.0 + 0.5 * np.sin(xi)))
    y = VectorFieldOnModel(model, lambda xi: cy + 0.3 * (xi - shift) ** 2)
    return x, y


alphas = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-2.0, 2.0))

# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def assert_crb_equal(model, xi, estimators):
    expected = outcome(reference_crb, model, xi, estimators)
    report = outcome(crb_check, model, xi, estimators)
    if isinstance(expected, type):
        assert report is expected
        return
    assert not isinstance(report, type), report
    assert hexes(report.covariance) == hexes(expected["covariance"])
    assert hexes(report.inverse_information) == hexes(expected["inverse_information"])
    assert hexes([report.min_eigenvalue, report.psd_tolerance]) == hexes(
        [expected["min_eigenvalue"], expected["psd_tolerance"]]
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(2, 7))
def test_crb_draw_and_check_bitwise(seed, n_max):
    case = _draw_crb(np.random.default_rng(seed), n_max)
    expected = reference_draw_crb(np.random.default_rng(seed), n_max)
    assert hexes([a.values for a in case["estimators"]]) == hexes(
        [a.values for a in expected["estimators"]]
    )
    assert_crb_equal(case["model"], case["xi"], case["estimators"])


@settings(max_examples=200, deadline=None)
@given(
    drawn=models,
    seed=st.integers(0, 2**32 - 1),
    bias=st.sampled_from([0.0, 1e-9, 1e-6, 1.0, None]),
)
def test_crb_check_bitwise(drawn, seed, bias):
    """Lifted (locally unbiased) estimators plus ``bias`` times noise, or
    pure noise when ``bias`` is None."""
    model, xi = drawn
    rng = np.random.default_rng(seed)
    n = model.space.size
    if bias is None:
        estimators = [RandomVariable(model.space, rng.normal(size=n)) for _ in range(model.dim)]
    else:
        lifted = outcome(lambda: [reference_lift(model, xi, u) for u in np.eye(model.dim)])
        if isinstance(lifted, type):
            assert outcome(lifts, model, xi, np.eye(model.dim)) is lifted
            return
        estimators = [
            RandomVariable(model.space, alpha.rep.values + xi[i] + bias * rng.normal(size=n))
            for i, alpha in enumerate(lifted)
        ]
    assert_crb_equal(model, xi, estimators)


def test_crb_references_reach_both_outcomes():
    """The references raise NotLocallyUnbiased on biased tuples and pass on lifts."""
    model, xi = draw_model("expfam", 5, 3, 2.0, 1)
    biased = [RandomVariable(model.space, np.arange(5.0) * (i + 1)) for i in range(model.dim)]
    with pytest.raises(NotLocallyUnbiased):
        reference_crb(model, xi, biased)
    with pytest.raises(NotLocallyUnbiased):
        crb_check(model, xi, biased)
    lifted = [reference_lift(model, xi, u).rep for u in np.eye(model.dim)]
    assert reference_crb(model, xi, lifted)["min_eigenvalue"] > -1e-8


@settings(max_examples=200, deadline=None)
@given(drawn=models, seed=st.integers(0, 2**32 - 1), count=st.integers(0, 4))
def test_lifts_bitwise(drawn, seed, count):
    model, xi = drawn
    rows = np.random.default_rng(seed).normal(size=(count, model.dim))
    expected = outcome(lambda: [reference_lift(model, xi, row) for row in rows])
    lifted = outcome(lifts, model, xi, rows)
    if isinstance(expected, type) or count == 0:
        # lifts evaluates the point, even for no rows
        assert lifted is expected or lifted == []
    else:
        assert hexes([a.rep.values for a in lifted]) == hexes([a.rep.values for a in expected])


@settings(max_examples=150, deadline=None)
@given(
    drawn=models,
    seed=st.integers(0, 2**32 - 1),
    alpha=alphas,
    richardson=st.booleans(),
    step=st.sampled_from([1e-4, 1e-3]),
)
def test_covariant_derivative_bitwise(drawn, seed, alpha, richardson, step):
    model, xi = drawn
    x, y = fields(model, seed)
    tag = ConnectionTag(alpha)
    expected = outcome(
        reference_covariant_derivative, tag, model, xi, x, y, step, richardson
    )
    value = outcome(covariant_derivative, tag, model, xi, x, y, step, richardson)
    if isinstance(expected, type):
        assert value is expected
    else:
        assert hexes(value.m_rep) == hexes(expected.m_rep)


@settings(max_examples=60, deadline=None)
@given(
    n_big=st.integers(3, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=alphas,
    alpha_big=st.one_of(st.none(), alphas),
    kind=st.sampled_from(["categorical", "affine", "expfam"]),
)
def test_weak_invariance_bitwise(n_big, data, seed, alpha, alpha_big, kind):
    n_small = data.draw(st.integers(2, n_big - 1), label="n_small")
    pair_ = canonical_embedding(
        random_surjection(n_big, n_small, seed=seed),
        Distribution(SampleSpace(n_big), interior_point(n_big, seed, 2.0, 1)),
    )
    model, xi = draw_model(kind, n_small, seed, 1.5, 1)
    x, y = fields(model, seed)
    grid = [xi, 0.5 * xi]
    tag = ConnectionTag(alpha)
    tag_big = None if alpha_big is None else ConnectionTag(alpha_big)
    expected = outcome(reference_weak_invariance, pair_, tag, x, y, grid, 1e-4, tag_big)
    report = outcome(weak_invariance_check, pair_, tag, x, y, grid, 1e-4, tag_big)
    if isinstance(expected, type):
        assert report is expected
    else:
        assert hexes([report.residual_max, report.metric_residual_max]) == hexes(expected)


def counted(model: ParametricModel) -> tuple[ParametricModel, dict]:
    """``model`` with its point map and analytic Jacobian counting their calls.

    Each ``model.point`` calls the point map once and each ``jacobian_at``
    calls the Jacobian once.
    """
    calls = {"point": 0, "jacobian": 0}

    def point_map(xi):
        calls["point"] += 1
        return model.point_map(xi)

    def jacobian(xi):
        calls["jacobian"] += 1
        return model.jacobian(xi)

    return ParametricModel(model.space, model.dim, point_map, jacobian, model.name), calls


def test_duality_check_evaluates_each_point_once():
    """xi + step Z, xi - step Z and xi: one point and one Jacobian each (the
    per-field code made 12 and 10)."""
    model, calls = counted(categorical_model(4))
    x = coordinate_field(model, 0)
    y = VectorFieldOnModel(model, lambda xi: 0.4 + 0.3 * xi**2)
    z = coordinate_field(model, 2)
    duality_check(model, [0.2, 0.3, 0.1], x, y, z)
    assert calls == {"point": 3, "jacobian": 3}


@pytest.mark.parametrize("richardson, points, jacobians", [(False, 3, 2), (True, 5, 4)])
def test_covariant_derivative_evaluation_count(richardson, points, jacobians):
    model, calls = counted(categorical_model(4))
    x = coordinate_field(model, 1)
    y = VectorFieldOnModel(model, lambda xi: 0.4 + 0.3 * xi**2)
    covariant_derivative(ConnectionTag(0.5), model, [0.2, 0.3, 0.1], x, y, richardson=richardson)
    assert calls == {"point": points, "jacobian": jacobians}


@settings(max_examples=200, deadline=None)
@given(
    drawn=st.one_of(
        st.builds(
            draw_model,
            kind=st.sampled_from(["bernoulli", "affine", "expfam"]),
            n=st.integers(2, 6),
            seed=st.integers(0, 2**32 - 1),
            exponent=st.floats(1.0, 6.0),
            count=st.integers(0, 2),
        ),
        st.builds(
            draw_model,
            kind=st.just("categorical"),
            n=st.integers(3, 5),
            seed=st.integers(0, 2**32 - 1),
            exponent=st.floats(1.0, 6.0),
            count=st.integers(0, 2),
        ),
    ),
    seed=st.integers(0, 2**32 - 1),
    picks=st.tuples(*[st.integers(0, 2**16)] * 3),
    step=st.floats(3e-5, 1e-3),
)
def test_duality_check_bitwise(drawn, seed, picks, step):
    """Coordinate fields, the quadratic field 0.4 + 0.3 xi^2 and two random
    smooth fields, in any of the three slots."""
    model, xi = drawn
    pool = [coordinate_field(model, i) for i in range(model.dim)]
    pool.append(VectorFieldOnModel(model, lambda t: 0.4 + 0.3 * t**2))
    pool.extend(fields(model, seed))
    x, y, z = (pool[k % len(pool)] for k in picks)
    expected = outcome(reference_duality_check, model, xi, x, y, z, step)
    residual = outcome(duality_check, model, xi, x, y, z, step)
    if isinstance(expected, type):
        assert residual is expected
    else:
        assert hexes([residual]) == hexes([expected])
