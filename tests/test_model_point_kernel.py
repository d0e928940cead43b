"""One evaluation per model point against the code it replaced.

The references below are the per-call implementations: ``crb_check`` with
one ``restrict`` per estimator (each evaluating the point and the Jacobian
again), centering inside the V loop and ``cometric_matrix`` for G^{-1};
``lift`` evaluating G per coefficient vector; the covariant derivative with
one ``_flat_derivative`` per transport (each evaluating every shifted point
again); the weak-invariance z-loop over ``coordinate_field`` values; and
``duality_check`` with a point and Jacobian evaluation per field value and
two full covariant derivatives; the CRB draw with its own ``jacobian_at`` for the noise
projection next to ``lifts``; and the two-point ``bernoulli_model`` with its
own point map and Jacobian. The library now evaluates each point once and
reads those values, with the same float operations in the same order, so
every output must be the same float, compared through ``float.hex``, or the
same error type.

``crb_kernel`` and ``unbiased_estimators_kernel`` evaluate a batch of model
points at once, stacked by model shape, and the ``crb`` battery draws all
its trials through one call of the second. Each trial of a batch must give
its reference values, and a batch with a failing trial must raise what the
first failing trial raises alone.

The estimator kernel projects its noise through one stacked QR, where the
reference makes one ``lstsq`` per noise row, so only the lifts stay bitwise.
The noise of both is held to the exact projection of ``exact.projected_noise``
within a rounding budget (``noise_overshoots``), and the reference CRB draw
takes its blocks in the battery's order from the same generator.

The connection references call the frozen ``e_transport``,
``fisher_metric`` and ``pushforward`` of ``test_frozen_scalars``: the
library's scalars are the stencil kernel's and the pair kernels' rows forms
on a batch of one.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from fishergeo import batteries
from fishergeo.batteries import _draw_crb
from fishergeo.connections import (
    ConnectionTag,
    VectorFieldOnModel,
    coordinate_field,
    covariant_derivative,
    duality_check,
    m_transport,
    weak_invariance_kernel,
)
from fishergeo.errors import (
    BasePointMismatch,
    FisherGeoError,
    InvalidParameter,
    NotCentered,
    NotLocallyUnbiased,
    RankDeficient,
    SingularMatrix,
    SizeMismatch,
)
from fishergeo.geometry import (
    CotangentVector,
    TangentVector,
    delta,
    flat,
    pair,
)
from fishergeo.markov import canonical_embedding, random_surjection
from fishergeo.models import (
    UNBIASED_TOL,
    FisherMatrix,
    ParametricModel,
    affine_model,
    bernoulli_model,
    categorical_model,
    crb_check,
    crb_kernel,
    estimator_noise,
    exponential_family_model,
    jacobian_at,
    lifts,
    unbiased_estimators,
    unbiased_estimators_kernel,
)
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace, sample_interior
from test_frozen_scalars import apply, e_transport, fisher_metric, pushforward

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
    return np.array([pair(alpha_ambient, TangentVector(p, row)) for row in jacobian_at(model, xi)])


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


def reference_estimator_parts(model: ParametricModel, xi, noise) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trial's estimators on its noise draw (rows, scales) by the per-row
    code, with its own Jacobian for the noise projection and ``lifts``
    evaluating the point and the Jacobian again: the lifts of d xi^i and
    each noise row minus its least-squares fit by the Jacobian's rows, one
    ``lstsq`` per row, after the checks of the estimators lifts + scales *
    noise. Returns the lifts, the projected noise and the Jacobian."""
    rows, scale = (np.asarray(part, dtype=float) for part in noise)
    jac = jacobian_at(model, xi)
    lifted = np.array([alpha.rep.values for alpha in lifts(model, xi, np.eye(model.dim))])
    projected = np.array(rows)
    for z in projected:
        z -= jac.T @ np.linalg.lstsq(jac.T, z, rcond=None)[0]
    for values in lifted + scale[:, None] * projected:
        RandomVariable(model.space, values)
    return lifted, projected, jac


def reference_noise(model: ParametricModel, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one ``unbiased_estimators`` call: per estimator a
    ``normal`` row, then a ``uniform(0, 2)`` scale."""
    rows, scales = [], []
    for _ in range(model.dim):
        rows.append(rng.normal(size=model.space.size))
        scales.append(float(rng.uniform(0, 2)))
    return np.array(rows), np.array(scales)


def reference_draw_crb(rng: np.random.Generator, rounds: int, n_max: int) -> list[dict]:
    """The crb battery's draw in its block order: every size n, the flat
    Dirichlet points of each size in order of first appearance, flattened
    onto the 1e-6 floor as ``sample_interior`` flattens its point, one
    ``normal`` block of the noise rows (n - 1, n) and one ``uniform(0, 2)``
    block of the scales (n - 1,)."""
    sizes = [int(n) for n in rng.integers(2, n_max + 1, size=rounds)]
    points: list = [None] * rounds
    for n in dict.fromkeys(sizes):
        trials = [t for t, size in enumerate(sizes) if size == n]
        for t, w in zip(trials, rng.dirichlet(np.ones(n), size=len(trials))):
            points[t] = 1e-6 + (1.0 - n * 1e-6) * w
    noise = rng.normal(size=sum(n * (n - 1) for n in sizes))
    scales = rng.uniform(0, 2, size=sum(sizes) - rounds)
    cases, start, first = [], 0, 0
    for n, w in zip(sizes, points):
        rows = noise[start : start + (n - 1) * n].reshape(n - 1, n)
        cases.append({"model": categorical_model(n), "xi": w[: n - 1], "noise": (rows, scales[first : first + n - 1])})
        start, first = start + (n - 1) * n, first + n - 1
    return cases


def reference_unbiased_estimators(model: ParametricModel, xi, rng: np.random.Generator):
    """The estimators of the per-trial CRB draw: ``reference_estimator_parts`` on ``reference_noise``."""
    noise = reference_noise(model, rng)
    lifted, projected, _ = reference_estimator_parts(model, xi, noise)
    return [RandomVariable(model.space, v) for v in lifted + noise[1][:, None] * projected]


def reference_draw_crb_lifts(
    rng: np.random.Generator, n_max: int, categorical=categorical_model
) -> dict:
    n = int(rng.integers(2, n_max + 1))
    model = categorical(n)
    xi = sample_interior(model.space, seed=int(rng.integers(2**32))).weights[: n - 1]
    p = model.point(xi)
    estimators = reference_unbiased_estimators(model, xi, rng)
    return {"model": model, "xi": xi, "p": p, "estimators": estimators}


def reference_bernoulli_model() -> ParametricModel:
    space = SampleSpace(2)

    def point_map(xi: np.ndarray) -> Distribution:
        theta = float(xi[0])
        return Distribution(space, np.array([theta, 1.0 - theta]))

    def jac(xi: np.ndarray) -> np.ndarray:
        return np.array([[1.0, -1.0]])

    return ParametricModel(space, 1, point_map, jac, name="bernoulli")


def reference_ambient(field: VectorFieldOnModel, xi) -> TangentVector:
    """The field's value at p_xi, from its own point and Jacobian evaluation."""
    model = field.model
    return TangentVector(model.point(xi), field.coefficients_at(xi) @ jacobian_at(model, xi))


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
        return transport(reference_ambient(field, shifted), p).m_rep

    return (pulled(step) - pulled(-step)) / (2.0 * step)


def reference_covariant_derivative(tag, model, xi, x, y, step=1e-4):
    xi = np.asarray(xi, dtype=float).reshape(-1)
    direction = x.coefficients_at(xi)
    p = model.point(xi)
    parts = np.zeros(model.space.size)
    weight_e = 0.5 * (1.0 + tag.alpha)
    weight_m = 0.5 * (1.0 - tag.alpha)
    if weight_e != 0.0:
        parts = parts + weight_e * reference_flat_derivative(
            e_transport, model, xi, direction, y, step
        )
    if weight_m != 0.0:
        parts = parts + weight_m * reference_flat_derivative(
            m_transport, model, xi, direction, y, step
        )
    return TangentVector(p, parts)


def reference_duality_check(model, xi, x, y, z, step=1e-4):
    xi = np.asarray(xi, dtype=float).reshape(-1)
    direction = z.coefficients_at(xi)

    def metric_along(t: float) -> float:
        shifted = xi + t * direction
        return fisher_metric(reference_ambient(x, shifted), reference_ambient(y, shifted))

    lhs = (metric_along(step) - metric_along(-step)) / (2.0 * step)
    x_at = reference_ambient(x, xi)
    y_at = reference_ambient(y, xi)
    e_tag, m_tag = ConnectionTag(1.0), ConnectionTag(-1.0)
    rhs = fisher_metric(
        reference_covariant_derivative(e_tag, model, xi, z, x, step), y_at
    ) + fisher_metric(x_at, reference_covariant_derivative(m_tag, model, xi, z, y, step))
    return abs(lhs - rhs)


def reference_pushforward_model(pair_, model: ParametricModel) -> ParametricModel:
    channel = pair_.embedding_channel
    if model.space != channel.in_space:
        raise SizeMismatch("model space does not match the embedding input")
    return ParametricModel(
        channel.out_space, model.dim, lambda xi: apply(channel, model.point(xi)),
        lambda xi: jacobian_at(model, xi) @ channel.kernel.T, name=f"{model.name}>embedded",
    )


def reference_weak_invariance(pair_, tag, x, y, grid, step=1e-4, tag_big=None):
    model = x.model
    inner_tag = tag if tag_big is None else tag_big
    big = reference_pushforward_model(pair_, model)
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
            z = reference_ambient(coordinate_field(model, k), xi)
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


#: The unit roundoff of IEEE double precision.
U = 2.0**-53
#: The budget constant of the projected noise, in units of n * u * kappa(J) * |z|.
NOISE_C = 8
#: A power of two so large that a lift plus NOISE_SCALE times its noise rounds
#: to NOISE_SCALE times the noise: such an estimator, divided back, reads the
#: noise the kernel projected, to within |lift| / NOISE_SCALE (below 1e-40 here).
NOISE_SCALE = 2.0**200


def noise_overshoots(jac: np.ndarray, rows: np.ndarray, *found: np.ndarray) -> list[float]:
    """For each stack of projected noise rows in ``found``, the largest error
    against the exact projection of ``rows`` through the float Jacobian
    ``jac`` (dim, n) over the budget NOISE_C * n * u * kappa(J) * |z|, after
    requiring J P z = 0 exactly. The condition number enters as it does for
    any least-squares projection: J's row space is computed to about
    n * u * kappa(J) (Golub & Van Loan, 5.3)."""
    numerators, denominator = exact.projected_noise(jac.tolist(), np.asarray(rows).tolist())
    assert all(v == 0 for row in exact.restriction(jac.tolist(), numerators) for v in row)
    scale = NOISE_C * jac.shape[1] * U * float(np.linalg.cond(jac))

    def error(value: float, numerator: int) -> float:
        top, bottom = value.as_integer_ratio()
        return abs(top * denominator - numerator * bottom) / (bottom * denominator)

    return [
        max(
            max(error(v, e) for v, e in zip(z_found.tolist(), z_exact)) / (scale * float(np.linalg.norm(z)))
            for z, z_found, z_exact in zip(rows, stack, numerators)
        )
        for stack in found
    ]


def kernel_parts(models_, points, rows) -> tuple[list, list]:
    """``unbiased_estimators_kernel`` on the noise ``rows`` of each trial: its
    lifts (every scale 0) and its projected noise rows (every scale
    NOISE_SCALE, divided back)."""
    def values(scale: float) -> list[np.ndarray]:
        noise = [(z, np.full(len(z), scale)) for z in rows]
        return [np.array([a.values for a in e]) for e in unbiased_estimators_kernel(models_, points, noise)]

    return values(0.0), [v / NOISE_SCALE for v in values(NOISE_SCALE)]


def assert_estimators_hold(models_, points, noise) -> list[np.ndarray]:
    """The kernel's estimators for a batch of trials' noise (rows, scales)
    against the per-row code of ``reference_estimator_parts``:

    - each trial's lifts are bitwise the reference's, and so ``reference_lift``'s
      (``test_lifts_bitwise``; a scale of 0 keeps the bits of every nonzero lift);
    - its projected noise, and the reference's, are within the budget of
      ``noise_overshoots``;
    - each estimator is lift + scale * noise to rounding, and bitwise the
      one the trial gives alone.

    Returns the estimators' values, one (dim, n) array per trial."""
    values = [np.array([a.values for a in e]) for e in unbiased_estimators_kernel(models_, points, noise)]
    lifted, projected = kernel_parts(models_, points, [rows for rows, _ in noise])
    for t, (model, xi, (rows, scale)) in enumerate(zip(models_, points, noise)):
        reference_lifts, reference, jac = reference_estimator_parts(model, xi, (rows, scale))
        assert hexes(lifted[t]) == hexes(reference_lifts)
        assert max(noise_overshoots(jac, rows, projected[t], reference)) <= 1.0
        added = np.asarray(scale)[:, None] * projected[t]
        assert np.all(abs(values[t] - (lifted[t] + added)) <= 4 * U * (abs(lifted[t]) + abs(added)))
        if len(models_) > 1:
            alone = unbiased_estimators_kernel([model], [xi], [(rows, scale)])[0]
            assert hexes([a.values for a in alone]) == hexes(values[t])
    return values


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
    if kind == "fd":
        # an affine or exponential family without its analytic Jacobian
        model, xi = draw_model("affine" if seed % 2 else "expfam", n, seed, exponent, count)
        return replace(model, jacobian=None, name="fd"), xi
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
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(2, 8))
def test_crb_draw_and_check_bitwise(seed, n_max):
    """The draw of one trial, through ``unbiased_estimators_kernel``, against
    the reference draw in the same block order. Both generators must end in
    the same state, so later trials draw the same cases; the point is the
    same bitwise and the estimators hold to the per-row code."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    [case] = _draw_crb(rng, 1, n_max)
    assert sorted(case) == ["estimators", "model", "xi"]
    [expected] = reference_draw_crb(reference_rng, 1, n_max)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert case["model"].space == expected["model"].space
    assert hexes(case["xi"]) == hexes(expected["xi"])
    [values] = assert_estimators_hold([case["model"]], [case["xi"]], [expected["noise"]])
    assert hexes([a.values for a in case["estimators"]]) == hexes(values)
    assert_crb_equal(case["model"], case["xi"], case["estimators"])


@settings(max_examples=200, deadline=None)
@given(drawn=models, seed=st.integers(0, 2**32 - 1))
def test_unbiased_estimators_on_any_model_bitwise(drawn, seed):
    """``unbiased_estimators`` draws what the per-estimator reference draws,
    from the same generator calls, raises its error type, or gives the
    kernel's estimators on that noise, which hold to the per-row code."""
    model, xi = drawn
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    noise = reference_noise(model, reference_rng)
    expected = outcome(reference_estimator_parts, model, xi, noise)
    value = outcome(unbiased_estimators, model, xi, rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    if isinstance(expected, type):
        assert value is expected
        return
    [values] = assert_estimators_hold([model], [xi], [noise])
    assert hexes([a.values for a in value]) == hexes(values)


@settings(max_examples=200, deadline=None)
@given(
    drawn=models,
    seed=st.integers(0, 2**32 - 1),
    bias=st.sampled_from([0.0, 1e-9, 1e-6, 1.0, None]),
)
def test_crb_check_bitwise(drawn, seed, bias):
    model, xi = drawn
    estimators = estimator_tuple(model, xi, seed, bias)
    if isinstance(estimators, type):
        assert outcome(lifts, model, xi, np.eye(model.dim)) is estimators
        return
    assert_crb_equal(model, xi, estimators)


def estimator_tuple(model, xi, seed: int, bias):
    """Lifted (locally unbiased) estimators plus ``bias`` times noise, or
    pure noise when ``bias`` is None; the reference lift's error type when
    it raises."""
    rng = np.random.default_rng(seed)
    n = model.space.size
    if bias is None:
        return [RandomVariable(model.space, rng.normal(size=n)) for _ in range(model.dim)]
    lifted = outcome(lambda: [reference_lift(model, xi, u) for u in np.eye(model.dim)])
    if isinstance(lifted, type):
        return lifted
    return [
        RandomVariable(model.space, alpha.rep.values + xi[i] + bias * rng.normal(size=n))
        for i, alpha in enumerate(lifted)
    ]


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
    step=st.sampled_from([1e-4, 1e-3]),
)
def test_covariant_derivative_bitwise(drawn, seed, alpha, step):
    model, xi = drawn
    x, y = fields(model, seed)
    tag = ConnectionTag(alpha)
    expected = outcome(reference_covariant_derivative, tag, model, xi, x, y, step)
    value = outcome(covariant_derivative, tag, model, xi, x, y, step)
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
    arrays = [pair_.surjection.map0], [pair_.fiber_distributions]
    reports = outcome(weak_invariance_kernel, *arrays, [tag], [x], [y], [grid], [1e-4], [tag_big])
    report = reports if isinstance(reports, type) else reports[0]
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


def test_crb_trial_evaluates_its_point_once_per_step(monkeypatch):
    """One CRB trial, the draw plus ``crb_check``: one point and one Jacobian
    for the estimators and one each for the check. With the draw that
    evaluated its own Jacobian next to ``lifts`` the trial made 3 and 3."""
    tallies = []

    def counted_categorical(n):
        model, calls = counted(categorical_model(n))
        tallies.append(calls)
        return model

    monkeypatch.setattr(batteries, "categorical_model", counted_categorical)
    [case] = _draw_crb(np.random.default_rng(11), 1, 6)
    crb_check(**case)
    expected = reference_draw_crb_lifts(np.random.default_rng(11), 6, counted_categorical)
    crb_check(expected["model"], expected["xi"], expected["estimators"])
    assert tallies == [{"point": 2, "jacobian": 2}, {"point": 3, "jacobian": 3}]


@settings(max_examples=300, deadline=None)
@given(
    theta=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([0.0, 1.0, -0.5, 1.5, 1e-13, 1.0 - 1e-13, np.nan, np.inf, -np.inf]),
        st.floats(),
    )
)
def test_bernoulli_model_bitwise(theta):
    """The two-point categorical model against the separate Bernoulli code:
    the same points and Jacobians inside (0, 1), the same errors outside."""
    model, expected = bernoulli_model(), reference_bernoulli_model()
    assert (model.name, model.dim, model.space) == (expected.name, expected.dim, expected.space)
    for evaluate in (
        lambda m: m.point([theta]).weights,
        lambda m: jacobian_at(m, [theta]),
        lambda m: m.point_map(np.array([theta])).weights,
    ):
        value, reference = outcome(evaluate, model), outcome(evaluate, expected)
        if isinstance(reference, type):
            assert value is reference
        else:
            assert not isinstance(value, type), value
            assert hexes(value) == hexes(reference)


def test_duality_check_evaluates_each_point_once():
    """xi + step Z, xi - step Z and xi: one point and one Jacobian each (the
    per-field code made 12 and 10)."""
    model, calls = counted(categorical_model(4))
    x = coordinate_field(model, 0)
    y = VectorFieldOnModel(model, lambda xi: 0.4 + 0.3 * xi**2)
    z = coordinate_field(model, 2)
    duality_check(model, [0.2, 0.3, 0.1], x, y, z)
    assert calls == {"point": 3, "jacobian": 3}


def test_covariant_derivative_evaluation_count():
    model, calls = counted(categorical_model(4))
    x = coordinate_field(model, 1)
    y = VectorFieldOnModel(model, lambda xi: 0.4 + 0.3 * xi**2)
    covariant_derivative(ConnectionTag(0.5), model, [0.2, 0.3, 0.1], x, y)
    assert calls == {"point": 3, "jacobian": 2}


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


# ---------------------------------------------------------------------------
# The model-point kernels: crb_check and unbiased_estimators over a batch
# ---------------------------------------------------------------------------


def error_of(run) -> tuple[type, str]:
    with pytest.raises(FisherGeoError) as caught:
        run()
    return type(caught.value), str(caught.value)


#: Points of every model kind, analytic or finite-difference Jacobians, with
#: n from 2 to 8 and up to two weights pushed towards the boundary.
batch_points = st.builds(
    draw_model,
    kind=st.sampled_from(["categorical", "affine", "expfam", "fd"]),
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(1.0, 6.0),
    count=st.integers(0, 2),
)


def assert_report_is(report, expected) -> None:
    assert report.mode == "local"
    assert hexes(report.covariance) == hexes(expected["covariance"])
    assert hexes(report.inverse_information) == hexes(expected["inverse_information"])
    assert hexes([report.min_eigenvalue, report.psd_tolerance]) == hexes(
        [expected["min_eigenvalue"], expected["psd_tolerance"]]
    )


@settings(max_examples=150, deadline=None)
@given(
    batch=st.lists(
        st.tuples(
            batch_points,
            st.integers(0, 2**32 - 1),
            # mostly locally unbiased tuples, some biased or pure noise
            st.sampled_from([0.0, 1e-9, 0.0, 1e-9, 1e-6, None]),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_crb_kernel_bitwise(batch):
    """A mixed batch gives each trial's reference report, bitwise; a batch
    with a failing trial raises what the first one raises alone."""
    trials = []
    for (model, xi), seed, bias in batch:
        estimators = estimator_tuple(model, xi, seed, bias)
        if not isinstance(estimators, type):
            trials.append((model, xi, estimators))
    if not trials:
        return
    expected = [outcome(reference_crb, *trial) for trial in trials]
    columns = [list(column) for column in zip(*trials)]
    failed = [t for t, e in enumerate(expected) if isinstance(e, type)]
    if failed:
        raised = error_of(lambda: crb_kernel(*columns))
        assert raised[0] is expected[failed[0]]
        assert raised == error_of(lambda: crb_check(*trials[failed[0]]))
        return
    reports = crb_kernel(*columns)
    assert len(reports) == len(trials)
    for report, reference in zip(reports, expected):
        assert_report_is(report, reference)


@settings(max_examples=150, deadline=None)
@given(batch=st.lists(st.tuples(batch_points, st.integers(0, 2**32 - 1)), min_size=1, max_size=5))
def test_unbiased_estimators_kernel_bitwise(batch):
    """Each trial's estimators from its ``estimator_noise`` draw hold to the
    per-row code on the same noise (``assert_estimators_hold``), or the batch
    raises what its first failing trial raises alone, of the reference's type."""
    models_, points, noise, expected = [], [], [], []
    for (model, xi), seed in batch:
        models_.append(model)
        points.append(xi)
        noise.append(estimator_noise(model, np.random.default_rng(seed)))
        expected.append(outcome(reference_estimator_parts, model, xi, noise[-1]))
    failed = [t for t, e in enumerate(expected) if isinstance(e, type)]
    if failed:
        raised = error_of(lambda: unbiased_estimators_kernel(models_, points, noise))
        assert raised[0] is expected[failed[0]]
        first = failed[0]
        assert raised == error_of(
            lambda: unbiased_estimators_kernel([models_[first]], [points[first]], [noise[first]])
        )
        return
    assert_estimators_hold(models_, points, noise)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(2, 8), rounds=st.integers(1, 12))
def test_crb_battery_draw_and_kernel_bitwise(seed, n_max, rounds):
    """The battery's batched draw against the reference draw in the same
    block order from one generator, which must end in the same state: the
    same points bitwise, estimators that hold to the per-row code; then the
    kernel on the drawn batch against the per-trial reference check."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cases = _draw_crb(rng, rounds, n_max)
    expected = reference_draw_crb(reference_rng, rounds, n_max)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert len(cases) == rounds
    assert [hexes(case["xi"]) for case in cases] == [hexes(e["xi"]) for e in expected]
    values = assert_estimators_hold(
        [case["model"] for case in cases], [case["xi"] for case in cases], [e["noise"] for e in expected]
    )
    assert [hexes([a.values for a in case["estimators"]]) for case in cases] == [hexes(v) for v in values]
    reports = crb_kernel(*[[case[key] for case in cases] for key in ("model", "xi", "estimators")])
    for case, report in zip(cases, reports):
        assert_report_is(report, reference_crb(case["model"], case["xi"], case["estimators"]))


def plugin(model: ParametricModel) -> ParametricModel:
    """``model`` behind its own point map and Jacobian, called per point as a plugin model is."""
    return ParametricModel(model.space, model.dim, model.point, model.jacobian, name="plugin")


def noise_trials(batch) -> list[tuple]:
    """The (model, point, noise rows) of each drawn trial whose lifts exist,
    its model as a plugin when flagged."""
    trials = []
    for (model, xi), as_plugin, seed in batch:
        model = plugin(model) if as_plugin else model
        rows = np.random.default_rng(seed).normal(size=(model.dim, model.space.size))
        if not isinstance(outcome(kernel_parts, [model], [xi], [rows]), type):
            trials.append((model, xi, rows))
    return trials


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(st.tuples(batch_points, st.booleans(), st.integers(0, 2**32 - 1)), min_size=1, max_size=4))
def test_projected_noise_is_exact_and_within_budget(batch):
    """The kernel's projected noise on a batch against ``exact.projected_noise``:
    truth, J P z = 0 exactly, and the budget of ``noise_overshoots``, on the
    categorical models, exponential and mixture submodels (dim < n - 1, where
    P z is not the mean of z), central differences and plugins."""
    trials = noise_trials(batch)
    if not trials:
        return
    models_, points, rows = (list(column) for column in zip(*trials))
    _, projected = kernel_parts(models_, points, rows)
    for model, xi, z, found in zip(models_, points, rows, projected):
        assert noise_overshoots(jacobian_at(model, xi), z, found)[0] <= 1.0


def test_the_noise_budget_catches_a_skewed_projection(monkeypatch):
    """Q off orthonormal by a relative 1e-12, far below any check of the
    estimators, overshoots the budget on the battery's own draw."""
    cases = reference_draw_crb(np.random.default_rng(0), 20, 4)
    models_, points = [case["model"] for case in cases], [case["xi"] for case in cases]
    rows = [case["noise"][0] for case in cases]

    def worst() -> float:
        _, projected = kernel_parts(models_, points, rows)
        return max(
            noise_overshoots(jacobian_at(model, xi), z, found)[0]
            for model, xi, z, found in zip(models_, points, rows, projected)
        )

    assert worst() <= 1.0
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: (qr(a)[0] * (1.0 + 1e-12), None))
    assert worst() > 100.0


def rank_deficient_trial() -> tuple:
    """An affine model whose two directions coincide, so its Jacobian fails the rank test."""
    direction = [0.01, -0.01, 0.0, 0.0]
    model = affine_model(np.full(4, 0.25), [direction, direction])
    return model, np.array([0.1, 0.1])


def test_crb_kernel_raises_what_the_first_bad_trial_raises():
    """Trial 1 fails late (a biased tuple), trial 3 early (a rank-deficient
    Jacobian) and trial 4 first of all (one estimator short). A batch
    evaluated stage by stage meets trial 4 first; the kernel must still
    raise trial 1's error, as ``crb_check`` raises it alone."""
    trials = []
    for kind, n, seed, bias in (
        ("categorical", 4, 1, 0.0), ("expfam", 5, 2, 1.0), ("fd", 4, 3, 0.0),
    ):
        model, xi = draw_model(kind, n, seed, 2.0, 1)
        trials.append((model, xi, estimator_tuple(model, xi, seed, bias)))
    model, xi = rank_deficient_trial()
    trials.append((model, xi, [RandomVariable(model.space, np.arange(4.0))] * 2))
    model, xi = draw_model("categorical", 3, 5, 2.0, 1)
    trials.append((model, xi, estimator_tuple(model, xi, 5, 0.0)[:1]))
    expected = [NotLocallyUnbiased, RankDeficient, SizeMismatch]
    assert [outcome(reference_crb, *trial) for trial in trials[1::2] + trials[4:]] == expected
    assert not isinstance(outcome(reference_crb, *trials[2]), type)
    for start, first, kind in zip((0, 2, 4), (1, 3, 4), expected):
        columns = [list(column) for column in zip(*trials[start:])]
        raised = error_of(lambda: crb_kernel(*columns))
        assert raised[0] is kind
        assert raised == error_of(lambda: crb_check(*trials[first]))


def test_unbiased_estimators_kernel_raises_what_the_first_bad_trial_raises():
    """Trial 1's estimators are not finite (an infinite scale), which the
    kernel meets last; trial 2's Jacobian fails the rank test, which it
    meets early. The kernel must raise trial 1's error."""
    trials = []
    for seed, n in ((1, 4), (2, 3)):
        model, xi = draw_model("categorical", n, seed, 2.0, 1)
        trials.append((model, xi, estimator_noise(model, np.random.default_rng(seed))))
    noise, scale = trials[1][2]
    trials[1] = (*trials[1][:2], (noise, np.full_like(scale, np.inf)))
    model, xi = rank_deficient_trial()
    trials.append((model, xi, estimator_noise(model, np.random.default_rng(3))))
    columns = [list(column) for column in zip(*trials)]
    raised = error_of(lambda: unbiased_estimators_kernel(*columns))
    assert raised[0] is InvalidParameter and "must be finite" in raised[1]
    assert raised == error_of(lambda: unbiased_estimators_kernel(*[[c] for c in trials[1]]))
    assert error_of(lambda: unbiased_estimators_kernel(*[c[2:] for c in columns]))[0] is RankDeficient


def test_model_point_kernels_need_one_entry_per_trial():
    model, xi = draw_model("categorical", 3, 0, 2.0, 1)
    estimators = estimator_tuple(model, xi, 0, 0.0)
    assert crb_kernel([], [], []) == []
    assert unbiased_estimators_kernel([], [], []) == []
    with pytest.raises(SizeMismatch, match="one entry per trial"):
        crb_kernel([model] * 2, [xi], [estimators] * 2)
    with pytest.raises(SizeMismatch, match="one entry per trial"):
        unbiased_estimators_kernel([model], [xi] * 2, [estimator_noise(model, np.random.default_rng(0))])


def test_crb_check_meets_each_estimators_checks_in_order():
    """Estimator 1 is too large to be centered to the tolerance, and
    estimator 2 overflows when it is centered. The object path checks
    estimator 1 first, so the stacked checks must raise its NotCentered,
    not estimator 2's InvalidParameter; and the same before an estimator
    on the wrong space."""
    model, xi = categorical_model(3), np.array([0.3, 0.5])
    estimators = [
        RandomVariable(model.space, np.array([1e17, 1.0, 3.0])),
        RandomVariable(model.space, np.array([1.7e308, -1.7e308, 0.0])),
    ]
    with np.errstate(over="ignore"):
        raised = error_of(lambda: crb_check(model, xi, estimators))
        assert raised == error_of(lambda: reference_crb(model, xi, estimators))
        assert raised[0] is NotCentered
        assert error_of(lambda: crb_check(model, xi, estimators[1:] * 2))[0] is InvalidParameter
    # an estimator on another space cannot be stacked: the same order holds
    other = RandomVariable(SampleSpace(2), np.array([1.0, 2.0]))
    for tuple_, kind in (([estimators[0], other], NotCentered), ([other, estimators[0]], SizeMismatch)):
        raised = error_of(lambda: crb_check(model, xi, tuple_))
        assert raised == error_of(lambda: reference_crb(model, xi, tuple_))
        assert raised[0] is kind
