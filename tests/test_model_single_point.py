"""The single-point model functions against the code they replaced.

``fisher_info``, ``restrict``, ``lifts`` and ``jacobian_at`` read their point
with one ``point_rows`` call, and ``crb_check``'s global mode checks its whole
grid as one stack under ``errors.in_trial_order``. The ``frozen_*`` functions
below keep the per-point code they replaced, verbatim but for the Jacobian,
which is ``jacobian_at``'s former path for a model called per point. Run on
the frozen closures of ``test_model_rows`` (plugins, so called per point),
they are the reference: every result of a built-in model must be the frozen
twin's, compared through ``float.hex``, or the same error type and message.
The cases mix built-in and plugin models with parameters inside the model,
outside it (NaN, +-inf, a weight at or below the floor) and of the wrong
length, and global boxes that reach outside the model, for estimators that
are globally unbiased, biased or biased by less than the tolerance.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeo import models
from fishergeo.errors import (
    BasePointMismatch, FisherGeoError, InvalidParameter, NotLocallyUnbiased, SizeMismatch,
)
from fishergeo.geometry import CotangentVector, TangentVector, delta, pair
from fishergeo.models import (
    UNBIASED_TOL, FisherMatrix, ParametricModel, categorical_model, crb_check, crb_kernel, fisher_info,
    jacobian_at, lifts, restrict, unbiased_estimators,
)
from fishergeo.simplex import Distribution, RandomVariable, expect
from test_model_rows import (
    KINDS, PLACES, frozen_categorical_model, hexes, outcome, pair_of_models, parameter, report_bits,
)

# Non-finite and far-out parameters overflow on purpose; both sides warn alike.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)

# ---------------------------------------------------------------------------
# The per-point code the single-point functions replaced
# ---------------------------------------------------------------------------


def frozen_jacobian_at(model: ParametricModel, xi) -> np.ndarray:
    """``jacobian_at`` of a model called per point: the length check, its
    Jacobian closure or central differences, then the checks."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != model.dim:
        raise SizeMismatch(f"expected {model.dim} parameters, got {xi.shape[0]}")
    return models.checked_jacobians(models._raw_jacobian(model, xi)[None])[0]


def frozen_fisher_info(model: ParametricModel, xi) -> FisherMatrix:
    g = models._score_grams(model.point(xi).weights[None], frozen_jacobian_at(model, xi)[None])
    return FisherMatrix(g[0], np.asarray(xi, dtype=float))


def frozen_restrict(model: ParametricModel, xi, alpha_ambient: CotangentVector) -> np.ndarray:
    p = model.point(xi)
    if alpha_ambient.base != p:
        raise BasePointMismatch("ambient covector is not based at p_xi")
    return np.array(
        [pair(alpha_ambient, TangentVector(p, row)) for row in frozen_jacobian_at(model, xi)]
    )


def frozen_lifts(model: ParametricModel, xi, rows) -> list[CotangentVector]:
    rows = [np.asarray(c, dtype=float).reshape(-1) for c in rows]
    for coeffs in rows:
        if coeffs.shape[0] != model.dim:
            raise SizeMismatch(f"expected {model.dim} coefficients, got {coeffs.shape[0]}")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    p = model.point(xi)
    jac = frozen_jacobian_at(model, xi)[None]
    reps = models._lifted(p.weights[None], jac, np.array(rows).reshape(1, len(rows), model.dim))
    return [CotangentVector(p, RandomVariable(p.space, rep)) for rep in reps[0]]


def frozen_crb_check(model: ParametricModel, xi, estimators, mode: str = "local", box=None):
    """``crb_check`` with its grid checked point by point (mode and box are valid here)."""
    if mode == "global":
        models._require_box(box, model.dim)
    report = crb_kernel([model], [xi], [estimators])[0]
    if mode == "local":
        return report
    axes = [np.linspace(lo, hi, models._GLOBAL_GRID_POINTS) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    for point in grid:
        q = model.point(point)
        for i, a in enumerate(estimators):
            err = abs(expect(q, a) - point[i])
            if err > UNBIASED_TOL:
                raise NotLocallyUnbiased(
                    f"<A^{i + 1}> deviates from xi^{i + 1} by {err:.3e} "
                    f"at grid point {point.tolist()}"
                )
    return replace(report, mode=mode)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def lift_bits(cotangents) -> list[str]:
    return [v for alpha in cotangents for v in hexes(alpha.base.weights) + hexes(alpha.rep.values)]


def crb_bits(report) -> list:
    return [*report_bits([report])[0], report.mode]


def biased(model: ParametricModel, rng: np.random.Generator) -> list[RandomVariable]:
    return [RandomVariable(model.space, rng.normal(size=model.space.size)) for _ in range(model.dim)]


@st.composite
def trials(draw) -> tuple[str, ParametricModel, ParametricModel, np.ndarray, np.random.Generator]:
    """A built-in or plugin model, its frozen twin, a parameter placed as ``PLACES`` says, and a generator."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS))
    live, frozen = pair_of_models(kind, draw(st.integers(2, 6)), rng)
    return kind, live, frozen, parameter(kind, live, draw(st.sampled_from(PLACES)), rng), rng


def point_or_another(model: ParametricModel, xi, rng: np.random.Generator, other: bool) -> Distribution:
    """The model's point at xi, or a random point where xi is outside the model or ``other`` is set."""
    try:
        if not other:
            return model.point(xi)
    except FisherGeoError:
        pass
    return Distribution(model.space, rng.dirichlet(np.ones(model.space.size)))


@settings(max_examples=250, deadline=None)
@given(trial=trials(), other_base=st.booleans(), rows=st.integers(0, 3), short_row=st.booleans())
def test_single_point_functions_match_the_frozen_code(trial, other_base, rows, short_row):
    """``fisher_info``, ``jacobian_at``, ``restrict``, ``lifts`` and local
    ``crb_check``: the frozen code's bits on the frozen twin, or its error."""
    kind, live, frozen, xi, rng = trial
    p = point_or_another(frozen, xi, rng, other_base and rng.random() < 0.5)
    alpha = delta(p, RandomVariable(p.space, rng.normal(size=p.space.size)))
    coefficients = [rng.normal(size=live.dim) for _ in range(rows)]
    if short_row and rows:
        coefficients[-1] = coefficients[-1][:-1] if live.dim > 1 else np.append(coefficients[-1], 1.0)
    try:
        estimators = unbiased_estimators(frozen, xi, rng)
    except FisherGeoError:
        estimators = biased(live, rng)
    runs = [
        (fisher_info, frozen_fisher_info, lambda g: hexes(g.matrix) + hexes(g.xi), ()),
        (jacobian_at, frozen_jacobian_at, hexes, ()),
        (restrict, frozen_restrict, hexes, (alpha,)),
        (lifts, frozen_lifts, lift_bits, (coefficients,)),
        (crb_check, frozen_crb_check, crb_bits, (estimators,)),
    ]
    for new, old, bits, args in runs:
        expected = outcome(lambda m: bits(old(m, xi, *args)), frozen)
        assert outcome(lambda m: bits(new(m, xi, *args)), live) == expected, new.__name__


@st.composite
def global_cases(draw):
    """A model, its twin, a point inside, estimators unbiased there (globally
    so on affine and categorical models, up to rounding) shifted by a bias,
    and a box about the point whose axes may reach outside the model."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS))
    live, frozen = pair_of_models(kind, draw(st.integers(2, 4)), rng)
    xi = parameter(kind, live, "inside", rng)
    try:
        estimators = unbiased_estimators(frozen, xi, rng)
    except FisherGeoError:
        estimators = biased(live, rng)
    shift = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-6, 1e-3]))
    p = frozen.point(xi)
    estimators = [
        RandomVariable(a.space, a.values + (xi[i] - expect(p, a) + shift * (i == 0))) for i, a in enumerate(estimators)
    ]
    reach = st.sampled_from([0.0, 0.01, 0.1, 0.5, 2.0])
    box = [(x - draw(reach), x + draw(reach)) for x in xi]
    return live, frozen, xi, estimators, box


@settings(max_examples=150, deadline=None)
@given(case=global_cases())
def test_global_mode_matches_the_frozen_loop(case):
    """Global mode: the frozen loop's report, or the error of its first
    failing grid point in meshgrid order, outside the model or biased."""
    live, frozen, xi, estimators, box = case
    expected = outcome(lambda m: crb_bits(frozen_crb_check(m, xi, estimators, "global", box)), frozen)
    assert outcome(lambda m: crb_bits(crb_check(m, xi, estimators, "global", box)), live) == expected


#: Locally unbiased everywhere on the categorical model on 3 points, and biased by 1e-3 everywhere.
SHIFTED = [np.array([1.001, 0.001, 0.001]), np.array([0.001, 1.001, 0.001])]


@pytest.mark.parametrize("box, error, message", [
    ([(0.1, 0.6), (0.1, 0.6)], NotLocallyUnbiased,
     "<A^1> deviates from xi^1 by 1.000e-03 at grid point [0.1, 0.1]"),
    ([(-0.1, 0.3), (0.1, 0.3)], InvalidParameter,
     "xi=[-0.1, 0.1] outside the model: weight -0.1 at index 1 is at or below 1e-12"),
], ids=["biased-first", "outside-first"])
def test_the_first_failing_grid_point_raises(box, error, message):
    """A biased grid point before one outside the model raises its bias, and
    the other way round: the grid raises what its first failing point raises."""
    xi = [0.3, 0.3]
    for model, check in ((categorical_model(3), crb_check), (frozen_categorical_model(3), frozen_crb_check)):
        estimators = [RandomVariable(model.space, a) for a in SHIFTED]
        with pytest.raises(error) as raised:
            check(model, xi, estimators, "global", box)
        assert str(raised.value) == message


def test_a_plugin_model_is_called_per_point_its_point_before_its_jacobian():
    calls = []
    twin = frozen_categorical_model(3)
    model = ParametricModel(
        twin.space, 2,
        lambda xi: calls.append("point") or twin.point_map(xi),
        lambda xi: calls.append("jacobian") or twin.jacobian(xi),
    )
    xi = [0.2, 0.5]
    alpha = delta(twin.point(xi), RandomVariable(twin.space, [1.0, 2.0, 4.0]))
    for run in (lambda: fisher_info(model, xi), lambda: restrict(model, xi, alpha),
                lambda: lifts(model, xi, [[1.0, 0.0], [0.0, 1.0]])):
        calls.clear()
        run()
        assert calls == ["point", "jacobian"]
    calls.clear()
    indicators = [RandomVariable(model.space, row) for row in np.eye(3)[:2]]
    crb_check(model, xi, indicators, "global", [(0.1, 0.3), (0.2, 0.4)])
    assert calls == ["point", "jacobian"] + ["point"] * 25
