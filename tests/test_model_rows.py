"""The built-in models' rows forms against the per-point closures they replaced.

Each built-in model (categorical, Bernoulli, exponential family, affine)
has one rows form, its weights and raw Jacobians at a stack of parameters;
its point map and Jacobian are that form on a batch of one, and the kernels
evaluate the trials of one ``rows_key`` with one call of it. The ``frozen_*``
constructors below hold the per-point closures the rows forms replaced,
verbatim. A model built from them is a plugin, so it runs the per-point
fallback: every point, Jacobian, estimator and CRB report of a stack of
built-in models (plugins among them) must be the frozen stack's, compared
through ``float.hex``, or the same error, and a failing stack must raise
what its first failing trial raises alone. The cases include parameters
outside the model: NaN, +-inf, a weight at or below the positivity floor,
and the wrong length.

The call counts pin one rows-form call per shape and kernel, one per
single-point function and two per global-mode ``crb_check``: a fall back to
one call per trial or per point raises them.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeo import models
from fishergeo.batteries import _draw_crb
from fishergeo.connections import (
    ConnectionTag,
    VectorFieldOnModel,
    coordinate_field,
    covariant_derivative,
    duality_check,
)
from fishergeo.errors import FisherGeoError, InvalidParameter, NonPositiveWeight, SizeMismatch
from fishergeo.geometry import delta
from fishergeo.models import (
    ParametricModel,
    affine_model,
    bernoulli_model,
    categorical_model,
    crb_check,
    crb_kernel,
    estimator_noise,
    exponential_family_model,
    fisher_info,
    lifts,
    restrict,
    rows_key,
    unbiased_estimators_kernel,
)
from fishergeo.simplex import POSITIVITY_FLOOR, Distribution, RandomVariable, SampleSpace

# Non-finite and far-out parameters overflow on purpose; both sides warn alike.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)

# ---------------------------------------------------------------------------
# The per-point closures the rows forms replaced, verbatim
# ---------------------------------------------------------------------------


def frozen_categorical_model(n: int) -> ParametricModel:
    """Full simplex in the coordinates xi^i = p(i), i = 1..n-1."""
    space = SampleSpace(n)

    def point_map(xi: np.ndarray) -> Distribution:
        return Distribution(space, np.append(xi, 1.0 - float(np.sum(xi))))

    def jac(xi: np.ndarray) -> np.ndarray:
        j = np.zeros((n - 1, n))
        for i in range(n - 1):
            j[i, i] = 1.0
            j[i, n - 1] = -1.0
        return j

    return ParametricModel(space, n - 1, point_map, jac, name="categorical")


def frozen_bernoulli_model() -> ParametricModel:
    """p_theta = (theta, 1 - theta) on a two-point space."""
    return replace(frozen_categorical_model(2), name="bernoulli")


def frozen_exponential_family_model(stats: np.ndarray, base: Distribution | None = None) -> ParametricModel:
    stats = np.array(stats, dtype=float)
    dim, n = stats.shape
    space = SampleSpace(n)
    base_w = np.full(n, 1.0 / n) if base is None else base.weights
    log_base = np.log(base_w)

    def weights_at(xi: np.ndarray) -> np.ndarray:
        logits = log_base + xi @ stats
        logits = logits - np.max(logits)
        w = np.exp(logits)
        return w / np.sum(w)

    def point_map(xi: np.ndarray) -> Distribution:
        return Distribution(space, weights_at(xi))

    def jac(xi: np.ndarray) -> np.ndarray:
        w = weights_at(xi)
        centered = stats - (stats @ w)[:, None]
        return centered * w

    return ParametricModel(space, dim, point_map, jac, name="expfam")


def frozen_affine_model(anchor: np.ndarray, directions: np.ndarray) -> ParametricModel:
    anchor = np.array(anchor, dtype=float).reshape(-1)
    directions = np.array(directions, dtype=float)
    space = SampleSpace(anchor.shape[0])
    dim = directions.shape[0]

    def point_map(xi: np.ndarray) -> Distribution:
        return Distribution(space, anchor + xi @ directions)

    def jac(xi: np.ndarray) -> np.ndarray:
        return directions.copy()

    return ParametricModel(space, dim, point_map, jac, name="affine")


# ---------------------------------------------------------------------------
# Trials: a built-in model, its frozen twin and a parameter
# ---------------------------------------------------------------------------

KINDS = ["categorical", "bernoulli", "expfam", "affine", "fd", "plugin"]
#: How a parameter is placed: inside the model, or outside it in one way.
PLACES = ["inside", "inside", "inside", "nan", "inf", "-inf", "floor", "length"]


def pair_of_models(kind: str, n: int, rng: np.random.Generator) -> tuple[ParametricModel, ParametricModel]:
    """A model of ``kind`` on n points and its frozen twin. ``fd`` is an
    exponential family whose Jacobian is replaced by central differences, and
    ``plugin`` a frozen affine model: both are called per point."""
    if kind == "categorical":
        return categorical_model(n), frozen_categorical_model(n)
    if kind == "bernoulli":
        return bernoulli_model(), frozen_bernoulli_model()
    dim = int(rng.integers(1, n))
    if kind in ("expfam", "fd"):
        stats = rng.normal(size=(dim, n))
        base = Distribution(SampleSpace(n), rng.dirichlet(np.ones(n))) if rng.random() < 0.5 else None
        live, frozen = exponential_family_model(stats, base), frozen_exponential_family_model(stats, base)
        if kind == "fd":
            return replace(live, jacobian=None, name="fd"), replace(frozen, jacobian=None, name="fd")
        return live, frozen
    anchor = rng.dirichlet(np.ones(n)) * 0.5 + 0.5 / n
    anchor[-1] = 1.0 - anchor[:-1].sum()
    directions = rng.normal(size=(dim, n))
    directions[:, -1] = -directions[:, :-1].sum(axis=1)
    directions *= anchor.min() / (2.0 * dim * np.abs(directions).max())
    if kind == "plugin":
        plugin = frozen_affine_model(anchor, directions)
        return plugin, plugin
    return affine_model(anchor, directions), frozen_affine_model(anchor, directions)


def parameter(kind: str, model: ParametricModel, place: str, rng: np.random.Generator) -> np.ndarray:
    """A parameter of ``model`` inside it, or placed outside it as ``place`` says."""
    dim, n = model.dim, model.space.size
    if kind in ("categorical", "bernoulli"):
        xi = rng.dirichlet(np.ones(n))[:dim]
    elif kind in ("expfam", "fd"):
        xi = rng.normal(size=dim)
    else:
        xi = rng.uniform(-1.0, 1.0, size=dim)
    at = int(rng.integers(dim))
    if place in ("nan", "inf", "-inf"):
        xi[at] = float(place)
    elif place == "floor":
        if kind in ("categorical", "bernoulli"):
            # a coordinate at or below the floor, or the last weight 1 - sum(xi) there
            xi[at] = [POSITIVITY_FLOOR, POSITIVITY_FLOOR / 2, -0.25][int(rng.integers(3))]
            if rng.random() < 0.5:
                xi = xi / xi.sum() * (1.0 - POSITIVITY_FLOOR * rng.uniform(0.0, 1.0))
        else:
            # far enough out that a weight underflows (expfam) or turns negative (affine)
            xi = xi / np.abs(xi).max() * 1e4
    elif place == "length":
        xi = np.append(xi, 0.1) if rng.random() < 0.5 or dim == 1 else xi[:-1]
    return xi


@st.composite
def stacks(draw) -> list[tuple[str, ParametricModel, ParametricModel, np.ndarray]]:
    """1-6 trials that mix kinds, sizes and places, some of them sharing a model."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trials = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(KINDS))
        if trials and draw(st.booleans()):
            kind, live, frozen, _ = trials[draw(st.integers(0, len(trials) - 1))]
        else:
            live, frozen = pair_of_models(kind, draw(st.integers(2, 8)), rng)
        trials.append((kind, live, frozen, parameter(kind, live, draw(st.sampled_from(PLACES)), rng)))
    return trials


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def outcome(fn, *args):
    """The value of ``fn``; a package error's type and message; any other error's type."""
    try:
        return fn(*args)
    except FisherGeoError as exc:
        return type(exc), str(exc)
    except (ValueError, TypeError) as exc:
        return type(exc)


def jacobian_bits(model, xi) -> list[str]:
    return hexes(models.jacobian_at(model, xi))


def estimator_bits(estimators) -> list[list[str]]:
    return [[v.hex() for e in tuple_ for v in e.values.tolist()] for tuple_ in estimators]


def report_bits(reports) -> list[list[str]]:
    return [
        [*hexes(r.xi), *hexes(r.covariance), *hexes(r.inverse_information),
         float(r.min_eigenvalue).hex(), float(r.psd_tolerance).hex(), r.verdict, str(r.equality)]
        for r in reports
    ]


def first_alone(kernel, *columns):
    """The outcome of the first trial that fails alone, or None."""
    for t in range(len(columns[0])):
        alone = outcome(kernel, *(column[t : t + 1] for column in columns))
        if isinstance(alone, (tuple, type)):
            return alone
    return None


# ---------------------------------------------------------------------------
# The rows forms against the frozen closures
# ---------------------------------------------------------------------------


def test_the_built_in_models_have_rows_forms_and_plugins_do_not():
    """Categorical models of one size share one key however many are built."""
    assert rows_key(categorical_model(4)) == rows_key(categorical_model(4)) == (3, 4, models._categorical_rows)
    assert rows_key(bernoulli_model()) == rows_key(categorical_model(2))
    stats = np.array([[1.0, 0.0, -1.0]])
    assert rows_key(exponential_family_model(stats))[2] is not None
    assert rows_key(affine_model([0.5, 0.5], [[0.1, -0.1]]))[2] is not None
    for plugin in (frozen_categorical_model(4), replace(categorical_model(4), jacobian=None),
                   replace(categorical_model(4), point_map=frozen_categorical_model(4).point_map)):
        assert rows_key(plugin) == (3, 4, None)


@pytest.mark.parametrize("kind", ["categorical", "bernoulli", "expfam", "affine"])
def test_a_rows_form_returns_c_ordered_stacks(kind):
    """A stack built by ``np.broadcast_to`` and copied by ``np.array`` keeps
    the broadcast layout, and products over it can move the last bit of the
    estimators (seen at n = 8): the rows forms return C-ordered stacks."""
    rng = np.random.default_rng(8)
    model, _ = pair_of_models(kind, 8, rng)
    w, jac = model._rows(np.array([parameter(kind, model, "inside", rng) for _ in range(4)]))
    assert w.shape == (4, model.space.size) and jac.shape == (4, model.dim, model.space.size)
    assert w.flags.c_contiguous and jac.flags.c_contiguous


@settings(max_examples=300, deadline=None)
@given(trials=stacks())
def test_points_and_jacobians_match_the_frozen_closures(trials):
    """Each point and Jacobian, alone and through its closures on a batch of
    one: the frozen closure's bits or error. The Jacobian closure is not
    called at the wrong length, where the frozen categorical one ignored xi."""
    for kind, live, frozen, xi in trials:
        for evaluate in (lambda m: hexes(m.point(xi).weights), lambda m: hexes(models.jacobian_at(m, xi)),
                         lambda m: hexes(m.point_map(np.array(xi)).weights)):
            assert outcome(evaluate, live) == outcome(evaluate, frozen)
        if xi.size == live.dim and live.jacobian is not None:
            assert outcome(lambda m: hexes(m.jacobian(np.array(xi))), live) == outcome(
                lambda m: hexes(m.jacobian(np.array(xi))), frozen
            )


@settings(max_examples=300, deadline=None)
@given(trials=stacks(), seed=st.integers(0, 2**32 - 1))
def test_stacked_kernels_match_the_frozen_closures(trials, seed):
    """``unbiased_estimators_kernel`` and ``crb_kernel`` on a stack: the
    frozen stack's bits, or the error its first failing trial raises alone;
    and ``jacobian_at`` at each trial: the frozen closure's bits or error."""
    live, frozen, xis = ([trial[k] for trial in trials] for k in (1, 2, 3))
    for model, twin, xi in zip(live, frozen, xis):
        assert outcome(jacobian_bits, model, xi) == outcome(jacobian_bits, twin, xi)
    rng = np.random.default_rng(seed)
    noise = [estimator_noise(model, rng) for model in live]
    runs = [(unbiased_estimators_kernel, estimator_bits, (xis, noise))]
    found = outcome(unbiased_estimators_kernel, frozen, xis, noise)
    if isinstance(found, list):
        estimators = found
    else:  # an estimator tuple of the right size on each model's space, biased
        estimators = [[RandomVariable(m.space, rng.normal(size=m.space.size)) for _ in range(m.dim)] for m in live]
    runs.append((crb_kernel, report_bits, (xis, estimators)))
    for kernel, bits, columns in runs:
        expected = outcome(lambda *args: bits(kernel(*args)), frozen, *columns)
        assert outcome(lambda *args: bits(kernel(*args)), live, *columns) == expected
        if not isinstance(expected, list):
            assert expected == first_alone(lambda *args: bits(kernel(*args)), live, *columns)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("place", ["nan", "inf", "-inf", "floor", "length"])
def test_a_parameter_outside_the_categorical_model_is_named(n, place):
    """The stack's wrapping of a point outside the model, and its length
    check, name the failing trial's xi as the frozen closure's point did."""
    rng = np.random.default_rng(n)
    live, frozen = categorical_model(n), frozen_categorical_model(n)
    good = rng.dirichlet(np.ones(n))[: n - 1]
    bad = parameter("categorical", live, place, rng)
    expected = outcome(lambda: frozen.point(bad))
    error = InvalidParameter if place != "length" else SizeMismatch
    assert expected[0] is error and (place == "length" or f"xi={bad.tolist()} outside the model" in expected[1])
    noise = [estimator_noise(live, rng) for _ in range(3)]
    assert outcome(unbiased_estimators_kernel, [live] * 3, [good, bad, good], noise) == expected


def test_a_weight_at_the_floor_is_outside_and_above_it_inside():
    live, frozen = categorical_model(3), frozen_categorical_model(3)
    at, above = np.array([POSITIVITY_FLOOR, 0.5]), np.array([2 * POSITIVITY_FLOOR, 0.5])
    for xi in (at, above):
        assert outcome(lambda m: hexes(m.point(xi).weights), live) == outcome(
            lambda m: hexes(m.point(xi).weights), frozen
        )
    assert outcome(lambda: live.point(at))[0] is InvalidParameter
    assert isinstance(outcome(lambda: live.point(above)), Distribution)
    with pytest.raises(NonPositiveWeight):
        live.point_map(at)


# ---------------------------------------------------------------------------
# One rows-form call per shape and kernel
# ---------------------------------------------------------------------------


@pytest.fixture()
def rows_calls(monkeypatch) -> list[tuple[int, ...]]:
    """The stack shape of each call of the categorical rows form, for models built from here on."""
    calls = []
    rows = models._categorical_rows

    def counted(xi):
        calls.append(xi.shape)
        return rows(xi)

    monkeypatch.setattr(models, "_categorical_rows", counted)
    return calls


def test_a_crb_run_calls_the_categorical_rows_form_once_per_shape_and_kernel(rows_calls):
    """A 20-trial crb draw at n_max 4 calls the rows form once per model size
    (each call a stack of that size's trials), and the check once more per size;
    the per-point models made 20 point and 20 Jacobian calls per kernel."""
    cases = _draw_crb(np.random.default_rng(7), 20, 4)
    sizes = sorted({case["model"].space.size for case in cases})
    per_size = [sum(case["model"].space.size == n for case in cases) for n in sizes]
    assert len(sizes) == 3 and sum(per_size) == 20
    assert sorted(rows_calls) == sorted((count, n - 1) for n, count in zip(sizes, per_size))
    rows_calls.clear()
    reports = crb_kernel(*([case[key] for case in cases] for key in ("model", "xi", "estimators")))
    assert all(report.passed for report in reports)
    assert sorted(rows_calls) == sorted((count, n - 1) for n, count in zip(sizes, per_size))


def test_the_stencil_checks_call_the_rows_form_once_per_stack(rows_calls):
    """``duality_check``: one call for xi +- step Z and xi together;
    ``covariant_derivative``: one for xi and one for its two stencil points."""
    model = categorical_model(4)
    x, z = coordinate_field(model, 0), coordinate_field(model, 2)
    y = VectorFieldOnModel(model, lambda xi: 0.4 + 0.3 * xi**2)
    duality_check(model, [0.2, 0.3, 0.1], x, y, z)
    assert rows_calls == [(3, 3)]
    rows_calls.clear()
    covariant_derivative(ConnectionTag(0.5), model, [0.2, 0.3, 0.1], x, y)
    assert rows_calls == [(1, 3), (2, 3)]


def test_each_single_point_function_calls_the_rows_form_once(rows_calls):
    """``fisher_info``, ``restrict`` and ``lifts`` read the point and the
    Jacobian from one call; each made two, a point and a Jacobian call."""
    model, xi = categorical_model(4), [0.2, 0.3, 0.1]
    alpha = delta(model.point(xi), RandomVariable(model.space, [1.0, 2.0, 4.0, 8.0]))
    for run in (lambda: fisher_info(model, xi), lambda: restrict(model, xi, alpha),
                lambda: lifts(model, xi, [[1.0, 0.0, 0.0], [0.0, 2.0, 1.0]])):
        rows_calls.clear()
        run()
        assert rows_calls == [(1, 3)]


def test_global_mode_checks_its_grid_with_one_rows_form_call(rows_calls, monkeypatch):
    """Global mode on a 3-axis box: one call for the local check and one for
    the 125 grid points, and no ``ParametricModel.point`` call; the grid
    made one of each per point (126 rows-form calls)."""
    points, point = [], ParametricModel.point
    monkeypatch.setattr(ParametricModel, "point", lambda self, xi: points.append(xi) or point(self, xi))
    model = categorical_model(4)
    indicators = [RandomVariable(model.space, row) for row in np.eye(4)[:3]]
    report = crb_check(model, [0.2, 0.3, 0.1], indicators, mode="global", box=[(0.1, 0.3)] * 3)
    assert report.mode == "global" and report.equality
    assert rows_calls == [(1, 3), (125, 3)] and points == []
