"""The stencil kernel of ``connections`` against frozen copies of the code it replaced.

``covariant_derivative``, ``duality_check`` and ``weak_invariance_check``
were written one stencil point at a time: each value of a field came from
its own ``TangentVector``, each transport built its ``RandomVariable``s and
``TangentVector``, and each grid point of a weak-invariance check ran two
covariant derivatives, two pushforwards per Jacobian row and a fresh
``jacobian_at``. The functions below are verbatim copies of those bodies,
together with ``verify.weak_invariance_residual``; they call the frozen
scalars of ``test_frozen_scalars`` and a frozen ``jacobian_at``, so the
kernel is never compared with itself. Every output must be the same float,
compared through ``float.hex``, or the same error, type and message.

``weak_invariance_kernel`` and ``weak_invariance_residual_kernel`` check
many trials at once, stacked by model shape. The first takes each trial's
pair as arrays, the 0-based map of its surjection and its fiber matrix,
and the second the map and the weights of the big point q; the frozen
copies keep the pair, surjection and point objects, built from those arrays
through the frozen constructor checks of ``frozen_pairs``. Each trial of a mixed
batch (categorical, affine and exponential-family models, points pushed
toward the boundary, mismatched tags on the big simplex) must give its
frozen report, and a batch with a failing trial, a bad pair's arrays
included, must raise what the first failing trial raises alone.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_pairs
from fishergeo import connections, verify
from fishergeo.batteries import _draw_weak_invariance, _size_pairs
from fishergeo.connections import (
    DEFAULT_STEP,
    E_CONNECTION,
    M_CONNECTION,
    ConnectionTag,
    VectorFieldOnModel,
    WeakInvarianceReport,
    coordinate_field,
    weak_invariance_kernel,
)
from fishergeo.errors import (
    BadSize,
    FisherGeoError,
    InvalidChannel,
    InvalidParameter,
    NonPositiveWeight,
    NotCentered,
    NotNormalized,
    NotSurjective,
    SizeMismatch,
)
from fishergeo.geometry import TangentVector
from fishergeo.markov import Surjection, canonical_embedding, random_surjection
from fishergeo.models import (
    ParametricModel,
    checked_jacobians,
    _raw_jacobian,
    affine_model,
    categorical_model,
)
from fishergeo.simplex import Distribution, SampleSpace
from test_frozen_scalars import apply, e_transport, fisher_metric, pushforward
from test_model_point_kernel import draw_model, fields, hexes, interior_point

# ---------------------------------------------------------------------------
# Frozen copies
# ---------------------------------------------------------------------------


def jacobian_at(model: ParametricModel, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != model.dim:
        raise SizeMismatch(f"expected {model.dim} parameters, got {xi.shape[0]}")
    return checked_jacobians(_raw_jacobian(model, xi)[None])[0]


def m_transport(x: TangentVector, q: Distribution) -> TangentVector:
    if q.space != x.base.space:
        raise SizeMismatch("target point lives on a different sample space")
    return TangentVector(q, x.m_rep)


def _require_inputs(model: ParametricModel, step: float, fields) -> None:
    if not 0.0 < step < np.inf:
        raise InvalidParameter(f"step must be finite and > 0, got {step!r}")
    for field in fields:
        if field.model is not model:
            raise InvalidParameter("vector field lives on a different model")


def _values_at(model: ParametricModel, xi, fields) -> list[TangentVector]:
    p = model.point(xi)
    coefficients = [field.coefficients_at(xi) for field in fields]
    jac = jacobian_at(model, xi)
    return [TangentVector(p, c @ jac) for c in coefficients]


def _transported_difference(tag, p, up, down, h):
    weight_e, weight_m = 0.5 * (1.0 + tag.alpha), 0.5 * (1.0 - tag.alpha)
    parts = np.zeros(p.space.size)
    for transport, weight in ((e_transport, weight_e), (m_transport, weight_m)):
        if weight != 0.0:
            diff = transport(up, p).m_rep - transport(down, p).m_rep
            parts = parts + weight * (diff / (2.0 * h))
    return parts


def covariant_derivative(tag, model, xi, x, y, step=DEFAULT_STEP) -> TangentVector:
    _require_inputs(model, step, [y])
    xi = np.asarray(xi, dtype=float).reshape(-1)
    direction = x.coefficients_at(xi)
    p = model.point(xi)
    (up,) = _values_at(model, xi + step * direction, [y])
    (down,) = _values_at(model, xi - step * direction, [y])
    return TangentVector(p, _transported_difference(tag, p, up, down, step))


def duality_check(model, xi, x, y, z, step=DEFAULT_STEP) -> float:
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


def pushforward_model(pair, model: ParametricModel) -> ParametricModel:
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


def weak_invariance_check(pair, tag, x, y, grid, step=DEFAULT_STEP, tag_big=None):
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


def weak_invariance_residual(surjection, q, alpha, grid, step=DEFAULT_STEP, mismatched=False):
    m = surjection.codomain.size
    model = categorical_model(m)
    y = VectorFieldOnModel(model, lambda xi: np.full(m - 1, 0.4) + 0.3 * np.asarray(xi) ** 2)
    tag_big = ConnectionTag(-alpha if alpha != 0.0 else 1.0) if mismatched else None
    report = weak_invariance_check(
        canonical_embedding(surjection, q), ConnectionTag(alpha),
        coordinate_field(model, 0), y, grid, step=step, tag_big=tag_big,
    )
    return max(report.residual_max, report.metric_residual_max)


# ---------------------------------------------------------------------------
# Inputs and outcomes
# ---------------------------------------------------------------------------


def outcome(run):
    """The value, or the error raised, as (type, message)."""
    try:
        return run()
    except FisherGeoError as exc:
        return type(exc), str(exc)


def failed(value) -> bool:
    return isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], type)


def report_hexes(report: WeakInvarianceReport) -> list:
    return [
        hexes([report.residual_max, report.metric_residual_max, report.step]),
        [hexes(xi) for xi in report.grid],
        hexes([report.alpha, report.alpha_big]),
    ]


alphas = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-2.0, 2.0))


def weak_trial(kind, n_big, pick, seed, exponent, count, scales, step, alpha, alpha_big) -> tuple:
    """A pair through a boundary-pushed point, a model on its small space with
    two random fields, and a grid of scaled copies of a boundary-pushed xi."""
    n_small = 2 + pick % (n_big - 2)
    pair = canonical_embedding(
        random_surjection(n_big, n_small, seed=seed),
        Distribution(SampleSpace(n_big), interior_point(n_big, seed, exponent / 2.0, 1)),
    )
    model, xi = draw_model(kind, n_small, seed, exponent, count)
    x, y = fields(model, seed)
    tag_big = None if alpha_big is None else ConnectionTag(alpha_big)
    return pair, ConnectionTag(alpha), x, y, [s * xi for s in scales], step, tag_big


weak_trials = st.builds(
    weak_trial,
    kind=st.sampled_from(["categorical", "affine", "expfam"]),
    n_big=st.integers(3, 7),
    pick=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(1.0, 11.0),
    count=st.integers(0, 2),
    scales=st.lists(st.sampled_from([1.0, 0.5, 0.9, 1.1]), min_size=1, max_size=3),
    step=st.sampled_from([DEFAULT_STEP, 3e-5, 1e-3]),
    alpha=alphas,
    alpha_big=st.one_of(st.none(), alphas),
)

# ---------------------------------------------------------------------------
# The single checks: the kernel on a batch of one
# ---------------------------------------------------------------------------

points = st.builds(
    draw_model,
    kind=st.sampled_from(["bernoulli", "categorical", "affine", "expfam", "fd"]),
    n=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(1.0, 11.0),
    count=st.integers(0, 2),
)


@settings(max_examples=200, deadline=None)
@given(drawn=points, seed=st.integers(0, 2**32 - 1), alpha=alphas, step=st.floats(3e-5, 1e-3))
def test_covariant_derivative_matches_its_copy(drawn, seed, alpha, step):
    model, xi = drawn
    x, y = fields(model, seed)
    tag = ConnectionTag(alpha)
    expected = outcome(lambda: covariant_derivative(tag, model, xi, x, y, step))
    value = outcome(lambda: connections.covariant_derivative(tag, model, xi, x, y, step))
    if failed(expected):
        assert value == expected
        return
    assert not failed(value), value
    assert hexes(value.base.weights) == hexes(expected.base.weights)
    assert hexes(value.m_rep) == hexes(expected.m_rep)


@settings(max_examples=200, deadline=None)
@given(
    drawn=points,
    seed=st.integers(0, 2**32 - 1),
    picks=st.tuples(*[st.integers(0, 2**16)] * 3),
    step=st.floats(3e-5, 1e-3),
)
def test_duality_check_matches_its_copy(drawn, seed, picks, step):
    """Coordinate fields, the quadratic field and two random fields, in any slot."""
    model, xi = drawn
    pool = [coordinate_field(model, i) for i in range(model.dim)]
    pool.append(VectorFieldOnModel(model, lambda t: 0.4 + 0.3 * t**2))
    pool.extend(fields(model, seed))
    x, y, z = (pool[k % len(pool)] for k in picks)
    expected = outcome(lambda: duality_check(model, xi, x, y, z, step))
    value = outcome(lambda: connections.duality_check(model, xi, x, y, z, step))
    if failed(expected):
        assert value == expected
    else:
        assert hexes([value]) == hexes([expected])


# ---------------------------------------------------------------------------
# The kernels over a batch of trials
# ---------------------------------------------------------------------------


def with_arrays(trial: tuple) -> tuple:
    """A trial with its pair as its map and fiber matrix, both copied."""
    pair, *rest = trial
    return (np.array(pair.surjection.map0), np.array(pair.fiber_distributions), *rest)


def kernel_columns(trials: list[tuple]) -> list[list]:
    """The kernel's arguments for trials whose first entry is a pair."""
    return [list(column) for column in zip(*map(with_arrays, trials))]


def assert_kernel_matches(trials: list[tuple]) -> None:
    """The kernel on ``trials`` against each trial's frozen check; a failing
    batch raises what its first failing trial raises alone, in the kernel
    and in the copy."""
    expected = [outcome(lambda t=t: weak_invariance_check(*t)) for t in trials]
    reports = outcome(lambda: weak_invariance_kernel(*kernel_columns(trials)))
    bad = [t for t, e in enumerate(expected) if failed(e)]
    if bad:
        assert reports == expected[bad[0]]
        assert reports == outcome(lambda: connections.weak_invariance_check(*trials[bad[0]]))
        return
    assert not failed(reports), reports
    assert [report_hexes(r) for r in reports] == [report_hexes(e) for e in expected]


@settings(max_examples=120, deadline=None)
@given(batch=st.lists(weak_trials, min_size=1, max_size=4))
def test_weak_invariance_kernel_matches_its_copy(batch):
    assert_kernel_matches(batch)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_max=st.integers(3, 5),
    alphas=st.lists(alphas, min_size=1, max_size=3),
    grid_count=st.integers(1, 3),
    mismatched=st.booleans(),
)
def test_weak_invariance_residual_kernel_matches_its_copy_on_battery_draws(
    seed, n_max, alphas, grid_count, mismatched
):
    """The battery's draws, checked in one kernel call, against the frozen
    residual of each trial, with and without the mismatched control."""
    cases = _draw_weak_invariance(np.random.default_rng(seed), n_max=n_max, alphas=alphas,
                                  grid_count=grid_count, step=DEFAULT_STEP, mismatched=mismatched)
    assert len(cases) == len(_size_pairs(n_max)) * len(alphas)
    residuals = verify.weak_invariance_residual_kernel(**residual_columns(cases))
    assert hexes(residuals) == hexes([weak_invariance_residual(**residual_objects(case)) for case in cases])
    assert hexes(verify.weak_invariance_residual_kernel(**residual_columns(cases[-1:]))) == hexes(residuals[-1:])


def residual_columns(cases: list[dict]) -> dict[str, list]:
    return {key: [case[key] for case in cases] for key in cases[0]}


def residual_objects(case: dict) -> dict:
    """The frozen residual's case of an array case: the surjection onto
    max + 1 points, then q on its domain, each built through the frozen
    constructor checks."""
    map0 = np.asarray(case["surjection"]).tolist()
    f = frozen_pairs.surjection(len(map0), max(map0) + 1, map0)
    return {**case, "surjection": f, "q": Distribution(f.domain, case["q"])}


def frozen_residuals(cases: list[dict]):
    """The error of the first trial that fails alone, its objects built and
    then checked by the frozen residual; else every frozen residual."""
    residuals = []
    for case in cases:
        residuals.append(outcome(lambda c=case: weak_invariance_residual(**residual_objects(c))))
        if failed(residuals[-1]):
            return residuals[-1]
    return hexes(residuals)


def raw_residuals(cases: list[dict]):
    found = outcome(lambda: verify.weak_invariance_residual_kernel(**residual_columns(cases)))
    return found if failed(found) else hexes(found)


RAW_DEFECTS = ("map_out_of_range", "map_not_onto", "q_length", "q_weight")


def spoil_raw(case: dict, defect: str, rng: np.random.Generator) -> dict:
    """A battery case with one defect in its raw map or its point q, both copied."""
    map0, q = np.array(case["surjection"]), np.array(case["q"])
    m, y = int(map0.max()) + 1, int(rng.integers(len(map0)))
    if defect == "map_out_of_range":
        map0[y] = rng.choice([-1, -3, m, m + 3])
    elif defect == "map_not_onto":
        # onto its largest value: max + 1 = m >= 2 points, of which it misses all but one
        map0[:] = m - 1
    elif defect == "q_length":
        q = q[:-1] if rng.random() < 0.5 else np.append(q, 0.5)
    else:
        i = int(rng.integers(len(q)))
        q[i] = rng.choice([-rng.random(), 0.0, np.nan]) if rng.random() < 0.5 else q[i] * (1.0 + 1e-9)
    return {**case, "surjection": map0, "q": q}


def battery_cases(seed: int, n_max: int, alphas: list[float], mismatched: bool = False) -> list[dict]:
    return _draw_weak_invariance(np.random.default_rng(seed), n_max=n_max, alphas=alphas, grid_count=1,
                                 step=DEFAULT_STEP, mismatched=mismatched)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_max=st.integers(3, 5),
    defects=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(RAW_DEFECTS)), min_size=1, max_size=3),
    mismatched=st.booleans(),
)
def test_bad_raw_maps_and_points_raise_what_the_first_failing_trial_raises(seed, n_max, defects, mismatched):
    """Up to three defects in the raw maps and points of a batch of battery
    cases: a map value out of range (below 0, or past the codomain, which
    leaves the map not onto or its codomain larger than its domain), a map
    not onto, a q of the wrong length, a q with a bad weight. Two defects
    may cancel, and a batch without one must give every frozen residual."""
    cases = battery_cases(seed, n_max, [0.0], mismatched)
    rng = np.random.default_rng(seed)
    for t, defect in defects:
        cases[t % len(cases)] = spoil_raw(cases[t % len(cases)], defect, rng)
    assert raw_residuals(cases) == frozen_residuals(cases)


@pytest.mark.parametrize("defect, error", [
    ("map_out_of_range", BadSize), ("map_not_onto", NotSurjective), ("q_length", SizeMismatch),
    ("q_weight", NonPositiveWeight),
])
def test_each_raw_defect_is_rejected_in_trial_order(defect, error):
    """Each defect alone makes its trial raise its type, before the good
    trials after it and after those before it."""
    good = battery_cases(2, 4, [-1.0])
    bad = spoil_raw(good[1], defect, np.random.default_rng(1))
    if defect == "map_out_of_range":
        bad["surjection"][0] = -1
    elif defect == "map_not_onto":
        # onto its largest value, so that the map keeps its codomain of m >= 2 points
        bad["surjection"][:] = np.max(good[1]["surjection"])
    elif defect == "q_weight":
        bad["q"][0] = -0.5
    assert outcome(lambda: verify.weak_invariance_residual_kernel(**residual_columns([bad])))[0] is error
    for cases in ([bad], [good[0], bad, good[2]], [bad, good[0]], [*good, bad]):
        assert raw_residuals(cases) == frozen_residuals(cases)


def nan_at_center(model: ParametricModel, center: np.ndarray) -> ParametricModel:
    """``model`` with a Jacobian that is NaN at ``center`` only: a check that
    fails last, at the metric contraction after both covariant derivatives."""

    def jacobian(xi):
        jac = np.array(model.jacobian(xi), dtype=float)
        return np.full_like(jac, np.nan) if np.array_equal(xi, center) else jac

    return ParametricModel(model.space, model.dim, model.point_map, jacobian, "nan_at_center")


def test_first_failing_trial_and_grid_point_decide_the_error():
    """Trial 1 fails late, at its first grid point's metric contraction; its
    second grid point and trial 2 fail early, outside the model and at the
    embedding's input space. A batch evaluated stage by stage meets those
    first; the kernel raises trial 1's first grid point's error, as the
    frozen check and the kernel on trial 1 alone do."""
    good = weak_trial("categorical", 5, 1, 11, 1.0, 0, [1.0, 0.5], DEFAULT_STEP, 0.5, None)
    pair, tag, _, _, _, step, tag_big = good
    center = np.array([0.3, 0.2])
    model = nan_at_center(categorical_model(3), center)
    x, y = coordinate_field(model, 0), VectorFieldOnModel(model, lambda xi: 0.4 + 0.3 * xi**2)
    late = (pair, tag, x, y, [center, np.array([0.99, 0.2])], step, tag_big)
    other = categorical_model(4)
    on_other = (coordinate_field(other, 0), coordinate_field(other, 1))
    early = (pair, tag, *on_other, [[0.2] * 3], step, None)
    kinds = [outcome(lambda t=t: weak_invariance_check(*t)) for t in (late, early)]
    assert kinds[0][0] is InvalidParameter and "finite" in kinds[0][1]
    assert kinds[1][0] is SizeMismatch
    second_point = outcome(lambda: weak_invariance_check(*late[:4], late[4][1:], step))
    assert second_point[0] is InvalidParameter and "outside the model" in second_point[1]
    assert not failed(outcome(lambda: weak_invariance_check(*good)))
    assert_kernel_matches([good, late, early])
    assert_kernel_matches([good, early, late])
    assert_kernel_matches([late])


def test_mismatched_tags_are_checked_on_the_big_simplex_only():
    """A batch mixing matched and mismatched trials of one shape: each trial
    reads its own tag on each side."""
    trials = []
    for alpha, alpha_big in ((0.0, None), (0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (0.3, None)):
        trials.append(weak_trial("expfam", 5, 2, 4, 2.0, 1, [1.0], DEFAULT_STEP, alpha, alpha_big))
    assert_kernel_matches(trials)
    reports = weak_invariance_kernel(*kernel_columns(trials))
    assert [(r.alpha, r.alpha_big) for r in reports] == [
        (0.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (0.3, 0.3)
    ]
    assert reports[1].residual_max > 1e-3 > reports[0].residual_max


def test_kernels_need_one_entry_per_trial():
    pair, tag, x, y, grid, step, tag_big = weak_trial(
        "affine", 4, 0, 5, 2.0, 0, [1.0], DEFAULT_STEP, 0.0, None
    )
    assert weak_invariance_kernel([], [], [], [], [], [], [], []) == []
    assert verify.weak_invariance_residual_kernel([], [], [], [], [], []) == []
    map0, fibers = pair.surjection.map0, pair.fiber_distributions
    with pytest.raises(SizeMismatch, match="one entry per trial"):
        weak_invariance_kernel([map0] * 2, [fibers] * 2, [tag], [x], [y], [grid], [step], [tag_big])
    with pytest.raises(SizeMismatch, match="one entry per trial"):
        weak_invariance_kernel([map0], [fibers] * 2, [tag], [x], [y], [grid], [step], [tag_big])


# ---------------------------------------------------------------------------
# A pair's arrays: checked before anything else of its trial, as its objects
# were built before the check ran
# ---------------------------------------------------------------------------


PAIR_DEFECTS = (
    "map_out_of_range", "map_not_onto", "mass_off_fiber", "fiber_sum", "fiber_columns", "fiber_rows",
)


def spoil_pair(trial: tuple, defect: str, rng: np.random.Generator) -> tuple:
    """A trial given as arrays, with one defect in its map or fiber matrix.
    Earlier defects may have dropped every row of the fiber matrix; a defect
    that spoils a row then leaves the matrix as it is."""
    map0, fibers, *rest = trial
    map0, fibers = map0.copy(), fibers.copy()
    m, n = fibers.shape
    if m == 0 and defect in ("mass_off_fiber", "fiber_sum"):
        return trial
    y = int(rng.integers(n))
    if defect == "map_out_of_range":
        map0[y] = rng.choice([-1, m, m + 3])
    elif defect == "map_not_onto":
        map0[:] = map0[y]
    elif defect == "mass_off_fiber":
        x = int(rng.integers(m))
        fibers[x, y] = 0.0 if map0[y] == x else 0.25
    elif defect == "fiber_sum":
        fibers[int(rng.integers(m))] *= 1.0 + 10.0 ** rng.uniform(-11, -1)
    elif defect == "fiber_columns":
        fibers = fibers[:, :-1]
    else:
        fibers = fibers[:-1]
    return (map0, fibers, *rest)


def frozen_array_check(map0, fibers, *rest) -> WeakInvarianceReport:
    """The frozen check of a trial given as arrays: its pair built through
    the frozen constructor checks, onto as many points as r has rows."""
    f = frozen_pairs.surjection(len(map0), len(fibers), np.asarray(map0).tolist())
    return weak_invariance_check(frozen_pairs.embedding_pair(f, fibers), *rest)


def assert_array_kernel_matches(trials: list[tuple]) -> None:
    """The kernel on trials given as arrays against the frozen check of
    each: the error of the first trial that fails alone, else every report."""
    expected = []
    for trial in trials:
        expected.append(outcome(lambda t=trial: frozen_array_check(*t)))
        if failed(expected[-1]):
            break
    reports = outcome(lambda: weak_invariance_kernel(*[list(column) for column in zip(*trials)]))
    if failed(expected[-1]):
        assert reports == expected[-1]
        return
    assert not failed(reports), reports
    assert [report_hexes(r) for r in reports] == [report_hexes(e) for e in expected]


@settings(max_examples=60, deadline=None)
@given(
    batch=st.lists(weak_trials, min_size=1, max_size=4),
    defects=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(PAIR_DEFECTS)), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bad_pair_arrays_raise_what_the_first_failing_trial_raises(batch, defects, seed):
    """Up to three defects in the maps and fiber matrices of a batch; a
    trial may also fail later, at its stencils."""
    rng = np.random.default_rng(seed)
    trials = [with_arrays(trial) for trial in batch]
    for t, defect in defects:
        trials[t % len(trials)] = spoil_pair(trials[t % len(trials)], defect, rng)
    assert_array_kernel_matches(trials)


@pytest.mark.parametrize("defect, error", [
    ("map_out_of_range", BadSize), ("map_not_onto", NotSurjective), ("mass_off_fiber", InvalidChannel),
    ("fiber_sum", NotNormalized), ("fiber_columns", SizeMismatch), ("fiber_rows", BadSize),
])
def test_each_pair_defect_is_rejected_in_trial_order(defect, error):
    """Each defect alone makes its trial raise; in a batch it comes after an
    earlier trial that fails late, at its first grid point's metric
    contraction, and before the good trials."""
    good = with_arrays(weak_trial("categorical", 5, 1, 11, 1.0, 0, [1.0, 0.5], DEFAULT_STEP, 0.5, None))
    bad = spoil_pair(good, defect, np.random.default_rng(0))
    assert outcome(lambda: frozen_array_check(*bad))[0] is error
    center = np.array([0.3, 0.2])
    model = nan_at_center(categorical_model(3), center)
    fields_ = coordinate_field(model, 0), VectorFieldOnModel(model, lambda xi: 0.4 + 0.3 * xi**2)
    late = (*good[:3], *fields_, [center], DEFAULT_STEP, None)
    assert outcome(lambda: frozen_array_check(*late))[0] is InvalidParameter
    for trials in ([good, bad, good], [bad], [late, bad], [bad, late], [good, late, bad]):
        assert_array_kernel_matches(trials)


def test_rank_deficient_model_raises_its_copys_error():
    direction = [0.01, -0.01, 0.0, 0.0]
    model = affine_model(np.full(4, 0.25), [direction, direction])
    x, y = coordinate_field(model, 0), coordinate_field(model, 1)
    pair = canonical_embedding(
        random_surjection(6, 4, seed=3), Distribution(SampleSpace(6), np.full(6, 1 / 6))
    )
    trial = (pair, ConnectionTag(0.0), x, y, [np.array([0.1, 0.1])], DEFAULT_STEP, None)
    expected = outcome(lambda: weak_invariance_check(*trial))
    assert expected[0].__name__ == "RankDeficient"
    assert_kernel_matches([trial])


def test_transport_checks_match_their_copies():
    """At xi = (1e-4 + 1e-11, 0.4) the step 1e-4 along d/dxi^1 takes the first
    weight down to about 1e-11, where the e-transported score fails its
    centering check after every evaluation of the stencil. The m-connection
    needs no e-transport and passes. In a batch, a trial that fails so late
    still decides the error over a later trial that fails at once."""
    model = categorical_model(3)
    x = coordinate_field(model, 0)
    y = VectorFieldOnModel(model, lambda xi: np.array([3.0, -2.0]))
    xi = np.array([1e-4 + 1e-11, 0.4])
    for alpha in (1.0, 0.0, -1.0):
        tag = ConnectionTag(alpha)
        expected = outcome(lambda: covariant_derivative(tag, model, xi, x, y))
        value = outcome(lambda: connections.covariant_derivative(tag, model, xi, x, y))
        if alpha == -1.0:
            assert hexes(value.m_rep) == hexes(expected.m_rep)
        else:
            assert expected[0] is NotCentered
            assert value == expected
    # the first point's fiber is itself, so the image model keeps its weight
    pair = canonical_embedding(
        Surjection.from_one_based([1, 2, 2, 3, 3]),
        Distribution(SampleSpace(5), interior_point(5, 2, 1.0, 0)),
    )
    trials = [
        (pair, ConnectionTag(alpha), x, y, [np.array([0.3, 0.3]), xi], DEFAULT_STEP, None)
        for alpha in (-1.0, 0.5)
    ]
    other = coordinate_field(categorical_model(3), 1)
    early = (pair, ConnectionTag(0.0), x, other, [xi], DEFAULT_STEP, None)
    assert not failed(outcome(lambda: weak_invariance_check(*trials[0])))
    assert outcome(lambda: weak_invariance_check(*trials[1]))[0] is NotCentered
    assert outcome(lambda: weak_invariance_check(*early))[0] is InvalidParameter
    assert_kernel_matches(trials + [early])


def with_jacobian(model: ParametricModel, jacobian) -> ParametricModel:
    """``model``'s point map with another analytic Jacobian."""
    return ParametricModel(model.space, model.dim, model.point_map, jacobian, "custom")


def test_each_stencil_point_is_checked_before_the_next_is_evaluated():
    """The single check meets xi + step Z, with its Jacobian's checks, before
    it evaluates xi - step Z. Here the Jacobian at xi + step Z is rank
    deficient and xi - step Z lies outside the model: the rank error comes
    first. Then the e-transport of xi + step Z is checked before that of
    xi - step Z: the first fails its centering and the second, whose score
    overflows, its finiteness; and with an infinite score alone the
    finiteness check comes before the centering."""
    base = categorical_model(3)
    full = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    model = with_jacobian(base, lambda xi: full[[0, 0]] if xi[0] > 1e-4 else full)
    x, y = coordinate_field(model, 0), coordinate_field(model, 1)
    cases = [(ConnectionTag(0.0), model, np.array([5e-5, 0.4]), x, y)]
    near, along = np.array([1e-4 + 1e-9, 0.4]), coordinate_field(base, 0)
    big = VectorFieldOnModel(base, lambda xi: np.array([1e300, 1e300]))
    cases.append((E_CONNECTION, base, near, along, big))
    late = VectorFieldOnModel(base, lambda xi: np.full(2, 1e300) if xi[0] < 1e-4 else np.ones(2))
    cases.append((E_CONNECTION, base, near, along, late))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [outcome(lambda c=c: covariant_derivative(*c)) for c in cases]
        kinds = [e[0].__name__ for e in expected]
        assert kinds == ["RankDeficient", "NotCentered", "InvalidParameter"]
        assert "finite" in expected[2][1]
        for case, error in zip(cases, expected):
            assert outcome(lambda: connections.covariant_derivative(*case)) == error


def test_a_nan_contraction_is_dropped_as_the_grid_loop_dropped_it():
    """At xi = (0.3, 0.4) a Jacobian of entries near 1e200 makes both metric
    contractions overflow, so their difference is NaN. The grid loop reduced
    with the builtin max, which drops a NaN that comes after a finite value:
    the NaN point reports 0.0 alone and adds nothing to another point, before
    or after it. The kernel keeps that reduction."""
    base = categorical_model(3)
    huge = 1e200 * np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    model = with_jacobian(base, lambda xi: huge if xi[1] > 0.3 else huge * 1e-200)
    x = coordinate_field(model, 0)
    # linear where the Jacobian is huge, so its values still sum to exactly 0
    y = VectorFieldOnModel(model, lambda xi: np.array([xi[0], 0.0]) if xi[1] > 0.3 else xi**3 + 0.1)
    # fibers split in exact halves keep the image values summing to 0
    pair = canonical_embedding(
        Surjection.from_one_based([1, 2, 2, 3, 3]), Distribution(SampleSpace(5), np.full(5, 0.2))
    )
    nan_point, point = np.array([0.3, 0.4]), np.array([0.2, 0.1])
    grids = ([nan_point], [point], [nan_point, point], [point, nan_point])
    trials = [(pair, M_CONNECTION, x, y, grid, DEFAULT_STEP, None) for grid in grids]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [weak_invariance_check(*trial) for trial in trials]
        assert expected[0].metric_residual_max == 0.0 < expected[1].metric_residual_max
        assert {e.metric_residual_max for e in expected[1:]} == {expected[1].metric_residual_max}
        assert_kernel_matches(trials)
