"""The array pair kernels against the object-level code they replaced.

The references below are the per-entry implementations: the double
``fisher_metric`` loop for the tangent Gram matrix, which
``fisher_metric_rows`` computes from m-representation rows, the body of
``check_invariance`` before it became ``invariance_kernel`` on a batch of
one, and the object-level checks and covariance identity of
``check_strong_invariance``. They call the frozen copies of
``test_frozen_scalars``, not the library's scalars, which share the kernels'
rows forms. The kernels do the same float operations in the same order, on
one trial or on a batch of mixed shapes, so every residual the references
compute and every Gram entry must be the same float, compared through
``float.hex``; every residual of a batch must be the one its trial gives
alone; and a trial that fails a check must raise what the reference raises.
The seven operator identities of the strong-invariance check are held to
the exact oracle of ``tests/exact.py`` instead (``test_exact_oracle``). The
kernels take a case's arrays (``frozen_pairs.arrays``), the references and
the single-case checks its objects (``frozen_pairs.objects``).
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishergeo.batteries as batteries
from fishergeo.batteries import _draw_invariance, _draw_strong_invariance, run_battery
from fishergeo.errors import FisherGeoError, InvalidParameter, SizeMismatch
from fishergeo.geometry import TangentVector, fisher_metric_rows
from fishergeo.markov import canonical_embedding, random_surjection
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace
from fishergeo.verify import (
    check_invariance,
    check_strong_invariance,
    invariance_kernel,
    strong_invariance_kernel,
)
from frozen_pairs import arrays, objects
from test_frozen_scalars import (
    apply,
    compose_variable,
    conditional_expectation,
    cov,
    delta,
    fisher_cometric,
    fisher_metric,
    pullback,
    pushforward,
    variance,
)


def spanning_vectors(p: Distribution) -> list[TangentVector]:
    """The tangent vectors e_i - e_n, i = 1..n-1, at p."""
    n = p.space.size
    return [TangentVector(p, np.eye(n)[i] - np.eye(n)[n - 1]) for i in range(n - 1)]


def reference_residuals(pair, q, a, b) -> dict[str, float]:
    """The checks of ``check_strong_invariance`` on objects, in its order, and
    its covariance identity."""
    phi = pair.embedding_channel
    psi = pair.coembedding_channel
    p = apply(psi, q)
    recovered = apply(phi, p)
    if not np.allclose(recovered.weights, q.weights, rtol=0, atol=1e-12):
        raise InvalidParameter(
            "pair is not the canonical embedding through q: the embedding "
            "of the marginal does not recover q"
        )
    # the images of the spanning rows, Phi X at q, Psi Y at p and Pi Y at q
    for x in spanning_vectors(p):
        TangentVector(q, phi.kernel @ x.m_rep)
    down = [TangentVector(p, psi.kernel @ y.m_rep) for y in spanning_vectors(q)]
    for y in down:
        TangentVector(q, phi.kernel @ y.m_rep)
    lhs = cov(p, a, conditional_expectation(phi, b))
    rhs = cov(q, compose_variable(pair.surjection, a), b)
    return {"covariance_identity": abs(lhs - rhs)}


def relative(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def reference_invariance(pair, q, x_m_rep, y_m_rep, a, b) -> dict[str, float]:
    """The residuals of ``check_invariance`` as it was before its kernel."""
    psi = pair.coembedding_channel
    phi = pair.embedding_channel
    p = apply(psi, q)
    x = TangentVector(p, np.asarray(x_m_rep, dtype=float))
    y = TangentVector(p, np.asarray(y_m_rep, dtype=float))
    metric_res = relative(
        fisher_metric(x, y),
        fisher_metric(pushforward(phi, p, x), pushforward(phi, p, y)),
    )
    alpha = delta(p, a)
    beta = delta(p, b)
    cometric_res = relative(
        fisher_cometric(alpha, beta),
        fisher_cometric(pullback(psi, q, alpha), pullback(psi, q, beta)),
    )
    a_lift = compose_variable(pair.surjection, a)
    b_lift = compose_variable(pair.surjection, b)
    return {
        "metric": metric_res,
        "cometric": cometric_res,
        "variance": relative(variance(p, a), variance(q, a_lift)),
        "covariance": relative(cov(p, a, b), cov(q, a_lift, b_lift)),
    }


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
    assert list(residuals) == [
        "adjoint", "projector_idempotent", "projector_self_adjoint", "projector_fixes_image",
        "section", "isometry", "coisometry", "covariance_identity",
    ]
    assert hexes(residuals["covariance_identity"]) == hexes(expected["covariance_identity"])
    # the operator identities stay at rounding level with weights near 1e-10,
    # on up to 24 outcomes (test_exact_oracle gives their budget for n <= 8)
    assert max(list(residuals.values())[:7]) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(
    p=points,
    seed=st.integers(0, 2**32 - 1),
    basis_count=st.integers(0, 4),
    random_count=st.integers(0, 4),
)
def test_tangent_gram_bitwise(p, seed, basis_count, random_count):
    """``fisher_metric_rows`` on the m-representation rows of spanning
    vectors e_i - e_n and random vectors of mixed scale."""
    rng = np.random.default_rng(seed)
    n = p.space.size
    vectors = spanning_vectors(p)[:basis_count]
    for _ in range(random_count):
        m = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 3, size=n)
        m[-1] = -m[:-1].sum()
        vectors.append(TangentVector(p, m))
    rows = np.array([x.m_rep for x in vectors]).reshape(len(vectors), n)
    gram = fisher_metric_rows(p, rows, rows)
    assert gram.shape == (len(vectors), len(vectors))
    assert hexes(gram) == hexes(reference_gram(vectors))


# ---------------------------------------------------------------------------
# Batches of mixed shapes
# ---------------------------------------------------------------------------


def pair_case(n_big: int, n_small: int, seed: int, exponent: float, count: int) -> dict:
    """The inputs of both pair checks at a boundary-pushed canonical pair."""
    q = boundary_point(n_big, seed, exponent, count)
    pair = canonical_embedding(random_surjection(n_big, n_small, seed=seed), q)
    rng = np.random.default_rng(seed + 1)
    small, big = SampleSpace(n_small), SampleSpace(n_big)
    x, y = rng.normal(size=(2, n_small))
    return {
        "pair": pair, "q": q,
        "a": RandomVariable(small, rng.normal(size=n_small)),
        "b": RandomVariable(big, rng.normal(size=n_big)),
        "b_small": RandomVariable(small, rng.normal(size=n_small)),
        "x_m_rep": x - x.mean(), "y_m_rep": y - y.mean(),
    }


def strong_case(case: dict) -> dict:
    return {key: case[key] for key in ("pair", "q", "a", "b")}


def invariance_case(case: dict) -> dict:
    return {**{key: case[key] for key in ("pair", "q", "x_m_rep", "y_m_rep", "a")}, "b": case["b_small"]}


def columns(cases: list[dict]) -> dict[str, list]:
    return {key: [case[key] for case in cases] for key in cases[0]}


def strong_columns(cases: list[dict]) -> dict[str, list]:
    """The kernel's arguments for the object cases of ``strong_case``."""
    return columns([arrays("strong_invariance", case) for case in cases])


def invariance_columns(cases: list[dict]) -> dict[str, list]:
    return columns([arrays("invariance", case) for case in cases])


shapes = st.integers(3, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1)))


@st.composite
def mixed_batches(draw) -> list[dict]:
    """1-8 trials whose shapes come from 1-3 (n, m) pairs, so that some
    shapes repeat and some sizes are shared between small and big points."""
    pool = draw(st.lists(shapes, min_size=1, max_size=3))
    trials = draw(st.lists(
        st.tuples(
            st.sampled_from(pool), st.integers(0, 2**32 - 1), st.floats(1.0, 10.0),
            st.integers(0, 3),
        ),
        min_size=1, max_size=8,
    ))
    return [pair_case(n, m, seed, exponent, count) for (n, m), seed, exponent, count in trials]


@settings(max_examples=60, deadline=None)
@given(mixed_batches())
def test_strong_invariance_kernel_batches_bitwise(cases):
    reports = strong_invariance_kernel(**strong_columns([strong_case(c) for c in cases]))
    assert len(reports) == len(cases)
    for case, report in zip(cases, reports):
        expected = reference_residuals(**strong_case(case))
        assert hexes(report.residuals["covariance_identity"]) == hexes(expected["covariance_identity"])
        single = check_strong_invariance(**strong_case(case))
        assert list(report.residuals) == list(single.residuals)
        assert hexes(list(report.residuals.values())) == hexes(list(single.residuals.values()))
        assert float(report.max_residual).hex() == float(max(single.residuals.values())).hex()


@settings(max_examples=60, deadline=None)
@given(mixed_batches())
def test_invariance_kernel_batches_bitwise(cases):
    reports = invariance_kernel(**invariance_columns([invariance_case(c) for c in cases]))
    assert len(reports) == len(cases)
    for case, report in zip(cases, reports):
        expected = reference_invariance(**invariance_case(case))
        assert list(report.residuals) == list(expected)
        assert hexes(list(report.residuals.values())) == hexes(list(expected.values()))
        single = check_invariance(**invariance_case(case))
        assert hexes(list(single.residuals.values())) == hexes(list(expected.values()))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 16),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
    count=st.integers(1, 4),
)
def test_fisher_metric_rows_of_stacked_points_bitwise(n, seeds, count):
    rng = np.random.default_rng(seeds[0])
    points = [boundary_point(n, seed, 4.0, 1) for seed in seeds]
    xs = rng.normal(size=(len(points), count, n)) * 10.0 ** rng.uniform(-8, 3, size=n)
    ys = rng.normal(size=(len(points), count + 1, n))
    stacked = fisher_metric_rows(np.array([p.weights for p in points]), xs, ys)
    for p, x, y, gram in zip(points, xs, ys, stacked):
        assert hexes(gram) == hexes(fisher_metric_rows(p, x, y))


@pytest.mark.parametrize("n_max, trials", [(8, 20), (16, 5), (8, 100)])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_battery_draws_bitwise(n_max, trials, seed):
    """The batteries' own draws, at the sizes of the benchmark and beyond:
    the kernels on the drawn arrays, the references and the single-case
    checks on the objects the arrays stand for."""
    rng = np.random.default_rng(seed)
    strong = _draw_strong_invariance(rng, trials, n_max)
    for case, report in zip(strong, strong_invariance_kernel(**columns(strong))):
        case = objects("strong_invariance", case)
        expected = reference_residuals(**case)
        assert hexes(report.residuals["covariance_identity"]) == hexes(expected["covariance_identity"])
        single = check_strong_invariance(**case)
        assert hexes(list(report.residuals.values())) == hexes(list(single.residuals.values()))
    plain = _draw_invariance(rng, trials, n_max)
    for case, report in zip(plain, invariance_kernel(**columns(plain))):
        expected = reference_invariance(**objects("invariance", case))
        assert hexes(list(report.residuals.values())) == hexes(list(expected.values()))


# ---------------------------------------------------------------------------
# Errors: what the failing trial raises alone, the first in trial order
# ---------------------------------------------------------------------------


def error_of(run) -> tuple[type, str]:
    with pytest.raises(FisherGeoError) as caught:
        run()
    return type(caught.value), str(caught.value)


def non_canonical(case: dict) -> dict:
    """The case with a q that the embedding of its marginal does not recover,
    an object case or an array case."""
    q = case["q"]
    w = np.arange(1.0, len(getattr(q, "weights", q)) + 1.0)
    return {**case, "q": Distribution(q.space, w / w.sum()) if isinstance(q, Distribution) else w / w.sum()}


def test_single_case_errors_match_the_object_level_code():
    case = pair_case(6, 3, 11, 2.0, 0)
    strong, plain = strong_case(case), invariance_case(case)
    wrong_b = RandomVariable(SampleSpace(3), [1.0, 2.0, 3.0])
    wrong_a = RandomVariable(SampleSpace(4), [1.0, 2.0, 3.0, 4.0])
    for bad in (non_canonical(strong), {**strong, "b": wrong_b}, {**strong, "a": wrong_a},
                {**strong, "q": boundary_point(5, 1, 2.0, 0)}):
        assert error_of(lambda: check_strong_invariance(**bad)) == error_of(
            lambda: reference_residuals(**bad)
        )
    for bad in ({**plain, "x_m_rep": plain["x_m_rep"] + 1.0}, {**plain, "y_m_rep": np.zeros(4)},
                {**plain, "a": wrong_a}, {**plain, "b": RandomVariable(SampleSpace(6), np.ones(6))},
                {**plain, "q": boundary_point(7, 1, 2.0, 0)}):
        assert error_of(lambda: check_invariance(**bad)) == error_of(
            lambda: reference_invariance(**bad)
        )


@pytest.mark.parametrize("name", ["strong_invariance", "invariance"])
def test_battery_raises_what_the_first_bad_trial_raises(monkeypatch, name):
    """Trial 2 fails at the checks of its variables (one of the wrong size)
    and trial 5 later (not canonical, or not sum-zero). Trial 2 is the
    first to fail alone, so the battery raises its error, and the object
    path, which builds the variable, raises it too."""
    spec = batteries._BATTERIES[name]
    draw, spoiled = spec.draw, {}

    def spoiling(rng, rounds, **params):
        cases = draw(rng, rounds=rounds, **params)
        for trial, case in enumerate(cases):
            if trial == 2:
                case["a"] = np.ones(len(case["q"]))
            elif trial == 5 and name == "strong_invariance":
                case = non_canonical(case)
            elif trial == 5:
                case["x"] = case["x"] + 1.0
            spoiled[trial] = case
        return [spoiled[t] for t in range(rounds)]

    monkeypatch.setitem(batteries._BATTERIES, name, dataclasses.replace(spec, draw=spoiling))
    config = {"battery": name, "trials": 12, "n_max": 8, "seed": 1}
    kernel = strong_invariance_kernel if name == "strong_invariance" else invariance_kernel
    check = check_strong_invariance if name == "strong_invariance" else check_invariance

    def alone(trial: int) -> tuple[type, str]:
        return error_of(lambda: kernel(**columns([spoiled[trial]])))

    raised = error_of(lambda: run_battery(config))
    shapes = {(len(c["surjection"]), len(c["fibers"])) for c in spoiled.values()}
    assert len(shapes) > 1
    assert raised == alone(2) == error_of(lambda: objects(name, spoiled[2]))
    assert raised != alone(5) == error_of(lambda: check(**objects(name, spoiled[5])))
    cases = [spoiled[t] for t in range(12)]
    assert error_of(lambda: kernel(**columns(cases))) == raised
    assert error_of(lambda: kernel(**columns(cases[3:]))) == alone(5)


def test_kernels_need_one_entry_per_trial_in_every_argument():
    case = arrays("strong_invariance", strong_case(pair_case(5, 3, 7, 2.0, 0)))
    assert strong_invariance_kernel([], [], [], [], []) == []
    with pytest.raises(SizeMismatch, match="one entry per trial"):
        strong_invariance_kernel(
            [case["surjection"]] * 2, [case["fibers"]] * 2, [case["q"]] * 2, [case["a"]], [case["b"]] * 2
        )
