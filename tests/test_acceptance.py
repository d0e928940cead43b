"""Acceptance suite: one test per criterion, at the stated tolerances.

Criterion names follow ``test_criterion_NN_<slug>``; the conftest hook
prints one pass/fail line per criterion in the terminal summary.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from fishergeo.batteries import (
    battery_crb,
    battery_invariance,
    battery_monotonicity_cometric,
    battery_monotonicity_metric,
    battery_prop6,
    battery_strong_invariance,
    battery_weak_invariance,
)
from fishergeo.connections import (
    VectorFieldOnModel,
    coordinate_field,
    duality_check,
)
from fishergeo.geometry import delta, fisher_cometric, fisher_metric_rows, norm_cotangent
from fishergeo.markov import Surjection, canonical_embedding, conditional_expectation
from fishergeo.models import bernoulli_model, categorical_model, crb_check
from fishergeo.simplex import (
    RandomVariable,
    SampleSpace,
    cov,
    cov_matrix,
    new_distribution,
    sample_interior,
    variance,
)
from fishergeo.verify import characterize, check_strong_invariance

from conftest import GOLDEN_DIR, run_cli


def test_criterion_01_cometric_definition():
    # 1000 random (p, A, B), n <= 8: the co-metric of the differentials is
    # the covariance to 1e-10 relative, and the squared co-norm of delta(A)
    # is the variance. Runtime < 1 s.
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        p = sample_interior(SampleSpace(n), seed=int(rng.integers(2**32)))
        a = RandomVariable(p.space, rng.normal(size=n))
        b = RandomVariable(p.space, rng.normal(size=n))
        lhs = fisher_cometric(delta(p, a), delta(p, b))
        rhs = cov(p, a, b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs)), trial
        norm_sq = norm_cotangent(delta(p, a)) ** 2
        var = variance(p, a)
        assert abs(norm_sq - var) <= 1e-10 * max(1.0, var), trial
    assert time.perf_counter() - start < 1.0


def test_criterion_02_metric_cometric_duality():
    # Gram matrices of the coordinate bases are mutual inverses on the full
    # categorical model, n <= 6, residual <= 1e-8.
    for n in range(2, 7):
        for seed in (0, 1):
            p = sample_interior(SampleSpace(n), seed=300 + 10 * n + seed)
            # tangent basis e_i - e_n as m-representation rows, and the
            # differentials delta(e_i) of the coordinates xi^i = p(i)
            basis = np.eye(n)[: n - 1]
            basis[:, n - 1] = -1.0
            covectors = [delta(p, RandomVariable(p.space, unit)) for unit in np.eye(n)[: n - 1]]
            g = fisher_metric_rows(p, basis, basis)
            c = cov_matrix(p, [alpha.rep for alpha in covectors])
            assert np.max(np.abs(g @ c - np.eye(n - 1))) <= 1e-8, (n, seed)


def line_model():
    from fishergeo.models import affine_model

    return affine_model(np.array([0.0, 0.0, 1.0]), np.array([[1.0, 1.0, -2.0]]))


def test_criterion_03_cramer_rao():
    # closed-form equality cases to 1e-12
    bern = crb_check(bernoulli_model(), [0.25], [RandomVariable(SampleSpace(2), np.array([1.0, 0.0]))])
    assert abs(bern.covariance[0, 0] - 3.0 / 16.0) <= 1e-12
    assert abs(bern.inverse_information[0, 0] - 3.0 / 16.0) <= 1e-12
    assert bern.equality

    model = line_model()
    a_eff = RandomVariable(SampleSpace(3), np.array([0.5, 0.5, 0.0]))
    for xi, target in ((0.25, 1.0 / 16.0), (1.0 / 3.0, 1.0 / 18.0)):
        report = crb_check(model, [xi], [a_eff])
        assert abs(report.covariance[0, 0] - target) <= 1e-12, xi
        assert abs(report.inverse_information[0, 0] - target) <= 1e-12, xi
        assert report.equality, xi

    # strict case: gap exactly 1/8
    strict = crb_check(model, [0.25], [RandomVariable(SampleSpace(3), np.array([1.0, 0.0, 0.0]))])
    assert strict.min_eigenvalue == pytest.approx(0.125, abs=1e-15)
    assert strict.verdict == "psd" and not strict.equality

    # 1000 randomized locally unbiased estimator tuples never violate PSD
    battery = battery_crb(trials=1000, n_max=4, seed=202)
    assert battery.passed
    assert battery.extras["min_scaled_eigenvalue"] >= -1e-8


def test_criterion_04_monotonicity_batteries():
    start = time.perf_counter()
    metric = battery_monotonicity_metric(trials=1000, n_max=6, seed=404)
    cometric = battery_monotonicity_cometric(trials=1000, n_max=6, seed=405)
    elapsed = time.perf_counter() - start
    assert not metric.witnesses and metric.max_residual <= 1e-9
    assert not cometric.witnesses and cometric.max_residual <= 1e-9
    assert elapsed < 5.0


def test_criterion_05_invariance_identities():
    report = battery_invariance(trials=500, n_max=8, seed=505)
    assert not report.witnesses
    assert report.max_residual <= 1e-9


def test_criterion_06_strong_invariance():
    f = Surjection.from_one_based([1, 1, 2])
    q = new_distribution(SampleSpace(3), np.array([0.25, 0.25, 0.5]))
    pair = canonical_embedding(f, q)
    a = RandomVariable(SampleSpace(2), np.array([1.0, 0.0]))
    b = RandomVariable(SampleSpace(3), np.array([1.0, 2.0, 3.0]))

    # worked example: both sides of the mixed covariance identity are
    # exactly -0.375 (all quantities dyadic)
    q_f = f.marginalize(q)
    lhs = cov(q_f, a, conditional_expectation(pair.embedding_channel, b))
    rhs = cov(q, f.compose_variable(a), b)
    assert lhs == -0.375 and rhs == -0.375

    report = check_strong_invariance(pair, q, a, b)
    assert report.max_residual <= 1e-8
    for key in ("adjoint", "projector_idempotent", "projector_self_adjoint"):
        assert report.residuals[key] <= 1e-8, key

    # random canonical pairs behave the same way
    rng = np.random.default_rng(606)
    from fishergeo.markov import random_surjection

    for trial in range(50):
        n_big = int(rng.integers(3, 9))
        n_small = int(rng.integers(2, n_big))
        surjection = random_surjection(n_big, n_small, seed=int(rng.integers(2**32)))
        q_rand = sample_interior(SampleSpace(n_big), seed=int(rng.integers(2**32)))
        pair_rand = canonical_embedding(surjection, q_rand)
        a_rand = RandomVariable(SampleSpace(n_small), rng.normal(size=n_small))
        b_rand = RandomVariable(SampleSpace(n_big), rng.normal(size=n_big))
        rep = check_strong_invariance(pair_rand, q_rand, a_rand, b_rand)
        assert rep.max_residual <= 1e-8, trial

    # the battery at its acceptance size, where shapes repeat in the batch
    battery = battery_strong_invariance(trials=500, n_max=8, seed=616)
    assert battery.passed and not battery.witnesses
    assert battery.max_residual <= 1e-8


def test_criterion_07_cencov_probe():
    start = time.perf_counter()
    cov_result = characterize("COV", n_max=6, denominator_bound=64, trials=8, seed=707)
    assert cov_result.passed
    assert (cov_result.c1, cov_result.c2) == pytest.approx((1.0, -1.0), abs=1e-10)
    assert cov_result.ii1_holds
    assert cov_result.verdict == "c*Cov with c=1"

    l2_result = characterize("L2", n_max=6, denominator_bound=64, trials=8, seed=707)
    assert (l2_result.c1, l2_result.c2) == pytest.approx((1.0, 0.0), abs=1e-10)
    assert not l2_result.ii1_holds

    mm_result = characterize("MM", n_max=6, denominator_bound=64, trials=8, seed=707)
    assert (mm_result.c1, mm_result.c2) == pytest.approx((0.0, 1.0), abs=1e-10)
    assert not mm_result.ii1_holds

    pk2_result = characterize("PK(2)", n_max=6, denominator_bound=64, trials=8, seed=707)
    assert pk2_result.witness is not None
    assert pk2_result.witness.kind == "cross_dimension"

    # the two-sided pairing identity through random embedding pairs: the
    # covariance satisfies it, PK(2) does not
    assert battery_prop6(family="COV", trials=200, n_max=6, seed=707).passed
    assert battery_prop6(family="PK(2)", trials=200, n_max=6, seed=707).witnesses
    assert time.perf_counter() - start < 10.0


def test_criterion_08_connection_duality():
    # residual <= 1e-6 at step 1e-4 on Bernoulli and categorical models
    bern = bernoulli_model()
    f = coordinate_field(bern, 0)
    assert duality_check(bern, [0.3], f, f, f, step=1e-4) <= 1e-6
    cat = categorical_model(3)
    cat_fields = [coordinate_field(cat, i) for i in range(2)]
    for x in cat_fields:
        for y in cat_fields:
            for z in cat_fields:
                assert duality_check(cat, [1 / 3, 1 / 3], x, y, z, step=1e-4) <= 1e-6
                assert duality_check(cat, [0.2, 0.35], x, y, z, step=1e-4) <= 1e-6

    # second-order convergence: ratio ~ 4 (+-20%) when halving the step,
    # measured where the residual is truncation-dominated
    gx = VectorFieldOnModel(bern, lambda xi: np.array([xi[0] ** 2]))
    gy = VectorFieldOnModel(bern, lambda xi: np.array([1.0 + 0.5 * xi[0]]))
    r1 = duality_check(bern, [0.3], gx, gy, f, step=1e-4)
    r2 = duality_check(bern, [0.3], gx, gy, f, step=5e-5)
    assert 3.2 <= r1 / r2 <= 4.8

    hx = VectorFieldOnModel(cat, lambda xi: np.array([xi[0], 1.0 - xi[1]]))
    hy = VectorFieldOnModel(cat, lambda xi: np.array([0.3 + xi[1] ** 2, xi[0]]))
    s1 = duality_check(cat, [0.2, 0.35], hx, hy, cat_fields[1], step=1e-4)
    s2 = duality_check(cat, [0.2, 0.35], hx, hy, cat_fields[1], step=5e-5)
    assert 3.2 <= s1 / s2 <= 4.8


def test_criterion_09_weak_invariance_of_connections():
    report = battery_weak_invariance(
        n_max=5, seed=909, step=1e-4, alphas=(-1.0, 0.0, 1.0), grid_count=2
    )
    assert not report.witnesses
    assert report.max_residual <= 1e-6

    control = battery_weak_invariance(
        n_max=5, seed=909, step=1e-4, alphas=(-1.0, 0.0, 1.0), grid_count=2,
        mismatched=True,
    )
    assert control.extras["mismatch_detected"]
    assert control.max_residual > 1e-3


GOLDEN_COMMANDS: dict[str, list[str]] = {
    "fisher_bernoulli": [
        "fisher", "--model", "inputs/bernoulli.json", "--xi", "0.5",
    ],
    "crb_line_strict": [
        "crb", "--model", "inputs/line_model.json", "--xi", "0.25",
        "--estimators", "inputs/estimators_strict.json",
    ],
    "push_coembed": [
        "push", "--channel", "inputs/coembed_112.json",
        "--p", "inputs/dist_q3.json", "--vector", "inputs/tangent_q3.json",
    ],
    "pull_embed": [
        "pull", "--channel", "inputs/embed_112.json",
        "--p", "inputs/dist_qf.json", "--vector", "inputs/cotangent_q3.json",
    ],
    "transport_e": [
        "transport", "--mode", "e", "--vector", "inputs/tangent_half.json",
        "--to", "inputs/dist_quarter.json",
    ],
    "duality_bernoulli": [
        "duality", "--model", "inputs/bernoulli.json", "--xi", "0.3",
    ],
    "verify_strong_invariance": [
        "verify", "--config", "inputs/verify_strong.json",
    ],
    "characterize_cov": [
        "characterize", "--family", "COV", "--n-max", "4",
        "--denominator-bound", "16", "--trials", "2",
    ],
}


def test_criterion_10_cli_determinism():
    # every subcommand, run twice with identical inputs and seed, produces
    # byte-identical output matching the checked-in golden files
    for name, args in GOLDEN_COMMANDS.items():
        resolved = [
            str(GOLDEN_DIR / arg) if arg.startswith("inputs/") else arg
            for arg in args
        ]
        first = run_cli("--seed", "0", *resolved)
        second = run_cli("--seed", "0", *resolved)
        assert first.stdout == second.stdout, name
        assert first.returncode == second.returncode, name
        golden_path = GOLDEN_DIR / "expected" / f"{name}.json"
        assert golden_path.exists(), f"golden file missing for {name}"
        assert first.stdout == golden_path.read_bytes(), name
