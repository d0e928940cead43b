from __future__ import annotations

import dataclasses
import json
import math
import re
from functools import partial

import numpy as np
import pytest

import fishergeo.verify as verify_module
from fishergeo.batteries import (
    _draw_channel_cases,
    _draw_crb,
    _draw_invariance,
    _draw_strong_invariance,
    _draw_weak_invariance,
    battery_crb,
    battery_invariance,
    battery_monotonicity_cometric,
    battery_monotonicity_metric,
    battery_prop6,
    battery_strong_invariance,
    battery_weak_invariance,
    run_battery,
)
from fishergeo.errors import BadSize, FisherGeoError, InvalidParameter, NotRational
from fishergeo.families import parse_family
from fishergeo.geometry import TangentVector, delta
from fishergeo.markov import (
    Channel,
    Surjection,
    apply,
    canonical_embedding,
    conditional_expectation,
    random_surjection,
    random_surjection_map,
)
from fishergeo.models import crb_check
from fishergeo.simplex import (
    RandomVariable,
    SampleSpace,
    cov,
    new_distribution,
    sample_interior,
    sample_interior_weights,
    variance,
)
from fishergeo.verify import (
    Witness,
    characterize,
    check_bilinearity,
    check_invariance,
    check_monotonicity_cometric,
    check_monotonicity_metric,
    check_prop6_identity,
    check_strong_invariance,
    invariance_kernel,
    monotonicity_cometric_kernel,
    monotonicity_metric_kernel,
    probe_consistency,
    probe_rational,
    probe_uniform,
    rationalize,
    replay_witness,
    strong_invariance_kernel,
    weak_invariance_residual_kernel,
)


def dist(*weights: float):
    return new_distribution(SampleSpace(len(weights)), np.array(weights))


def rv(*values: float) -> RandomVariable:
    return RandomVariable(SampleSpace(len(values)), np.array(values))


F112 = Surjection.from_one_based([1, 1, 2])
Q3 = dist(0.25, 0.25, 0.5)
COV_FAMILY = parse_family("COV")
L2_FAMILY = parse_family("L2")


def uniform_constants(family, n: int) -> tuple[float, float]:
    """(c1, c2) = (n a, n^2 b) from the uniform probe at n."""
    base = probe_uniform(family, n)
    return n * base.a, n * n * base.b


class TestMonotonicityChecks:
    def test_identity_channel_equality(self):
        p = dist(0.3, 0.7)
        w = Channel(p.space, p.space, np.eye(2))
        x = TangentVector(p, np.array([0.5, -0.5]))
        report = check_monotonicity_metric(w, p, x)
        assert report.slack == pytest.approx(0, abs=1e-12) and report.passed

    def test_completely_mixing_collapses_norm(self):
        p = dist(0.5, 0.5)
        w = Channel(p.space, p.space, np.full((2, 2), 0.5))
        x = TangentVector(p, np.array([1.0, -1.0]))
        report = check_monotonicity_metric(w, p, x)
        assert report.lhs == pytest.approx(0, abs=1e-12)
        assert report.rhs == pytest.approx(2.0, rel=1e-12)

    def test_cometric_mixing_lhs_zero(self):
        p = dist(0.4, 0.6)
        w = Channel(p.space, p.space, np.full((2, 2), 0.5))
        report = check_monotonicity_cometric(w, p, rv(1, 0))
        assert report.lhs == pytest.approx(0, abs=1e-12) and report.passed

    def test_coembedding_variance_equality(self):
        psi = canonical_embedding(F112, Q3).coembedding_channel
        report = check_monotonicity_cometric(psi, Q3, rv(1, 0))
        assert abs(report.slack) < 1e-12
        assert report.lhs == pytest.approx(0.25, abs=1e-15)


class TestInvarianceCheck:
    def test_worked_example(self):
        pair = canonical_embedding(F112, Q3)
        a = rv(1, 0)
        report = check_invariance(
            pair, Q3, np.array([0.5, -0.5]), np.array([-0.25, 0.25]), a, rv(0, 1)
        )
        assert report.passed
        # V_{q^F}(A) = 1/4 = V_q(A o F)
        assert variance(F112.marginalize(Q3), a) == 0.25
        assert variance(Q3, F112.compose_variable(a)) == 0.25

    def test_zero_vectors(self):
        pair = canonical_embedding(F112, Q3)
        report = check_invariance(
            pair, Q3, np.zeros(2), np.zeros(2), rv(0, 0), rv(0, 0)
        )
        assert report.max_residual == 0.0

    def test_random_battery_sample(self):
        report = battery_invariance(trials=60, n_max=8, seed=11)
        assert report.passed
        assert report.max_residual <= 1e-9


class TestStrongInvariance:
    def test_worked_example_exact(self):
        pair = canonical_embedding(F112, Q3)
        a, b = rv(1, 0), rv(1, 2, 3)
        # both sides of the mixed covariance identity are exactly -3/8
        q_f = F112.marginalize(Q3)
        e_v = conditional_expectation(pair.embedding_channel, b)
        assert np.array_equal(e_v.values, [1.5, 3.0])
        assert cov(q_f, a, e_v) == -0.375
        assert cov(Q3, F112.compose_variable(a), b) == -0.375
        report = check_strong_invariance(pair, Q3, a, b)
        assert report.passed
        assert report.residuals["covariance_identity"] == 0.0
        assert report.residuals["adjoint"] <= 1e-8

    def test_reduces_to_plain_invariance_when_b_factors(self):
        pair = canonical_embedding(F112, Q3)
        a, b_small = rv(1, 0), rv(0.5, -2)
        b = F112.compose_variable(b_small)
        q_f = F112.marginalize(Q3)
        lhs = cov(q_f, a, conditional_expectation(pair.embedding_channel, b))
        rhs = cov(q_f, a, b_small)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_non_canonical_pair_rejected(self):
        # fiber conditionals of (0.1, 0.3, 0.6) differ from those of Q3
        other_q = dist(0.1, 0.3, 0.6)
        pair = canonical_embedding(F112, other_q)
        with pytest.raises(InvalidParameter):
            check_strong_invariance(pair, Q3, rv(1, 0), rv(1, 2, 3))

    def test_strong_implies_one_sided(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            f = Surjection.from_one_based([1, 2, 1, 3, 2])
            q = sample_interior(SampleSpace(5), seed=100 + seed)
            pair = canonical_embedding(f, q)
            a = RandomVariable(SampleSpace(3), rng.normal(size=3))
            b = RandomVariable(SampleSpace(5), rng.normal(size=5))
            strong = check_strong_invariance(pair, q, a, b)
            assert strong.passed
            one_sided = check_invariance(
                pair,
                q,
                _sum_zero(rng, 3),
                _sum_zero(rng, 3),
                a,
                RandomVariable(SampleSpace(3), rng.normal(size=3)),
            )
            assert one_sided.passed

    def test_battery_sample(self):
        report = battery_strong_invariance(trials=40, n_max=8, seed=3)
        assert report.passed and report.max_residual <= 1e-8


def _sum_zero(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=n)
    return m - m.mean()


class TestProp6:
    def test_cov_family_passes(self):
        pair = canonical_embedding(F112, Q3)
        p = dist(0.3, 0.7)
        alpha = delta(p, rv(1, 0))
        q_img = apply(pair.embedding_channel, p)
        beta = delta(q_img, RandomVariable(q_img.space, np.array([1.0, 2.0, 3.0])))
        report = check_prop6_identity(pair, p, alpha, beta, COV_FAMILY)
        assert report.passed and report.witness is None

    def test_zero_covectors(self):
        pair = canonical_embedding(F112, Q3)
        p = dist(0.3, 0.7)
        alpha = delta(p, rv(5, 5))
        q_img = apply(pair.embedding_channel, p)
        beta = delta(q_img, RandomVariable(q_img.space, np.full(3, 2.0)))
        report = check_prop6_identity(pair, p, alpha, beta, COV_FAMILY)
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_l2_coincides_with_cov_on_centered_representatives(self):
        # On canonical centered representatives the mean terms vanish, so
        # the L2 evaluation equals the covariance one and the two-sided
        # identity reduces to conditional-expectation adjointness: every
        # family in span{L2, MM} passes it identically.
        f = Surjection.from_one_based([1, 1, 2])
        q = dist(0.2, 0.3, 0.5)
        pair = canonical_embedding(f, q)
        p = dist(0.35, 0.65)
        alpha = delta(p, rv(1, 0))
        q_img = apply(pair.embedding_channel, p)
        beta = delta(q_img, RandomVariable(q_img.space, np.array([2.0, -1.0, 0.5])))
        l2_report = check_prop6_identity(pair, p, alpha, beta, L2_FAMILY)
        cov_report = check_prop6_identity(pair, p, alpha, beta, COV_FAMILY)
        assert l2_report.residual <= 1e-12
        assert l2_report.lhs == pytest.approx(cov_report.lhs, abs=1e-15)

    def test_pk2_family_generically_fails(self):
        # families outside span{L2, MM} break the fiber factorization and
        # produce genuine witnesses
        f = Surjection.from_one_based([1, 1, 2])
        q = dist(0.2, 0.3, 0.5)
        pair = canonical_embedding(f, q)
        p = dist(0.35, 0.65)
        alpha = delta(p, rv(1, 0))
        q_img = apply(pair.embedding_channel, p)
        beta = delta(q_img, RandomVariable(q_img.space, np.array([2.0, -1.0, 0.5])))
        report = check_prop6_identity(pair, p, alpha, beta, parse_family("PK(2)"))
        assert report.witness is not None
        assert report.witness.gap > 1e-6

    def test_battery_cov(self):
        report = battery_prop6(trials=40, n_max=6, seed=5, family="COV")
        assert report.passed and report.max_residual <= 1e-9


class TestProbeUniform:
    def test_cov_three(self):
        result = probe_uniform(COV_FAMILY, 3)
        assert result.a == pytest.approx(1 / 3, rel=1e-12)
        assert result.b == pytest.approx(-1 / 9, rel=1e-12)
        assert result.witness is None

    def test_l2_two(self):
        result = probe_uniform(L2_FAMILY, 2)
        assert result.a == pytest.approx(0.5, rel=1e-12)
        assert result.b == pytest.approx(0.0, abs=1e-15)

    def test_pk2_two(self):
        result = probe_uniform(parse_family("PK(2)"), 2)
        assert result.a == pytest.approx(0.25, rel=1e-12)
        assert result.b == pytest.approx(0.0, abs=1e-15)

    def test_non_symmetric_plugin_family_witnesses(self):
        class Skewed:
            name = "skewed-plugin"

            def __call__(self, p, a, b):
                weights = np.arange(1.0, p.space.size + 1)
                return float(np.sum(weights * p.weights * a.values * b.values))

        result = probe_uniform(Skewed(), 4)
        assert result.witness is not None
        assert result.witness.kind == "uniform_shape"


class TestProbeConsistency:
    def test_cov(self):
        result = probe_consistency(COV_FAMILY, 2, 3)
        assert result.c1 == pytest.approx(1.0, rel=1e-12)
        assert result.c2 == pytest.approx(-1.0, rel=1e-12)
        assert result.witness is None

    def test_l2(self):
        result = probe_consistency(L2_FAMILY, 2, 3)
        assert result.c1 == pytest.approx(1.0, rel=1e-12)
        assert result.c2 == pytest.approx(0.0, abs=1e-12)

    def test_pk2_witness(self):
        result = probe_consistency(parse_family("PK(2)"), 2, 3)
        assert result.witness is not None
        assert result.witness.kind == "cross_dimension"
        # gap |1/9 - 1/18| = 1/18
        assert result.witness.gap == pytest.approx(1 / 18, rel=1e-12)


class TestProbeRational:
    def test_cov_quarter(self):
        result = probe_rational(COV_FAMILY, dist(0.25, 0.75), 8, uniform_constants(COV_FAMILY, 2))
        assert result.denominator == 4 and result.counts == (1, 3)
        assert result.max_residual <= 1e-9
        assert (result.c1, result.c2) == pytest.approx((1.0, -1.0), rel=1e-12)

    def test_grammar_roundtrip_recovers_constants(self):
        """The probe passes at a rational point, and step (d)'s least-squares
        fit there recovers the grammar's constants."""
        fam = parse_family("2*L2 + 5*MM")
        p = dist(0.25, 0.75)
        result = probe_rational(fam, p, 8, uniform_constants(fam, 2))
        matrix = next(verify_module._pair_matrices(fam, p.weights[None], np.eye(2)[None], np.eye(2)[None]))[0]
        assert verify_module._fit_constants(p.weights, matrix) == pytest.approx((2.0, 5.0), rel=1e-9)
        assert result.max_residual <= 1e-9

    def test_irrational_point_rejected(self):
        w = 1.0 / math.pi
        with pytest.raises(NotRational):
            rationalize(dist(w, 1.0 - w), 64)

    def test_rationalize_thirds(self):
        m, counts = rationalize(dist(1 / 3, 2 / 3), 8)
        assert m == 3 and tuple(counts) == (1, 2)


class TestCharacterize:
    def test_cov(self):
        result = characterize("COV", n_max=5, denominator_bound=32, trials=4, seed=1)
        assert result.passed
        assert (result.c1, result.c2) == pytest.approx((1.0, -1.0), abs=1e-10)
        assert result.ii1_holds
        assert result.verdict == "c*Cov with c=1"

    def test_l2(self):
        result = characterize("L2", n_max=5, denominator_bound=32, trials=4, seed=1)
        assert (result.c1, result.c2) == pytest.approx((1.0, 0.0), abs=1e-10)
        assert not result.ii1_holds

    def test_mm(self):
        result = characterize("MM", n_max=5, denominator_bound=32, trials=4, seed=1)
        assert (result.c1, result.c2) == pytest.approx((0.0, 1.0), abs=1e-10)
        assert not result.ii1_holds

    def test_pk2_witness(self):
        result = characterize("PK(2)", n_max=5, denominator_bound=32, trials=4, seed=1)
        assert result.witness is not None
        assert result.witness.kind == "cross_dimension"

    def test_nonconforming_catalog_all_witness(self):
        for expr in ("PK(2)", "PK(0)", "PK(3)", "1*L2 + 1*PK(2)", "1*COV + 2*PK(0)"):
            result = characterize(expr, n_max=4, denominator_bound=16, trials=2, seed=2)
            assert result.witness is not None, expr

    def test_conforming_grammar_recovered(self):
        result = characterize(
            "2*L2 + 5*MM", n_max=4, denominator_bound=16, trials=2, seed=2
        )
        assert (result.c1, result.c2) == pytest.approx((2.0, 5.0), abs=1e-9)

    def test_bilinearity_guard(self):
        assert check_bilinearity(COV_FAMILY, 4, seed=7) <= 1e-12

    def test_plugin_returning_numpy_floats_gives_a_json_result(self):
        """ii1_holds is a Python bool even when the plugin returns np.float64."""

        class NumpyCov:
            name = "numpy cov"

            def __call__(self, p, a, b):
                w = p.weights
                return np.dot(w, a.values * b.values) - np.dot(w, a.values) * np.dot(w, b.values)

        result = characterize(NumpyCov(), n_max=3, denominator_bound=8, trials=2, seed=0)
        assert result.passed and result.ii1_holds is True
        assert json.loads(json.dumps(result.to_json()))["ii1_holds"] is True


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def on_arrays(kernel):
    """``kernel`` on the arrays of one drawn trial."""
    return lambda **case: kernel(**{key: [value] for key, value in case.items()})[0]


def _cov(w, a, b) -> float:
    return float(np.dot(w, a * b) - np.dot(w, a) * np.dot(w, b))


class Plugin:
    """A plugin family given by a formula on (weights, A values, B values)."""

    def __init__(self, name, form):
        self.name, self.form = name, form

    def __call__(self, p, a, b) -> float:
        return self.form(p.weights, a.values, b.values)


SPOT = np.sqrt(np.arange(2.0, 5.0)) / np.sqrt(np.arange(2.0, 5.0)).sum()

#: One plugin family per probe witness kind that no grammar family reaches.
PLUGINS = {
    "uniform_shape": Plugin(
        "skewed", lambda w, a, b: float(np.sum(np.arange(1.0, w.size + 1) * w * a * b))
    ),
    "bilinearity": Plugin("quadratic", lambda w, a, b: float(np.sum(w * (a * b) ** 2))),
    # the covariance at uniform points only
    "rational_point": Plugin(
        "bumpy", lambda w, a, b: _cov(w, a, b) * (1.0 + 100.0 * float(np.sum((w - 1.0 / w.size) ** 2)))
    ),
    # the covariance everywhere except at the irrational spot-check point
    "continuity": Plugin(
        "jumpy",
        lambda w, a, b: _cov(w, a, b) * (2.0 if w.size == 3 and np.allclose(w, SPOT, atol=1e-12) else 1.0),
    ),
}


@pytest.fixture()
def plugin_names(monkeypatch):
    """Let replay resolve the plugin names as it resolves grammar expressions."""
    by_name = {plugin.name: plugin for plugin in PLUGINS.values()}
    monkeypatch.setattr(
        verify_module, "parse_family", lambda expr: by_name.get(expr) or parse_family(expr)
    )


@pytest.fixture()
def any_gap(monkeypatch):
    """Let a Witness hold any gap: the identities hold, so no drawn case
    violates them, but a witness built from one must still replay."""
    monkeypatch.setattr(verify_module, "VIOLATION_TOL", -np.inf)


class TestWitnessReplay:
    def test_every_kind_has_a_rule(self):
        assert sorted(verify_module._KINDS) == [
            "bilinearity", "continuity", "crb", "cross_dimension", "invariance",
            "monotonicity_cometric", "monotonicity_metric", "prop6_identity",
            "rational_point", "strong_invariance", "uniform_shape", "weak_invariance",
        ]

    @pytest.mark.parametrize(
        "kind, draw, check, residual",
        [
            # the checks run on the drawn arrays; the ids name the checks they stand for
            pytest.param("monotonicity_metric", partial(_draw_channel_cases, key="x"),
                         on_arrays(monotonicity_metric_kernel), "slack",
                         id="monotonicity_metric-draw0-check_monotonicity_metric-slack"),
            pytest.param("monotonicity_cometric", partial(_draw_channel_cases, key="a"),
                         on_arrays(monotonicity_cometric_kernel), "slack",
                         id="monotonicity_cometric-draw1-check_monotonicity_cometric-slack"),
            pytest.param("invariance", _draw_invariance, on_arrays(invariance_kernel), "max_residual",
                         id="invariance-_draw_invariance-check_invariance-max_residual"),
            pytest.param("strong_invariance", _draw_strong_invariance, on_arrays(strong_invariance_kernel),
                         "max_residual",
                         id="strong_invariance-_draw_strong_invariance-check_strong_invariance-max_residual"),
        ],
    )
    def test_drawn_case_replays_bitwise(self, any_gap, kind, draw, check, residual):
        for case in draw(np.random.default_rng(31), rounds=6, n_max=6):
            report = check(**case)
            witness = Witness.from_case(kind, case, report)
            assert same_bits(witness.gap, getattr(report, residual))
            assert same_bits(replay_witness(witness), witness.gap)

    def test_a_passing_monotonicity_case_is_no_witness(self):
        """The metric never grows under a channel, so a public battery
        reaches no violating case; a case that holds must not become a witness."""
        case = {"kernel": np.eye(2), "p": np.array([0.5, 0.5]), "x": np.array([1.0, -1.0])}
        report = on_arrays(monotonicity_metric_kernel)(**case)
        assert report.slack <= 0.0
        with pytest.raises(InvalidParameter):
            Witness.from_case("monotonicity_metric", case, report, "seed=0 trial=0")

    def test_invariance_witness_stores_tangent_inputs(self, any_gap):
        [case] = _draw_invariance(np.random.default_rng(4), rounds=1, n_max=5)
        witness = Witness.from_case("invariance", case, on_arrays(invariance_kernel)(**case))
        payload = witness.to_json()
        assert payload["x"] == list(case["x"]) and payload["y"] == list(case["y"])

    def test_crb_replays_bitwise(self, any_gap):
        rng = np.random.default_rng(32)
        for _ in range(6):
            [case] = _draw_crb(rng, 1, 5)
            report = crb_check(case["model"], case["xi"], case["estimators"])
            witness = Witness.from_case("crb", case, report)
            assert len(witness.estimators) == case["model"].dim
            assert same_bits(replay_witness(witness), report.scaled_residual)

    @pytest.mark.parametrize("alpha", [-1.0, 0.5])
    def test_weak_invariance_replays_bitwise(self, any_gap, alpha):
        """The case is arrays, as the battery draws it; the witness stores the
        map as ints, so its JSON names the surjection 1-based, as before."""
        case = {
            "surjection": random_surjection_map(4, 2, seed=5),
            "q": sample_interior_weights(4, seed=6),
            "alpha": alpha,
            "grid": [sample_interior_weights(2, seed=s, floor=0.02)[:1] for s in (7, 8)],
            "step": 1e-4,
            "mismatched": False,
        }
        [residual] = weak_invariance_residual_kernel(*([value] for value in case.values()))
        witness = Witness.from_case("weak_invariance", case, residual)
        assert all(type(v) is int for v in witness.surjection)
        payload = witness.to_json()
        assert (payload["alpha"], payload["step"], len(payload["grid"])) == (alpha, 1e-4, 2)
        assert payload["surjection"] == [v + 1 for v in random_surjection(4, 2, seed=5).map0]
        assert (payload["m"], payload["n"]) == (2, 4)
        assert payload["point"] == sample_interior(SampleSpace(4), seed=6).weights.tolist()
        assert same_bits(replay_witness(witness), residual)

    @pytest.mark.parametrize("kind", ["invariance", "strong_invariance", "weak_invariance"])
    @pytest.mark.parametrize("offset", [None, 0, 5])
    def test_a_stored_map_out_of_range_raises_bad_size(self, any_gap, kind, offset):
        """Replay checks the stored map against the stored m before it
        indexes anything with it: a first value of -1, m or m + 5."""
        if kind == "weak_invariance":
            case = {
                "surjection": random_surjection_map(4, 2, seed=5), "q": sample_interior_weights(4, seed=6),
                "alpha": 0.0, "grid": [[0.4]], "step": 1e-4, "mismatched": False,
            }
        else:
            draw = _draw_invariance if kind == "invariance" else _draw_strong_invariance
            [case] = draw(np.random.default_rng(3), rounds=1, n_max=5)
        witness = Witness.from_case(kind, case, verify_module._KINDS[kind].evaluate(case))
        assert same_bits(replay_witness(witness), witness.gap)
        value = -1 if offset is None else witness.m + offset
        spoiled = dataclasses.replace(witness, surjection=(value, *witness.surjection[1:]))
        with pytest.raises(BadSize, match="out of codomain range"):
            replay_witness(spoiled)

    @pytest.mark.parametrize("kind", sorted(PLUGINS))
    def test_probe_witness_replays_bitwise(self, plugin_names, kind):
        result = characterize(PLUGINS[kind], n_max=3, denominator_bound=16, trials=2, seed=1)
        assert result.witness.kind == kind
        assert same_bits(replay_witness(result.witness), result.witness.gap)

    @pytest.mark.parametrize("n, point", [
        (3, (0.5, 0.5)), (3, (math.nan, 0.5, 0.5)), (3, (-0.1, 0.6, 0.5)), (3, (0.2, 0.2, 0.2)), (1, (1.0,)),
    ])
    def test_a_bad_stored_continuity_point_raises_what_its_distribution_raises(self, plugin_names, n, point):
        """The spot replays as a weight row: a point of the wrong length, a
        non-finite, negative or unnormalized weight, or a size below 2 raises
        the error type and message of the ``Distribution`` it once rebuilt."""
        result = characterize(PLUGINS["continuity"], n_max=3, denominator_bound=16, trials=2, seed=1)
        spoiled = dataclasses.replace(result.witness, n=n, point=point)
        with pytest.raises(FisherGeoError) as expected:
            new_distribution(SampleSpace(n), np.array(point))
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            replay_witness(spoiled)

    def test_cross_dimension_replay_bitwise(self):
        result = probe_consistency(parse_family("PK(2)"), 2, 3)
        gap = replay_witness(result.witness)
        assert gap == result.witness.gap  # bitwise

    def test_prop6_replay_bitwise(self):
        f = Surjection.from_one_based([1, 1, 2])
        pair = canonical_embedding(f, dist(0.2, 0.3, 0.5))
        p = dist(0.35, 0.65)
        alpha = delta(p, rv(1, 0))
        q_img = apply(pair.embedding_channel, p)
        beta = delta(q_img, RandomVariable(q_img.space, np.array([2.0, -1.0, 0.5])))
        report = check_prop6_identity(pair, p, alpha, beta, parse_family("PK(2)"))
        assert report.witness is not None
        assert replay_witness(report.witness) == report.witness.gap

    def test_uniform_shape_replay_requires_grammar(self):
        witness = Witness(
            kind="unknown_kind", m=2, n=2, lhs=1.0, rhs=0.0, gap=1.0
        )
        with pytest.raises(InvalidParameter):
            replay_witness(witness)


def _a_witness_of_each_kind() -> dict:
    """Kind -> a witness of it: the batteries' from drawn cases, built from
    their reports (any gap allowed), the probe steps' from the plugins."""
    witnesses = {}
    draws = {
        "monotonicity_metric": partial(_draw_channel_cases, key="x"),
        "monotonicity_cometric": partial(_draw_channel_cases, key="a"),
        "invariance": _draw_invariance, "strong_invariance": _draw_strong_invariance, "crb": _draw_crb,
        "weak_invariance": partial(_draw_weak_invariance, alphas=(0.5,), grid_count=1, step=1e-4, mismatched=False),
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_module, "VIOLATION_TOL", -np.inf)
        for kind, draw in draws.items():
            case = draw(np.random.default_rng(5), rounds=1, n_max=5)[0]
            witnesses[kind] = Witness.from_case(kind, case, verify_module._KINDS[kind].evaluate(case))
    witnesses["prop6_identity"] = battery_prop6(trials=4, n_max=4, seed=6, family="PK(2)").witnesses[0]
    witnesses["cross_dimension"] = probe_consistency(parse_family("PK(2)"), 2, 3).witness
    for kind, plugin in PLUGINS.items():
        witnesses[kind] = characterize(plugin, n_max=3, denominator_bound=16, trials=2, seed=1).witness
    return witnesses


#: Kind -> the kernel or probe step of ``verify`` that its replay evaluates.
EVALUATIONS = {
    "monotonicity_metric": "monotonicity_metric_kernel", "monotonicity_cometric": "monotonicity_cometric_kernel",
    "invariance": "invariance_kernel", "strong_invariance": "strong_invariance_kernel",
    "prop6_identity": "prop6_kernel", "crb": "crb_kernel", "weak_invariance": "weak_invariance_residual_kernel",
    "uniform_shape": "probe_uniform", "cross_dimension": "probe_consistency", "rational_point": "probe_rational",
    "bilinearity": "check_bilinearity", "continuity": "_continuity_errors",
}


class TestReplayRule:
    @pytest.fixture(scope="class")
    def witnesses(self):
        return _a_witness_of_each_kind()

    @pytest.mark.parametrize("kind", sorted(EVALUATIONS))
    def test_a_replay_calls_its_evaluation_by_name_once(self, monkeypatch, plugin_names, witnesses, kind):
        """Replay looks its kernel or probe step up in ``verify`` when it
        runs, as the battery driver looks up its kernel: rebound to a
        counting wrapper, it is called once, and the gap comes back bitwise."""
        assert sorted(EVALUATIONS) == sorted(verify_module._KINDS) == sorted(witnesses)
        name, calls = EVALUATIONS[kind], []
        original = getattr(verify_module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify_module, name, counted)
        witness = witnesses[kind]
        assert witness.kind == kind
        if not witness.gap > verify_module.VIOLATION_TOL:  # a drawn case that holds: keep its rounding-level gap
            monkeypatch.setattr(verify_module, "VIOLATION_TOL", -np.inf)
        assert same_bits(replay_witness(witness), witness.gap)
        assert calls == [name]

    def test_a_crb_replay_builds_no_distribution_and_calls_no_single_case_check(self, monkeypatch, any_gap, witnesses):
        import fishergeo.models as models_module
        import fishergeo.simplex as simplex_module

        def forbidden(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(models_module, "crb_check", forbidden)
        monkeypatch.setattr(simplex_module.Distribution, "__post_init__", forbidden)
        witness = witnesses["crb"]
        assert same_bits(replay_witness(witness), witness.gap)

    @pytest.mark.parametrize("kind, spoil, field", [
        ("cross_dimension", {"m": 0}, "m"),
        ("bilinearity", {"detail": "seed=x"}, "detail"),
        ("continuity", {"detail": ""}, "detail"),
        ("rational_point", {"detail": "D=1e3"}, "detail"),
        ("crb", {"point": None}, "point"),
        # cases that no longer violate: the gap is gone
        ("prop6_identity", {"family": "COV"}, "gap"),
        ("uniform_shape", {"family": "COV"}, "gap"),
        ("cross_dimension", {"family": "COV"}, "gap"),
        ("rational_point", {"family": "COV"}, "gap"),
        # a family that fails the uniform step first: its case gives a uniform_shape witness
        ("cross_dimension", {"family": "skewed"}, "gap"),
    ])
    def test_a_malformed_or_stale_witness_raises_invalid_parameter(self, plugin_names, witnesses, kind, spoil,
                                                                    field):
        """The first nine once escaped as a ZeroDivisionError, ValueError,
        TypeError or AttributeError, and the last replayed to the gap of
        another kind; now each names its kind and its field."""
        with pytest.MonkeyPatch.context() as patch:  # the crb witness holds a gap at rounding level
            patch.setattr(verify_module, "VIOLATION_TOL", -np.inf)
            spoiled = dataclasses.replace(witnesses[kind], **spoil)
        with pytest.raises(InvalidParameter) as raised:
            replay_witness(spoiled)
        assert kind in str(raised.value) and field in str(raised.value)


class TestBatteries:
    def test_monotonicity_metric_battery(self):
        report = battery_monotonicity_metric(trials=120, n_max=6, seed=9)
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_monotonicity_cometric_battery(self):
        report = battery_monotonicity_cometric(trials=120, n_max=6, seed=10)
        assert report.passed

    def test_crb_battery(self):
        report = battery_crb(trials=60, n_max=4, seed=12)
        assert report.passed
        assert report.extras["min_scaled_eigenvalue"] >= -1e-8

    def test_weak_invariance_battery(self):
        report = battery_weak_invariance(n_max=3, seed=13, grid_count=2)
        assert report.passed

    def test_weak_invariance_control_detects_mismatch(self):
        report = battery_weak_invariance(
            n_max=3, seed=13, grid_count=2, mismatched=True
        )
        assert report.extras["mismatch_detected"]
        assert report.max_residual > 1e-3

    def test_run_battery_dispatch(self):
        report = run_battery(
            {"battery": "characterize", "family": "COV", "n_max": 4,
             "denominator_bound": 16, "trials": 2, "seed": 0}
        )
        assert report.passed
        payload = report.to_json()
        assert payload["characterize"]["verdict"] == "c*Cov with c=1"

    def test_run_battery_unknown_name(self):
        with pytest.raises(InvalidParameter):
            run_battery({"battery": "nope"})

    def test_run_battery_requires_family_for_characterize(self):
        with pytest.raises(InvalidParameter):
            run_battery({"battery": "characterize"})

    @pytest.mark.parametrize("trials", [0, -3])
    def test_characterize_needs_a_rational_point(self, trials):
        """With no trial the rational-point step would check no point and pass."""
        with pytest.raises(InvalidParameter, match="trials >= 1"):
            characterize("COV", trials=trials)

    @pytest.mark.parametrize("n_max, bound", [(3, 2), (6, 5)])
    def test_characterize_needs_a_denominator_for_every_size(self, n_max, bound):
        """A point on n outcomes with weights k/D > 0 needs D >= n; a smaller
        bound used to fail inside the draw with a bare ValueError."""
        with pytest.raises(InvalidParameter, match="denominator_bound >= n_max"):
            characterize("COV", n_max=n_max, denominator_bound=bound)
        with pytest.raises(InvalidParameter, match="denominator_bound >= n_max"):
            run_battery({"battery": "characterize", "family": "COV", "n_max": n_max,
                         "denominator_bound": bound})
