from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fishergeo.errors import (
    FisherGeoError,
    InvalidParameter,
    NotLocallyUnbiased,
    RankDeficient,
    SizeMismatch,
)
from fishergeo.geometry import (
    TangentVector,
    delta,
    e_rep,
    fisher_cometric,
    fisher_metric_rows,
    norm_cotangent,
)
from fishergeo.models import (
    affine_model,
    bernoulli_model,
    categorical_model,
    crb_check,
    exponential_family_model,
    FisherMatrix,
    fisher_info,
    jacobian_at,
    lifts,
    ParametricModel,
    restrict,
)
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace


def line_model():
    """p_xi = (xi, xi, 1 - 2 xi)."""
    return affine_model(np.array([0.0, 0.0, 1.0]), np.array([[1.0, 1.0, -2.0]]))


def rv(*values: float) -> RandomVariable:
    return RandomVariable(SampleSpace(len(values)), np.array(values))


def scores(model, xi) -> list[RandomVariable]:
    """d log p_xi / d xi_i: the e-representations of the Jacobian rows."""
    p = model.point(xi)
    return [e_rep(TangentVector(p, row)) for row in jacobian_at(model, xi)]


def fd_fisher_oracle(model, xi, h: float = 1e-6) -> np.ndarray:
    """Independent oracle: G from finite differences of log p."""
    xi = np.asarray(xi, dtype=float)
    p = model.point(xi).weights
    dlog = np.empty((model.dim, p.shape[0]))
    for i in range(model.dim):
        up, down = xi.copy(), xi.copy()
        up[i] += h
        down[i] -= h
        dlog[i] = (np.log(model.point(up).weights) - np.log(model.point(down).weights)) / (2 * h)
    return (dlog * p) @ dlog.T


class TestBases:
    def test_bernoulli_tangent_basis(self):
        basis = jacobian_at(bernoulli_model(), [0.5])
        assert len(basis) == 1
        assert np.allclose(basis[0], [1.0, -1.0], atol=1e-12)

    def test_line_model_tangent_basis(self):
        basis = jacobian_at(line_model(), [0.25])
        assert np.allclose(basis[0], [1.0, 1.0, -2.0], atol=1e-12)

    def test_basis_vectors_sum_to_zero(self):
        for model, xi in [
            (categorical_model(4), [0.2, 0.3, 0.1]),
            (exponential_family_model(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])), [0.3, -0.2]),
        ]:
            p = model.point(xi)
            for row in jacobian_at(model, xi):
                assert abs(float(np.sum(TangentVector(p, row).m_rep))) < 1e-12

    def test_bernoulli_score(self):
        ell = scores(bernoulli_model(), [0.5])
        assert np.allclose(ell[0].values, [2.0, -2.0], atol=1e-12)

    def test_line_model_score(self):
        ell = scores(line_model(), [0.25])
        assert np.allclose(ell[0].values, [4.0, 4.0, -4.0], atol=1e-12)

    def test_scores_are_centered(self):
        model = categorical_model(3)
        xi = np.array([0.2, 0.5])
        p = model.point(xi)
        for ell in scores(model, xi):
            assert abs(float(np.dot(p.weights, ell.values))) < 1e-12

    def test_finite_difference_jacobian_matches_analytic(self):
        analytic = categorical_model(3)
        blind = type(analytic)(
            analytic.space, analytic.dim, analytic.point_map, None, "fd"
        )
        xi = np.array([0.3, 0.45])
        assert np.allclose(
            jacobian_at(blind, xi), jacobian_at(analytic, xi), atol=1e-9
        )

    def test_rank_deficient_rejected(self):
        degenerate = affine_model(
            np.array([0.2, 0.3, 0.5]),
            np.array([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]]),
        )
        with pytest.raises(RankDeficient):
            jacobian_at(degenerate, [0.01, 0.01])

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameter):
            bernoulli_model().point([1.2])


class TestFisherInfo:
    def test_bernoulli_closed_form(self):
        g = fisher_info(bernoulli_model(), [0.5]).matrix
        assert np.allclose(g, [[4.0]], atol=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.7])
    def test_bernoulli_against_fd_oracle(self, theta):
        model = bernoulli_model()
        g = fisher_info(model, [theta]).matrix
        assert np.allclose(g, [[1.0 / (theta * (1.0 - theta))]], rtol=1e-12)
        assert np.allclose(g, fd_fisher_oracle(model, [theta]), rtol=1e-6)

    def test_categorical_uniform(self):
        g = fisher_info(categorical_model(3), [1 / 3, 1 / 3]).matrix
        assert np.allclose(g, [[6.0, 3.0], [3.0, 6.0]], atol=1e-12)

    def test_line_model(self):
        g = fisher_info(line_model(), [0.25]).matrix
        assert np.allclose(g, [[16.0]], atol=1e-12)

    def test_expfam_against_fd_oracle(self):
        stats = np.array([[1.0, 0.0, 0.0, 2.0], [0.0, 1.0, -1.0, 0.5]])
        model = exponential_family_model(stats)
        xi = np.array([0.4, -0.7])
        assert np.allclose(
            fisher_info(model, xi).matrix, fd_fisher_oracle(model, xi), rtol=1e-6
        )

    def test_matches_gram_of_tangent_basis(self):
        model = categorical_model(4)
        xi = np.array([0.15, 0.35, 0.2])
        g = fisher_info(model, xi).matrix
        jac = jacobian_at(model, xi)
        gram = fisher_metric_rows(model.point(xi), jac, jac)
        assert np.allclose(g, gram, rtol=1e-9)

    def test_cometric_matrix_bernoulli(self):
        assert np.allclose(fisher_info(bernoulli_model(), [0.5]).inverse(), [[0.25]], atol=1e-12)

    def test_cometric_matrix_line(self):
        assert np.allclose(fisher_info(line_model(), [0.25]).inverse(), [[1.0 / 16.0]], atol=1e-14)

    def test_product_is_identity(self):
        model = categorical_model(5)
        xi = np.array([0.1, 0.2, 0.25, 0.15])
        info = fisher_info(model, xi)
        assert np.max(np.abs(info.matrix @ info.inverse() - np.eye(4))) < 1e-8


class TestRestrictAndLift:
    def test_restrict_line_model(self):
        model = line_model()
        p = model.point([0.25])
        assert np.allclose(restrict(model, [0.25], delta(p, rv(1, 0, 0))), [1.0], atol=1e-12)
        assert np.allclose(
            restrict(model, [0.25], delta(p, rv(0.5, 0.5, 0))), [1.0], atol=1e-12
        )

    def test_restrict_zero(self):
        model = line_model()
        p = model.point([0.25])
        assert np.allclose(restrict(model, [0.25], delta(p, rv(3, 3, 3))), [0.0], atol=1e-12)

    def test_lift_norm_line_model(self):
        alpha = lifts(line_model(), [0.25], [[1.0]])[0]
        assert norm_cotangent(alpha) ** 2 == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_lift_zero(self):
        alpha = lifts(line_model(), [0.25], [[0.0]])[0]
        assert np.allclose(alpha.rep.values, 0.0, atol=1e-15)

    def test_lift_bernoulli_is_indicator_class(self):
        alpha = lifts(bernoulli_model(), [0.5], [[1.0]])[0]
        assert np.allclose(alpha.rep.values, [0.5, -0.5], atol=1e-12)

    def test_restrict_after_lift_is_identity(self):
        model = categorical_model(4)
        xi = np.array([0.3, 0.25, 0.2])
        coeffs = np.array([0.7, -1.3, 0.4])
        assert np.allclose(
            restrict(model, xi, lifts(model, xi, [coeffs])[0]), coeffs, atol=1e-10
        )

    def test_lift_is_minimum_norm(self):
        # Any other ambient extension (lift + delta of a restriction-kernel
        # element) has a strictly larger co-norm.
        model = line_model()
        xi = [0.25]
        p = model.point(xi)
        jac = jacobian_at(model, xi)
        lifted = lifts(model, xi, [[1.0]])[0]
        base_norm = norm_cotangent(lifted)
        rng = np.random.default_rng(5)
        for _ in range(25):
            z = rng.normal(size=3)
            # project z onto the kernel of the restriction (plain dot with rows)
            z -= jac.T @ np.linalg.lstsq(jac.T, z, rcond=None)[0]
            if np.max(np.abs(z)) < 1e-12:
                continue
            other = delta(p, RandomVariable(p.space, lifted.rep.values + z))
            assert np.allclose(restrict(model, xi, other), [1.0], atol=1e-9)
            assert norm_cotangent(other) >= base_norm - 1e-12

    def test_lift_pairs_through_inverse_information(self):
        # g_M(alpha, beta) via G^{-1} equals the ambient co-metric of lifts.
        model = categorical_model(3)
        xi = np.array([0.25, 0.4])
        g_inv = fisher_info(model, xi).inverse()
        a = np.array([1.0, 0.0])
        b = np.array([0.3, -0.8])
        ambient = fisher_cometric(*lifts(model, xi, [a, b]))
        assert ambient == pytest.approx(float(a @ g_inv @ b), rel=1e-9)


class TestCrb:
    def test_bernoulli_equality(self):
        report = crb_check(bernoulli_model(), [0.25], [rv(1, 0)])
        assert report.equality and report.verdict == "psd"
        assert np.allclose(report.covariance, [[3.0 / 16.0]], atol=1e-14)
        assert np.allclose(report.inverse_information, [[3.0 / 16.0]], rtol=1e-12)

    def test_line_model_equality(self):
        report = crb_check(line_model(), [0.25], [rv(0.5, 0.5, 0)])
        assert report.equality
        assert np.allclose(report.covariance, [[1.0 / 16.0]], atol=1e-14)

    def test_line_model_strict_gap(self):
        report = crb_check(line_model(), [0.25], [rv(1, 0, 0)])
        assert report.verdict == "psd" and not report.equality
        assert report.min_eigenvalue == pytest.approx(1.0 / 8.0, rel=1e-12)
        assert np.allclose(report.covariance, [[3.0 / 16.0]], atol=1e-14)

    def test_not_locally_unbiased(self):
        with pytest.raises(NotLocallyUnbiased):
            crb_check(line_model(), [0.25], [rv(1, 1, 0)])

    def test_global_mode_passes_for_expectation_estimator(self):
        report = crb_check(
            line_model(),
            [0.25],
            [rv(0.5, 0.5, 0)],
            mode="global",
            box=[(0.1, 0.4)],
        )
        assert report.passed

    def test_global_mode_detects_bias(self):
        with pytest.raises(NotLocallyUnbiased):
            crb_check(
                bernoulli_model(),
                [0.5],
                [rv(1.1, 0.1)],
                mode="global",
                box=[(0.2, 0.8)],
            )

    def test_global_mode_requires_box(self):
        with pytest.raises(InvalidParameter):
            crb_check(line_model(), [0.25], [rv(0.5, 0.5, 0)], mode="global")

    def test_categorical_efficient_estimators_on_grid(self):
        # Expectation coordinates of an exponential family: indicators are
        # globally efficient, so equality holds at every grid point.
        model = categorical_model(3)
        estimators = [rv(1, 0, 0), rv(0, 1, 0)]
        for xi in ([0.2, 0.3], [0.3, 0.5], [1 / 3, 1 / 3], [0.45, 0.15]):
            report = crb_check(
                model, xi, estimators, mode="global", box=[(0.15, 0.45), (0.15, 0.45)]
            )
            assert report.equality, xi

    def test_efficient_lift_family_is_parallel(self):
        # The minimum-norm lifts of d xi^i along the categorical family all
        # share one representative class: the flat extension exists, which is
        # the geometric face of global efficiency.
        model = categorical_model(3)
        reps = []
        for xi in ([0.2, 0.3], [0.35, 0.4], [0.25, 0.6]):
            alpha = lifts(model, xi, [[1.0, 0.0]])[0]
            p = model.point(xi)
            reps.append(alpha.rep.values + np.dot(p.weights, [1, 0, 0]))
        for other in reps[1:]:
            assert np.allclose(other, reps[0], atol=1e-9)

    def test_wrong_estimator_count(self):
        with pytest.raises(SizeMismatch):
            crb_check(categorical_model(3), [0.3, 0.3], [rv(1, 0, 0)])

    # A biased tuple would raise NotLocallyUnbiased if the point were evaluated.
    BIASED = [rv(1, 2, 3), rv(2, 4, 6)]

    def test_unknown_mode_is_rejected_before_evaluation(self):
        with pytest.raises(InvalidParameter, match="mode must be 'local' or 'global', got 'bogus'"):
            crb_check(categorical_model(3), [0.3, 0.3], self.BIASED, mode="bogus")

    def test_global_mode_without_box_is_rejected_before_evaluation(self):
        with pytest.raises(InvalidParameter, match="global mode needs an explicit parameter box"):
            crb_check(categorical_model(3), [0.3, 0.3], self.BIASED, mode="global")

    @pytest.mark.parametrize("box, message", [
        ([], "box needs one (lo, hi) per parameter: 2, got 0"),
        ([(0.1, 0.4)], "box needs one (lo, hi) per parameter: 2, got 1"),
        ([(0.1, 0.4), (0.4, 0.1)], "box axis 2 is not a finite (lo, hi) with lo <= hi: (0.4, 0.1)"),
        ([(0.1, np.inf), (0.1, 0.4)], "box axis 1 is not a finite (lo, hi) with lo <= hi: (0.1, inf)"),
        ([(0.1, 0.4), (np.nan, 0.4)], "box axis 2 is not a finite (lo, hi) with lo <= hi: (nan, 0.4)"),
        ([(0.1, 0.4), (0.1,)], "box axis 2 is not a finite (lo, hi) with lo <= hi: (0.1,)"),
    ], ids=["empty", "one-axis", "reversed", "infinite", "nan", "short-axis"])
    def test_bad_box_is_rejected_before_evaluation(self, box, message):
        """A global-mode box needs one finite (lo, hi) with lo <= hi per
        parameter; a reversed axis used to pass as "psd"."""
        with pytest.raises(InvalidParameter) as raised:
            crb_check(categorical_model(3), [0.3, 0.3], self.BIASED, mode="global", box=box)
        assert str(raised.value) == message


class TestLifts:
    def test_lift_is_lifts_of_one_row(self):
        """Each row's lift is the same float whether it is lifted alone or with others."""
        model = exponential_family_model(np.array([[1.0, 0.0, -1.0, 2.0], [0.0, 1.0, 1.0, -1.0]]))
        xi = [0.2, -0.4]
        rows = [[1.0, 0.0], [0.3, -2.0], [0.0, 0.0]]
        for row, alpha in zip(rows, lifts(model, xi, rows)):
            assert alpha.rep.values.tobytes() == lifts(model, xi, [row])[0].rep.values.tobytes()
            assert np.allclose(restrict(model, xi, alpha), row, atol=1e-10)

    def test_wrong_row_length(self):
        with pytest.raises(SizeMismatch):
            lifts(line_model(), [0.25], [[1.0], [1.0, 2.0]])


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
# Any float, including NaN, +-inf, subnormals and the extremes.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)


def fixed_jacobian_model(rows) -> ParametricModel:
    space = SampleSpace(3)
    p = Distribution(space, np.array([0.25, 0.25, 0.5]))
    return ParametricModel(space, 1, lambda xi: p, lambda xi: np.array(rows), "fixed")


class TestNonFinite:
    """Non-finite model parameters and Jacobians raise typed errors."""

    @pytest.mark.parametrize(
        "rows",
        [[[float("nan"), -1.0, 1.0]], [[float("inf"), -1.0, 1.0]],
         [[float("-inf"), 1.0, 0.0]], [[float("inf"), float("-inf"), 0.0]]],
    )
    def test_non_finite_jacobian_rejected(self, rows):
        model = fixed_jacobian_model(rows)
        for check in (jacobian_at, fisher_info):
            with pytest.raises(InvalidParameter, match="finite"):
                check(model, [0.1])
        with pytest.raises(InvalidParameter, match="finite"):
            crb_check(model, [0.1], [rv(4.0, 0.0, 0.0)])
        with pytest.raises(InvalidParameter, match="finite"):
            lifts(model, [0.1], [[1.0]])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_affine_anchor(self, bad):
        with pytest.raises(InvalidParameter, match="anchor"):
            affine_model([bad, 0.5, 0.5], [[1.0, -1.0, 0.0]])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_affine_directions(self, bad):
        with pytest.raises(InvalidParameter, match="directions"):
            affine_model([0.5, 0.5], [[bad, 0.0]])

    def test_affine_directions_nan_row(self):
        with pytest.raises(InvalidParameter, match="directions"):
            affine_model([0.5, 0.5], [[float("nan"), float("nan")]])
        with pytest.raises(InvalidParameter, match="directions"):
            affine_model([0.5, 0.5], [[float("inf"), float("-inf")]])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_expfam_stats(self, bad):
        with pytest.raises(InvalidParameter, match="stats"):
            exponential_family_model([[bad, 1.0, 0.0]])

    def test_information_matrix(self):
        with pytest.raises(InvalidParameter):
            FisherMatrix(np.array([[float("inf")]]), np.zeros(1))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,)])
    def test_information_matrix_shape(self, shape):
        with pytest.raises(SizeMismatch, match="square"):
            FisherMatrix(np.ones(shape), np.zeros(0))

    @settings(max_examples=300, deadline=None)
    @given(
        anchor=arrays(np.float64, st.integers(0, 5), elements=ANY_FLOAT),
        directions=arrays(
            np.float64, st.tuples(st.integers(0, 3), st.integers(0, 5)), elements=ANY_FLOAT
        ),
        valid=st.booleans(),
    )
    def test_affine_totality(self, anchor, directions, valid):
        if valid and anchor.size >= 2 and directions.shape[1] == anchor.size:
            # Close to the build path: a uniform anchor, centered directions
            # (NaN wherever a non-finite entry was drawn).
            anchor = np.full(anchor.size, 1.0 / anchor.size)
            directions = directions - directions.mean(axis=1, keepdims=True)
        assert_total(lambda: affine_model(anchor, directions))

    @settings(max_examples=300, deadline=None)
    @given(
        stats=arrays(
            np.float64,
            st.one_of(st.tuples(st.integers(0, 3), st.integers(0, 5)), st.tuples(st.integers(0, 5))),
            elements=ANY_FLOAT,
        )
    )
    def test_expfam_totality(self, stats):
        assert_total(lambda: exponential_family_model(stats))


def assert_total(build):
    """A float array builds a model or raises a FisherGeoError; a built model
    holds finite parameters, and evaluating it at xi = 0 again either works
    or raises a FisherGeoError."""
    try:
        model = build()
    except FisherGeoError:
        return
    xi = np.zeros(model.dim)
    try:
        g = fisher_info(model, xi).matrix
    except FisherGeoError:
        return
    assert np.all(np.isfinite(g))
