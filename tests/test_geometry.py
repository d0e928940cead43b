from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeo.errors import BasePointMismatch, FisherGeoError, InvalidParameter, NotCentered, NotSumZero
from fishergeo.geometry import (
    CotangentVector,
    TangentVector,
    delta,
    delta_rows,
    e_rep,
    fisher_cometric,
    fisher_metric,
    fisher_metric_rows,
    flat,
    flat_rows,
    from_e_rep,
    norm_cotangent,
    norm_tangent,
    pair,
    require_rows_sum_zero,
    sharp,
)
from fishergeo.simplex import (
    Distribution,
    RandomVariable,
    SampleSpace,
    cov_matrix,
    new_distribution,
    sample_interior,
)


def dist(*weights: float):
    return new_distribution(SampleSpace(len(weights)), np.array(weights))


def rv(*values: float) -> RandomVariable:
    return RandomVariable(SampleSpace(len(values)), np.array(values))


def random_tangent(p, seed: int) -> TangentVector:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=p.space.size)
    return TangentVector(p, m - m.mean())


def random_cotangent(p, seed: int) -> CotangentVector:
    rng = np.random.default_rng(seed)
    return delta(p, RandomVariable(p.space, rng.normal(size=p.space.size)))


class TestTypes:
    def test_tangent_must_sum_to_zero(self):
        with pytest.raises(NotSumZero):
            TangentVector(dist(0.5, 0.5), np.array([1.0, -0.5]))

    def test_cotangent_must_be_centered(self):
        with pytest.raises(NotCentered):
            CotangentVector(dist(0.5, 0.5), rv(1, 0))

    @pytest.mark.parametrize(
        "values",
        [[np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0], [-np.inf, np.inf, 0.0], [np.inf, 0.0, 0.0]],
    )
    def test_non_finite_tangent_rejected(self, values):
        with pytest.raises(NotSumZero):
            TangentVector(dist(0.25, 0.25, 0.5), np.array(values))

    @pytest.mark.parametrize(
        "values",
        [[np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0], [-np.inf, 0.0, 0.0]],
    )
    def test_non_finite_cotangent_rejected(self, values):
        """The representative is refused when it is built as a random variable."""
        p = dist(0.25, 0.25, 0.5)
        with pytest.raises(InvalidParameter):
            CotangentVector(p, rv(*values))
        with pytest.raises(InvalidParameter):
            from_e_rep(p, rv(*values))
        with pytest.raises(InvalidParameter):
            delta(p, rv(*values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e-3])
    def test_row_check_names_first_bad_row(self, bad):
        rows = np.array([[1.0, -1.0, 0.0], [0.5, bad, -0.5], [bad, 0.0, 0.0]])
        with pytest.raises(NotSumZero, match=repr(float(bad))):
            require_rows_sum_zero(rows)
        require_rows_sum_zero(rows[:1])

    def test_delta_space_mismatch(self):
        from fishergeo.errors import SizeMismatch

        with pytest.raises(SizeMismatch):
            delta(dist(0.5, 0.5), rv(1, 0, 0))

    def test_metric_base_point_mismatch(self):
        x = TangentVector(dist(0.5, 0.5), np.array([1.0, -1.0]))
        y = TangentVector(dist(0.25, 0.75), np.array([1.0, -1.0]))
        with pytest.raises(BasePointMismatch):
            fisher_metric(x, y)


class TestDelta:
    def test_centering_at_uniform(self):
        a = delta(dist(0.5, 0.5), rv(1, 0))
        assert np.array_equal(a.rep.values, [0.5, -0.5])

    def test_constant_maps_to_zero(self):
        a = delta(dist(0.3, 0.7), rv(5, 5))
        assert np.allclose(a.rep.values, 0, atol=1e-15)

    def test_centering_skewed(self):
        a = delta(dist(0.25, 0.75), rv(1, 0))
        assert np.array_equal(a.rep.values, [0.75, -0.25])

    def test_kernel_is_exactly_constants(self):
        # delta(p, A) = 0 iff A is constant; every cotangent vector is hit.
        p = dist(0.25, 0.25, 0.5)
        a = delta(p, rv(2, 2, 2))
        assert np.allclose(a.rep.values, 0, atol=1e-15)
        target = random_cotangent(p, 11)
        again = delta(p, target.rep)
        assert np.allclose(again.rep.values, target.rep.values, atol=1e-15)

    def test_representative_choice_is_irrelevant(self):
        p = dist(0.25, 0.25, 0.5)
        a = delta(p, rv(1, -2, 0.5))
        b = delta(p, rv(1 + 3.25, -2 + 3.25, 0.5 + 3.25))
        assert np.allclose(a.rep.values, b.rep.values, atol=1e-12)


def error_of(run) -> tuple[type, str] | None:
    try:
        run()
    except FisherGeoError as exc:
        return type(exc), str(exc)
    return None


def plant(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A row that fails a check of ``delta`` or ``flat``, or comes close."""
    row = np.zeros(n)
    if kind == "non_finite":
        # centering overflows for delta, every score overflows for flat
        row[:2] = 1.7e308, -1.7e308
    elif kind == "off_centre":
        # rounding leaves the representative's mean far above CENTERING_TOL
        row[:2] = 1e9, -1e9
        row *= 1e3 ** rng.integers(0, 3)
    else:
        row[:] = rng.normal(size=n) + 1.0  # an m-rep that does not sum to 0
    return row


class TestRowsForms:
    """``delta_rows`` and ``flat_rows`` on (T, r, n) stacks raise what the
    first bad row, in C order, raises alone through ``delta`` or ``flat``."""

    @settings(max_examples=200, deadline=None)
    @given(
        function=st.sampled_from(["delta", "flat"]),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(2, 5)),
        seed=st.integers(0, 2**32 - 1),
        bad=st.lists(
            st.tuples(st.integers(0, 59), st.sampled_from(["non_finite", "off_centre", "sum"])),
            max_size=3,
        ),
    )
    def test_first_bad_row_in_c_order(self, function, shape, seed, bad):
        trials, r, n = shape
        rng = np.random.default_rng(seed)
        w = 0.01 + (1.0 - 0.01 * n) * rng.dirichlet(np.ones(n), size=trials)
        rows = rng.normal(size=shape)
        rows -= rows.mean(axis=-1, keepdims=True)
        for index, kind in bad:
            rows.reshape(-1, n)[index % (trials * r)] = plant(kind, n, rng)
        space = SampleSpace(n)
        if function == "delta":
            one, stacked = (lambda p, row: delta(p, RandomVariable(space, row))), delta_rows
        else:
            one, stacked = (lambda p, row: flat(TangentVector(p, row))), flat_rows
        expected = None
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(trials):
                p = Distribution(space, w[t])
                for i in range(r):
                    expected = expected or error_of(lambda: one(p, rows[t, i]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert error_of(lambda: stacked(w, rows)) == expected
        if expected is None:
            reps = stacked(w, rows)
            for t in range(trials):
                for i in range(r):
                    alone = one(Distribution(space, w[t]), rows[t, i]).rep.values
                    assert reps[t, i].tobytes() == alone.tobytes()


class TestPairing:
    def test_indicator_pairing(self):
        p = dist(0.5, 0.5)
        x = TangentVector(p, np.array([1.0, -1.0]))
        a = delta(p, rv(1, 0))
        assert pair(a, x) == 1.0

    def test_zero_covector(self):
        p = dist(0.5, 0.5)
        x = random_tangent(p, 3)
        zero = delta(p, rv(7, 7))
        assert pair(zero, x) == pytest.approx(0, abs=1e-15)

    def test_three_point(self):
        p = dist(0.25, 0.25, 0.5)
        x = TangentVector(p, np.array([1.0, 0.0, -1.0]))
        a = delta(p, rv(1, 1, 0))
        assert pair(a, x) == pytest.approx(1.0, abs=1e-15)

    def test_base_point_mismatch(self):
        x = TangentVector(dist(0.5, 0.5), np.array([1.0, -1.0]))
        a = delta(dist(0.25, 0.75), rv(1, 0))
        with pytest.raises(BasePointMismatch):
            pair(a, x)


class TestERep:
    def test_uniform(self):
        x = TangentVector(dist(0.5, 0.5), np.array([1.0, -1.0]))
        assert np.array_equal(e_rep(x).values, [2.0, -2.0])

    def test_zero(self):
        x = TangentVector(dist(0.25, 0.75), np.zeros(2))
        assert np.array_equal(e_rep(x).values, [0.0, 0.0])

    def test_skewed(self):
        x = TangentVector(dist(0.25, 0.75), np.array([0.25, -0.25]))
        assert np.allclose(e_rep(x).values, [1.0, -1.0 / 3.0], atol=1e-15)

    def test_score_is_centered(self):
        p = dist(0.2, 0.3, 0.5)
        x = random_tangent(p, 5)
        ell = e_rep(x)
        assert abs(np.dot(p.weights, ell.values)) < 1e-12

    def test_from_e_rep_roundtrip(self):
        p = dist(0.5, 0.5)
        x = from_e_rep(p, rv(2, -2))
        assert np.array_equal(x.m_rep, [1.0, -1.0])

    def test_from_e_rep_zero(self):
        x = from_e_rep(dist(0.3, 0.7), rv(0, 0))
        assert np.array_equal(x.m_rep, [0.0, 0.0])

    def test_from_e_rep_requires_centering(self):
        with pytest.raises(NotCentered):
            from_e_rep(dist(0.5, 0.5), rv(1, 1))


class TestMetricAndCometric:
    def test_metric_uniform(self):
        p = dist(0.5, 0.5)
        x = TangentVector(p, np.array([1.0, -1.0]))
        assert fisher_metric(x, x) == 4.0

    def test_metric_zero(self):
        p = dist(0.25, 0.75)
        assert fisher_metric(TangentVector(p, np.zeros(2)), random_tangent(p, 1)) == 0.0

    def test_metric_skewed(self):
        # (1/4)*1 + (3/4)*(1/9) = 1/3
        p = dist(0.25, 0.75)
        x = TangentVector(p, np.array([0.25, -0.25]))
        assert fisher_metric(x, x) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_cometric_is_covariance(self):
        p = dist(0.5, 0.5)
        a = delta(p, rv(1, 0))
        b = delta(p, rv(0, 1))
        assert fisher_cometric(a, b) == -0.25

    def test_cometric_variance(self):
        p = dist(0.5, 0.5)
        a = delta(p, rv(1, 0))
        assert fisher_cometric(a, a) == 0.25

    def test_cometric_zero_from_constant(self):
        p = dist(0.25, 0.25, 0.5)
        a = random_cotangent(p, 2)
        z = delta(p, rv(3, 3, 3))
        assert fisher_cometric(a, z) == pytest.approx(0, abs=1e-15)


class TestMusical:
    def test_flat_then_sharp_roundtrip(self):
        p = dist(0.5, 0.5)
        x = TangentVector(p, np.array([1.0, -1.0]))
        a = flat(x)
        assert np.array_equal(a.rep.values, [2.0, -2.0])
        back = sharp(a)
        assert np.allclose(back.m_rep, x.m_rep, atol=1e-15)

    def test_zero_maps_to_zero(self):
        p = dist(0.2, 0.8)
        assert np.array_equal(flat(TangentVector(p, np.zeros(2))).rep.values, [0.0, 0.0])

    def test_sharp_componentwise(self):
        p = dist(0.5, 0.5)
        a = CotangentVector(p, rv(0.5, -0.5))
        assert np.array_equal(sharp(a).m_rep, [0.25, -0.25])

    def test_flat_reproduces_metric(self):
        p = sample_interior(SampleSpace(5), seed=9)
        x = random_tangent(p, 10)
        y = random_tangent(p, 11)
        assert pair(flat(x), y) == pytest.approx(fisher_metric(x, y), rel=1e-12)

    def test_two_metric_routes_agree(self):
        p = sample_interior(SampleSpace(6), seed=12)
        x = random_tangent(p, 13)
        y = random_tangent(p, 14)
        via_cometric = fisher_cometric(flat(x), flat(y))
        assert via_cometric == pytest.approx(fisher_metric(x, y), rel=1e-9)


class TestNorms:
    def test_cotangent_norm(self):
        p = dist(0.5, 0.5)
        assert norm_cotangent(delta(p, rv(1, 0))) == 0.5

    def test_zero_norms(self):
        p = dist(0.3, 0.7)
        assert norm_tangent(TangentVector(p, np.zeros(2))) == 0.0

    def test_tangent_norm(self):
        p = dist(0.5, 0.5)
        assert norm_tangent(TangentVector(p, np.array([1.0, -1.0]))) == 2.0

    def test_duality_inequality_and_equality_case(self):
        # |alpha(X)| <= |alpha| |X|, equality when X = sharp(alpha).
        for seed in range(8):
            p = sample_interior(SampleSpace(4), seed=seed + 100)
            a = random_cotangent(p, seed)
            x = random_tangent(p, seed + 50)
            assert abs(pair(a, x)) <= norm_cotangent(a) * norm_tangent(x) + 1e-12
            xo = sharp(a)
            assert abs(pair(a, xo)) == pytest.approx(
                norm_cotangent(a) * norm_tangent(xo), rel=1e-10
            )


class TestCoordinateDuality:
    def test_gram_matrices_are_mutual_inverses(self):
        # Coordinates xi^i = p(i): tangent basis e_i - e_n, differentials
        # delta(e_i). The two Gram matrices must be inverse to each other.
        for n in (2, 3, 4, 5, 6):
            p = sample_interior(SampleSpace(n), seed=40 + n)
            basis = np.zeros((n - 1, n))
            basis[:, :-1] = np.eye(n - 1)
            basis[:, -1] = -1.0
            covecs = [delta(p, RandomVariable(p.space, row)) for row in np.eye(n)[:-1]]
            g = fisher_metric_rows(p, basis, basis)
            c = cov_matrix(p, [alpha.rep for alpha in covecs])
            assert np.max(np.abs(g @ c - np.eye(n - 1))) < 1e-8
