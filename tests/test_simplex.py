from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fishergeo.errors import (
    BadFloor,
    BadSize,
    FisherGeoError,
    InvalidParameter,
    NonPositiveWeight,
    NotNormalized,
    SizeMismatch,
)
from fishergeo.families import parse_family
from fishergeo.markov import random_surjection
from fishergeo.models import categorical_model
from fishergeo.simplex import (
    Distribution,
    RandomVariable,
    SampleSpace,
    cov,
    cov_matrix,
    expect,
    new_distribution,
    sample_interior,
    uniform,
    variance,
)


def rv(*values: float) -> RandomVariable:
    return RandomVariable(SampleSpace(len(values)), np.array(values))


def dist(*weights: float) -> Distribution:
    return new_distribution(SampleSpace(len(weights)), np.array(weights))


#: The weighted L2 inner product sum(p(w) * A(w) * B(w)), as a grammar family.
inner_l2 = parse_family("L2")


class TestConstruction:
    def test_uniform_pair(self):
        p = new_distribution(SampleSpace(2), [0.5, 0.5])
        assert np.array_equal(p.weights, [0.5, 0.5])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            new_distribution(SampleSpace(2), [0.5, 0.6])

    def test_valid_three_point(self):
        p = new_distribution(SampleSpace(3), [0.25, 0.25, 0.5])
        assert np.array_equal(p.weights, [0.25, 0.25, 0.5])

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            new_distribution(SampleSpace(2), [1.0, 0.0])

    def test_wrong_length(self):
        with pytest.raises(SizeMismatch):
            new_distribution(SampleSpace(3), [0.5, 0.5])

    @pytest.mark.parametrize(
        "weights, error",
        [
            ([np.nan, 0.5, 0.5], NonPositiveWeight),
            ([0.5, 0.5, np.nan], NonPositiveWeight),
            ([np.inf, 0.5, 0.5], NotNormalized),
            ([-np.inf, 0.5, 0.5], NonPositiveWeight),
        ],
    )
    def test_non_finite_rejected(self, weights, error):
        with pytest.raises(error):
            new_distribution(SampleSpace(3), weights)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([0.5, float("nan"), 0.5], "weight nan at index 2 is non-finite"),
            ([float("-inf"), 0.5, 0.5], "weight -inf at index 1 is non-finite"),
            ([0.6, float("inf"), -0.1], "weight inf at index 2 is non-finite"),
            ([0.6, 0.5, -0.1], "weight -0.1 at index 3 is at or below 1e-12"),
        ],
    )
    def test_bad_weight_message(self, weights, message):
        with pytest.raises(NonPositiveWeight) as info:
            new_distribution(SampleSpace(3), weights)
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(2, 5),
            elements=st.one_of(
                st.sampled_from([0.5, 0.25, 1.0, 0.0, np.nan, np.inf, -np.inf]), st.floats()
            ),
        )
    )
    def test_totality(self, weights):
        """Any float array builds a finite distribution or raises a FisherGeoError."""
        try:
            p = Distribution(SampleSpace(weights.shape[0]), weights)
        except FisherGeoError:
            return
        assert np.all(np.isfinite(p.weights))

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(2, 5),
            elements=st.one_of(st.sampled_from([0.0, 1.0, np.nan, np.inf, -np.inf]), st.floats()),
        )
    )
    def test_random_variable_totality(self, values):
        """Any float array builds a finite random variable with the same
        values, or raises InvalidParameter exactly when an entry is not finite."""
        try:
            a = RandomVariable(SampleSpace(values.shape[0]), values)
        except InvalidParameter:
            assert not np.all(np.isfinite(values))
            return
        assert np.array_equal(a.values, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_random_variable_rejects_non_finite(self, bad):
        with pytest.raises(InvalidParameter, match="must be finite"):
            rv(1.0, bad, 0.0)

    def test_weights_immutable(self):
        p = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            p.weights[0] = 0.9

    def test_value_equality_is_exact(self):
        assert dist(0.25, 0.75) == dist(0.25, 0.75)
        assert dist(0.25, 0.75) != dist(0.25 + 1e-13, 0.75 - 1e-13)


class TestSampleSpaceSize:
    """A size is any integer but a bool, stored as an int."""

    @pytest.mark.parametrize("size", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_integers_are_stored_as_int(self, size):
        space = SampleSpace(size)
        assert type(space.size) is int and space == SampleSpace(3)
        assert type(categorical_model(size).space.size) is int

    def test_numpy_sizes_draw_the_same_surjection(self):
        drawn = random_surjection(np.int64(5), np.int64(3), seed=0)
        assert drawn.map0 == random_surjection(5, 3, seed=0).map0
        assert (drawn.domain, drawn.codomain) == (SampleSpace(5), SampleSpace(3))

    @pytest.mark.parametrize("size", [True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None])
    def test_non_integers_are_rejected_as_such(self, size):
        with pytest.raises(BadSize, match="must be an integer"):
            SampleSpace(size)

    @pytest.mark.parametrize("size", [1, 0, -2, np.int64(1)])
    def test_small_sizes_are_rejected(self, size):
        with pytest.raises(BadSize, match=r"size >= 2, got -?\d+$"):
            SampleSpace(size)


class TestMoments:
    def test_expect_uniform_indicator(self):
        assert expect(dist(0.5, 0.5), rv(1, 0)) == 0.5

    def test_expect_skewed_indicator(self):
        # direct summation: 1/4 * 1 + 3/4 * 0
        assert expect(dist(0.25, 0.75), rv(1, 0)) == 0.25

    def test_expect_constant_is_value(self):
        p = dist(0.3, 0.7)
        c = rv(4.2, 4.2)
        assert expect(p, c) == pytest.approx(4.2, abs=1e-15)

    def test_inner_l2_disjoint_supports(self):
        assert inner_l2(dist(0.5, 0.5), rv(1, 0), rv(0, 1)) == 0.0

    def test_inner_l2_same_indicator(self):
        assert inner_l2(dist(0.5, 0.5), rv(1, 0), rv(1, 0)) == 0.5

    def test_inner_l2_three_point(self):
        # 1/4*1*1 + 1/4*1*2 + 1/2*0*3 = 0.75
        assert inner_l2(dist(0.25, 0.25, 0.5), rv(1, 1, 0), rv(1, 2, 3)) == 0.75

    def test_cov_uniform_cross_indicators(self):
        # 0 - (1/2)(1/2)
        assert cov(dist(0.5, 0.5), rv(1, 0), rv(0, 1)) == -0.25

    def test_cov_constant_argument_vanishes(self):
        p = dist(0.2, 0.3, 0.5)
        assert cov(p, rv(1.0, -2.0, 0.5), rv(3.0, 3.0, 3.0)) == pytest.approx(0, abs=1e-15)

    def test_cov_three_point(self):
        # 0.75 - 0.5 * 2.25
        assert cov(dist(0.25, 0.25, 0.5), rv(1, 1, 0), rv(1, 2, 3)) == -0.375

    def test_variance_uniform_indicator(self):
        assert variance(dist(0.5, 0.5), rv(1, 0)) == 0.25

    def test_variance_skewed_indicator(self):
        # p(1-p) = 3/16
        assert variance(dist(0.25, 0.75), rv(1, 0)) == 0.1875

    def test_variance_constant_is_zero(self):
        assert variance(dist(0.25, 0.75), rv(2, 2)) == pytest.approx(0, abs=1e-15)

    def test_space_mismatch(self):
        with pytest.raises(SizeMismatch):
            expect(dist(0.5, 0.5), rv(1, 0, 0))


@st.composite
def point_and_variables(draw, n_max: int = 6):
    n = draw(st.integers(2, n_max))
    raw = draw(
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n).filter(
            lambda xs: sum(xs) > 0.1
        )
    )
    w = np.array(raw)
    p = new_distribution(SampleSpace(n), w / w.sum())
    vals = st.lists(st.floats(-5, 5), min_size=n, max_size=n)
    a = RandomVariable(p.space, np.array(draw(vals)))
    b = RandomVariable(p.space, np.array(draw(vals)))
    return p, a, b


class TestProperties:
    @given(point_and_variables())
    @settings(max_examples=100, deadline=None)
    def test_cov_identity_and_symmetry(self, pab):
        p, a, b = pab
        lhs = cov(p, a, b)
        rhs = inner_l2(p, a, b) - expect(p, a) * expect(p, b)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert cov(p, b, a) == lhs

    @given(point_and_variables(), st.floats(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_cov_kills_constants(self, pab, c):
        p, a, b = pab
        shifted = RandomVariable(p.space, a.values + c)
        assert cov(p, shifted, b) == pytest.approx(cov(p, a, b), abs=1e-9)

    @given(point_and_variables())
    @settings(max_examples=100, deadline=None)
    def test_variance_nonnegative(self, pab):
        p, a, _ = pab
        assert variance(p, a) >= -1e-12

    def test_variance_zero_iff_constant(self):
        p = dist(0.2, 0.5, 0.3)
        assert variance(p, rv(1, 1, 1)) <= 1e-15
        assert variance(p, rv(1, 1, 1.001)) > 1e-8


class TestSampleInterior:
    def test_deterministic(self):
        s = SampleSpace(5)
        a = sample_interior(s, seed=7, floor=1e-6)
        b = sample_interior(s, seed=7, floor=1e-6)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seeds_differ(self):
        s = SampleSpace(4)
        a = sample_interior(s, seed=1)
        b = sample_interior(s, seed=2)
        assert not np.array_equal(a.weights, b.weights)

    def test_floor_respected(self):
        s = SampleSpace(6)
        floor = 0.05
        p = sample_interior(s, seed=3, floor=floor)
        assert np.all(p.weights >= floor)

    def test_bad_floor(self):
        with pytest.raises(BadFloor):
            sample_interior(SampleSpace(3), seed=0, floor=0.4)
        with pytest.raises(BadFloor):
            sample_interior(SampleSpace(3), seed=0, floor=0.0)

    def test_uniform_helper(self):
        u = uniform(SampleSpace(4))
        assert np.allclose(u.weights, 0.25)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


@st.composite
def point_and_rows(draw):
    """A point on 2..16 outcomes and 1..8 variables, each row scaled by 1e-5..1e5."""
    n = draw(st.integers(2, 16), label="n")
    k = draw(st.integers(1, 8), label="k")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    p = sample_interior(SampleSpace(n), seed=int(rng.integers(2**32)), floor=1e-3 / n)
    rows = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-5, 5, size=(k, 1))
    return p, [RandomVariable(p.space, row) for row in rows]


class TestCovMatrix:
    @given(point_and_rows())
    @settings(max_examples=300, deadline=None)
    def test_entries_are_cov_bitwise(self, case):
        """Every entry is the float of the ``cov`` call on its two variables."""
        p, variables = case
        expected = [[cov(p, a, b) for b in variables] for a in variables]
        assert hexes(cov_matrix(p, variables)) == hexes(expected)

    def test_closed_form(self):
        # Var = 3/16 for an indicator of weight 1/4; Cov of the two indicators = -3/16
        matrix = cov_matrix(dist(0.25, 0.75), [rv(1, 0), rv(0, 1)])
        assert matrix.tolist() == [[0.1875, -0.1875], [-0.1875, 0.1875]]

    def test_space_mismatch(self):
        with pytest.raises(SizeMismatch):
            cov_matrix(dist(0.5, 0.5), [rv(1, 0), rv(1, 0, 0)])

    def test_one_shot_iterable(self):
        """A generator is read once: its variables are both checked and paired."""
        p = dist(0.25, 0.75)
        variables = [rv(1, 0), rv(0, 1), rv(2, -1)]
        matrix = cov_matrix(p, (a for a in variables))
        assert hexes(matrix) == hexes(cov_matrix(p, variables))
        assert matrix.shape == (3, 3)
        with pytest.raises(SizeMismatch):
            cov_matrix(p, (a for a in [rv(1, 0), rv(1, 0, 0)]))

    def test_no_variables(self):
        assert cov_matrix(dist(0.5, 0.5), []).shape == (0, 0)
