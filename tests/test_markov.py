from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fishergeo.errors import (
    BadSize,
    BasePointMismatch,
    FisherGeoError,
    InvalidChannel,
    InvalidParameter,
    NotNormalized,
    NotSurjective,
    SizeMismatch,
)
from fishergeo.geometry import TangentVector, delta, pair
from fishergeo.markov import (
    Channel,
    EmbeddingPair,
    Surjection,
    apply,
    canonical_embedding,
    coembedding,
    conditional_expectation,
    pullback,
    pushforward,
    random_channel,
    random_surjection,
)
from fishergeo.simplex import (
    RandomVariable,
    SampleSpace,
    new_distribution,
    sample_interior,
)


def dist(*weights: float):
    return new_distribution(SampleSpace(len(weights)), np.array(weights))


def rv(*values: float) -> RandomVariable:
    return RandomVariable(SampleSpace(len(values)), np.array(values))


def identity_channel(n: int) -> Channel:
    return Channel(SampleSpace(n), SampleSpace(n), np.eye(n))


F112 = Surjection.from_one_based([1, 1, 2])
Q3 = dist(0.25, 0.25, 0.5)


#: Entries that make valid kernels likely, mixed with every kind of float.
ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf]), st.floats()
)


def _edited(rows, edits) -> np.ndarray:
    values = np.array(rows, dtype=float)
    for index, value in edits:
        values.flat[index] = value
    return values


class TestChannelValidation:
    @pytest.mark.parametrize(
        "bad, error", [(np.nan, InvalidChannel), (np.inf, NotNormalized), (-np.inf, InvalidChannel)]
    )
    def test_non_finite_entry_rejected(self, bad, error):
        kernel = np.array([[1.0, 0.5], [0.0, 0.5]])
        kernel[1, 1] = bad
        with pytest.raises(error):
            Channel(SampleSpace(2), SampleSpace(2), kernel)

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(2, 4), st.integers(2, 4)), elements=ENTRIES))
    def test_totality(self, kernel):
        """Any float kernel builds a finite channel or raises a FisherGeoError."""
        try:
            channel = Channel(SampleSpace(kernel.shape[1]), SampleSpace(kernel.shape[0]), kernel)
        except FisherGeoError:
            return
        assert np.all(np.isfinite(channel.kernel))

    def test_negative_entry(self):
        with pytest.raises(InvalidChannel):
            Channel(SampleSpace(2), SampleSpace(2), np.array([[1.1, 0.0], [-0.1, 1.0]]))

    def test_column_sums(self):
        with pytest.raises(NotNormalized):
            Channel(SampleSpace(2), SampleSpace(2), np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_surjectivity(self):
        with pytest.raises(NotSurjective):
            Channel(SampleSpace(2), SampleSpace(2), np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_shape(self):
        with pytest.raises(SizeMismatch):
            Channel(SampleSpace(3), SampleSpace(2), np.eye(2))


class TestSurjection:
    def test_must_be_surjective(self):
        with pytest.raises(NotSurjective):
            Surjection(SampleSpace(3), SampleSpace(3), (0, 0, 1))

    def test_one_based_roundtrip(self):
        f = Surjection.from_one_based([1, 1, 2])
        assert f.map0 == (0, 0, 1)
        assert f.domain.size == 3 and f.codomain.size == 2

    @pytest.mark.parametrize(
        "values, error, named",
        [
            ([], BadSize, "[]"),
            (["a"], InvalidParameter, "'a'"),
            ([float("nan"), 1], InvalidParameter, "nan"),
            ([1.5, 2], InvalidParameter, "1.5"),
            ([1, 2.9], InvalidParameter, "2.9"),
            ([True, 2], InvalidParameter, "True"),
        ],
        ids=["empty", "string", "nan", "fraction", "fraction_last", "bool"],
    )
    def test_one_based_values_are_integers(self, values, error, named):
        """A value that is not an integer (a bool included) or an empty list
        raises a typed error naming it, instead of a bare ValueError or a
        silently truncated map."""
        with pytest.raises(error, match=re.escape(named)):
            Surjection.from_one_based(values)

    def test_compose_variable(self):
        assert np.array_equal(F112.compose_variable(rv(5, 7)).values, [5.0, 5.0, 7.0])

    def test_marginalize(self):
        assert np.array_equal(F112.marginalize(Q3).weights, [0.5, 0.5])


class TestApply:
    def test_identity(self):
        p = dist(0.3, 0.7)
        assert np.array_equal(apply(identity_channel(2), p).weights, p.weights)

    def test_space_mismatch(self):
        with pytest.raises(SizeMismatch):
            apply(identity_channel(2), dist(0.2, 0.3, 0.5))
        with pytest.raises(SizeMismatch):
            conditional_expectation(coembedding(F112), rv(1, 2, 3))
        with pytest.raises(SizeMismatch):
            canonical_embedding(F112, dist(0.5, 0.5))

    def test_completely_mixing(self):
        w = Channel(SampleSpace(2), SampleSpace(2), np.full((2, 2), 0.5))
        assert np.array_equal(apply(w, dist(0.1, 0.9)).weights, [0.5, 0.5])

    def test_embedding_channel(self):
        pair_ = canonical_embedding(F112, Q3)
        out = apply(pair_.embedding_channel, dist(0.5, 0.5))
        assert np.allclose(out.weights, [0.25, 0.25, 0.5], atol=1e-15)

    def test_affinity(self):
        w = random_channel(4, 3, seed=2)
        p = sample_interior(SampleSpace(4), seed=3)
        q = sample_interior(SampleSpace(4), seed=4)
        for a in (0.0, 0.25, 0.8, 1.0):
            mix = new_distribution(SampleSpace(4), a * p.weights + (1 - a) * q.weights)
            lhs = apply(w, mix).weights
            rhs = a * apply(w, p).weights + (1 - a) * apply(w, q).weights
            assert np.allclose(lhs, rhs, atol=1e-14)

    def test_composition_is_matrix_product(self):
        w1 = random_channel(4, 3, seed=5)
        w2 = random_channel(3, 2, seed=6)
        composed = Channel(w1.in_space, w2.out_space, w2.kernel @ w1.kernel)
        p = sample_interior(SampleSpace(4), seed=7)
        assert np.allclose(
            apply(composed, p).weights, apply(w2, apply(w1, p)).weights, atol=1e-14
        )


class TestPushforward:
    def test_identity(self):
        p = dist(0.3, 0.7)
        x = TangentVector(p, np.array([0.2, -0.2]))
        assert np.array_equal(pushforward(identity_channel(2), p, x).m_rep, x.m_rep)

    def test_coarse_graining_kills_fiber_difference(self):
        psi = coembedding(F112)
        x = TangentVector(Q3, np.array([1.0, -1.0, 0.0]))
        assert np.array_equal(pushforward(psi, Q3, x).m_rep, [0.0, 0.0])

    def test_coarse_graining_block_sums(self):
        psi = coembedding(F112)
        x = TangentVector(Q3, np.array([1.0, 0.0, -1.0]))
        assert np.array_equal(pushforward(psi, Q3, x).m_rep, [1.0, -1.0])

    def test_composition(self):
        w1 = random_channel(4, 4, seed=8)
        w2 = random_channel(4, 2, seed=9)
        p = sample_interior(SampleSpace(4), seed=10)
        rng = np.random.default_rng(11)
        m = rng.normal(size=4)
        x = TangentVector(p, m - m.mean())
        via_two = pushforward(w2, apply(w1, p), pushforward(w1, p, x))
        composed = Channel(w1.in_space, w2.out_space, w2.kernel @ w1.kernel)
        direct = pushforward(composed, p, x)
        assert np.allclose(via_two.m_rep, direct.m_rep, atol=1e-14)

    def test_base_point_checked(self):
        w = identity_channel(2)
        x = TangentVector(dist(0.3, 0.7), np.array([0.1, -0.1]))
        with pytest.raises(BasePointMismatch):
            pushforward(w, dist(0.4, 0.6), x)


class TestConditionalExpectation:
    def test_deterministic_channel_composes(self):
        psi = coembedding(F112)
        assert np.array_equal(
            conditional_expectation(psi, rv(5, 7)).values, [5.0, 5.0, 7.0]
        )

    def test_completely_mixing_averages(self):
        w = Channel(SampleSpace(2), SampleSpace(2), np.full((2, 2), 0.5))
        assert np.array_equal(conditional_expectation(w, rv(1, 0)).values, [0.5, 0.5])

    def test_canonical_embedding_fiber_means(self):
        pair_ = canonical_embedding(F112, Q3)
        out = conditional_expectation(pair_.embedding_channel, rv(1, 2, 3))
        assert np.allclose(out.values, [1.5, 3.0], atol=1e-15)

    def test_fixes_constants(self):
        w = random_channel(5, 3, seed=12)
        out = conditional_expectation(w, RandomVariable(SampleSpace(3), np.full(3, 2.5)))
        assert np.allclose(out.values, 2.5, atol=1e-12)


class TestPullback:
    def test_identity_recenters_class(self):
        p = dist(0.3, 0.7)
        alpha = delta(p, rv(1, 0))
        back = pullback(identity_channel(2), p, alpha)
        assert np.allclose(back.rep.values, alpha.rep.values, atol=1e-15)

    def test_coembedding_pullback_composes_with_f(self):
        psi = coembedding(F112)
        q_f = apply(psi, Q3)
        alpha = delta(q_f, rv(1, 0))
        back = pullback(psi, Q3, alpha)
        assert np.allclose(back.rep.values, np.array([1.0, 1.0, 0.0]) - 0.5, atol=1e-15)

    def test_canonical_embedding_pullback(self):
        pair_ = canonical_embedding(F112, Q3)
        v = pair_.embedding_channel
        q_f = F112.marginalize(Q3)
        beta = delta(apply(v, q_f), rv(1, 2, 3))
        back = pullback(v, q_f, beta)
        expected = delta(q_f, rv(1.5, 3.0))
        assert np.allclose(back.rep.values, expected.rep.values, atol=1e-15)

    def test_transpose_identity(self):
        # pair(pullback(alpha), X) == pair(alpha, pushforward(X))
        w = random_channel(5, 3, seed=13)
        p = sample_interior(SampleSpace(5), seed=14)
        rng = np.random.default_rng(15)
        m = rng.normal(size=5)
        x = TangentVector(p, m - m.mean())
        alpha = delta(apply(w, p), RandomVariable(SampleSpace(3), rng.normal(size=3)))
        lhs = pair(pullback(w, p, alpha), x)
        rhs = pair(alpha, pushforward(w, p, x))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestEmbeddingPairs:
    def test_canonical_fibers(self):
        pair_ = canonical_embedding(F112, Q3)
        assert np.allclose(
            pair_.fiber_distributions, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], atol=1e-15
        )

    def test_embedding_recovers_q(self):
        pair_ = canonical_embedding(F112, Q3)
        embedded = apply(pair_.embedding_channel, F112.marginalize(Q3))
        assert np.allclose(embedded.weights, Q3.weights, atol=1e-15)

    def test_section_property(self):
        pair_ = canonical_embedding(F112, Q3)
        p = dist(0.3, 0.7)
        round_trip = apply(pair_.coembedding_channel, apply(pair_.embedding_channel, p))
        assert np.allclose(round_trip.weights, p.weights, atol=1e-15)

    def test_section_property_on_vectors_and_coefficients(self):
        f = random_surjection(6, 3, seed=16)
        q = sample_interior(SampleSpace(6), seed=17)
        pair_ = canonical_embedding(f, q)
        p = sample_interior(SampleSpace(3), seed=18)
        rng = np.random.default_rng(19)
        m = rng.normal(size=3)
        x = TangentVector(p, m - m.mean())
        up = pushforward(pair_.embedding_channel, p, x)
        down = pushforward(pair_.coembedding_channel, up.base, up)
        assert np.allclose(down.m_rep, x.m_rep, atol=1e-13)
        # cotangent side: pulling back through the embedding after the
        # co-embedding restores the class. Base points are compared exactly,
        # so the covector must live at the recomputed image point.
        p_img = apply(pair_.embedding_channel, p)
        p_round = apply(pair_.coembedding_channel, p_img)
        alpha = delta(p_round, RandomVariable(SampleSpace(3), rng.normal(size=3)))
        lifted = pullback(pair_.coembedding_channel, p_img, alpha)
        back = pullback(pair_.embedding_channel, p, lifted)
        assert np.allclose(back.rep.values, alpha.rep.values, atol=1e-13)

    @pytest.mark.parametrize(
        "rows, first_bad",
        [
            pytest.param([[0.5, 0.25, 0.25], [0.0, 0.0, 1.0]], 1, id="off_fiber_r1"),
            pytest.param([[0.5, 0.5, 0.0], [0.25, 0.0, 0.75]], 2, id="off_fiber_r2"),
            pytest.param([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], 1, id="zero_on_fiber_r1"),
            pytest.param([[0.5, 0.25, 0.25], [0.25, 0.0, 0.75]], 1, id="both_bad_r1"),
            pytest.param([[0.5, 0.5, np.nan], [0.0, 0.0, 1.0]], 1, id="nan_off_fiber_r1"),
            pytest.param([[0.5, 0.5, 0.0], [np.nan, 0.0, 1.0]], 2, id="nan_off_fiber_r2"),
            pytest.param([[np.nan, 0.5, 0.0], [0.0, 0.0, 1.0]], 1, id="nan_on_fiber_r1"),
            pytest.param([[0.5, 0.5, 0.0], [0.0, 0.0, np.nan]], 2, id="nan_on_fiber_r2"),
            # supports are checked before sums
            pytest.param([[0.5, 0.5, 0.5], [0.0, 0.0, 1.0]], 1, id="off_fiber_and_sum_r1"),
        ],
    )
    def test_support_validation(self, rows, first_bad):
        with pytest.raises(
            InvalidChannel, match=rf"r_{first_bad} must be exactly the fiber of {first_bad}$"
        ):
            EmbeddingPair(F112, np.array(rows))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            arrays(np.float64, (2, 3), elements=ENTRIES),
            # a valid matrix with up to three entries replaced
            st.lists(st.tuples(st.integers(0, 5), ENTRIES), max_size=3).map(
                lambda edits: _edited([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], edits)
            ),
        )
    )
    def test_totality(self, rows):
        """Any float fiber matrix builds a finite pair or raises a FisherGeoError."""
        try:
            pair_ = EmbeddingPair(F112, rows)
        except FisherGeoError:
            return
        assert np.all(np.isfinite(pair_.fiber_distributions))
        assert np.all(np.isfinite(pair_.embedding_channel.kernel))

    def test_f_identity_gives_identity_channel(self):
        f = Surjection.from_one_based([1, 2, 3])
        assert np.array_equal(coembedding(f).kernel, np.eye(3))
        q = dist(0.2, 0.3, 0.5)
        assert np.array_equal(f.marginalize(q).weights, q.weights)

    def test_block_surjection_marginal(self):
        f = Surjection.from_one_based([1, 2, 1, 2])
        u = dist(0.25, 0.25, 0.25, 0.25)
        assert np.array_equal(f.marginalize(u).weights, [0.5, 0.5])


class TestRandomGenerators:
    def test_random_channel_deterministic(self):
        a = random_channel(2, 2, seed=20)
        b = random_channel(2, 2, seed=20)
        assert np.array_equal(a.kernel, b.kernel)

    def test_random_channel_columns_and_floor(self):
        w = random_channel(5, 4, seed=21)
        assert np.max(np.abs(w.kernel.sum(axis=0) - 1.0)) < 1e-12
        assert np.all(w.kernel.max(axis=1) >= 1e-3)

    def test_random_channel_bad_size(self):
        with pytest.raises(BadSize):
            random_channel(1, 2, seed=0)

    def test_random_surjection_deterministic_and_onto(self):
        f = random_surjection(7, 4, seed=22)
        g = random_surjection(7, 4, seed=22)
        assert f.map0 == g.map0
        assert set(f.map0) == {0, 1, 2, 3}
