from __future__ import annotations

import numpy as np
import pytest

from fishergeo.connections import (
    E_CONNECTION,
    M_CONNECTION,
    ConnectionTag,
    VectorFieldOnModel,
    coordinate_field,
    covariant_derivative,
    duality_check,
    e_transport,
    m_transport,
    pushforward_model,
    weak_invariance_check,
)
from fishergeo.errors import InvalidParameter
from fishergeo.geometry import TangentVector, flat
from fishergeo.markov import Surjection, apply, canonical_embedding
from fishergeo.models import bernoulli_model, categorical_model
from fishergeo.simplex import (
    SampleSpace,
    new_distribution,
    sample_interior,
)


def dist(*weights: float):
    return new_distribution(SampleSpace(len(weights)), np.array(weights))


class TestTransports:
    def test_m_transport_keeps_m_rep(self):
        p, q = dist(0.5, 0.5), dist(0.25, 0.75)
        x = TangentVector(p, np.array([1.0, -1.0]))
        moved = m_transport(x, q)
        assert moved.base == q and np.array_equal(moved.m_rep, x.m_rep)

    def test_transport_to_self_is_identity(self):
        p = dist(0.3, 0.7)
        x = TangentVector(p, np.array([0.4, -0.4]))
        assert np.array_equal(m_transport(x, p).m_rep, x.m_rep)
        assert np.allclose(e_transport(x, p).m_rep, x.m_rep, atol=1e-15)

    def test_e_transport_recenters_score(self):
        p, q = dist(0.5, 0.5), dist(0.25, 0.75)
        x = TangentVector(p, np.array([1.0, -1.0]))  # score (2, -2)
        moved = e_transport(x, q)
        assert np.allclose(moved.m_rep, [0.75, -0.75], atol=1e-15)

    def test_round_trips_are_identity(self):
        p = sample_interior(SampleSpace(4), seed=1)
        q = sample_interior(SampleSpace(4), seed=2)
        rng = np.random.default_rng(3)
        m = rng.normal(size=4)
        x = TangentVector(p, m - m.mean())
        assert np.allclose(m_transport(m_transport(x, q), p).m_rep, x.m_rep, atol=1e-15)
        assert np.allclose(e_transport(e_transport(x, q), p).m_rep, x.m_rep, atol=1e-13)

    def test_flatness_path_independence(self):
        p = sample_interior(SampleSpace(3), seed=4)
        q1 = sample_interior(SampleSpace(3), seed=5)
        q2 = sample_interior(SampleSpace(3), seed=6)
        rng = np.random.default_rng(7)
        m = rng.normal(size=3)
        x = TangentVector(p, m - m.mean())
        two_leg = e_transport(e_transport(x, q1), q2)
        direct = e_transport(x, q2)
        assert np.allclose(two_leg.m_rep, direct.m_rep, atol=1e-13)

    def test_e_transport_preserves_class_of_flat(self):
        # flat of the transported vector differs from flat of the original
        # by a constant: the underlying 1-form d<A> is the same.
        p = sample_interior(SampleSpace(4), seed=8)
        q = sample_interior(SampleSpace(4), seed=9)
        rng = np.random.default_rng(10)
        m = rng.normal(size=4)
        x = TangentVector(p, m - m.mean())
        before = flat(x).rep.values
        after = flat(e_transport(x, q)).rep.values
        diff = after - before
        assert np.max(diff) - np.min(diff) < 1e-12


class TestCovariantDerivative:
    def test_m_derivative_of_constant_m_field_vanishes(self):
        model = categorical_model(3)
        # m-representation (0.5, -0.2, -0.3) at every point, in the (e_i - e_n) basis
        field = VectorFieldOnModel(model, lambda xi: np.array([0.5, -0.2]))
        x = coordinate_field(model, 0)
        out = covariant_derivative(M_CONNECTION, model, [0.3, 0.4], x, field)
        assert np.max(np.abs(out.m_rep)) < 1e-10

    def test_e_derivative_of_constant_class_field_vanishes(self):
        # field value at p: sharp of delta(p, A) for a fixed A
        model = categorical_model(3)
        a = np.array([1.0, -0.5, 2.0])

        def coeffs(xi: np.ndarray) -> np.ndarray:
            p = model.point(xi)
            m_rep = p.weights * (a - float(np.dot(p.weights, a)))
            return m_rep[:2]  # components in the (e_i - e_n) basis

        field = VectorFieldOnModel(model, coeffs)
        x = coordinate_field(model, 1)
        out = covariant_derivative(E_CONNECTION, model, [0.3, 0.4], x, field)
        assert np.max(np.abs(out.m_rep)) < 1e-9

    def test_m_derivative_of_coordinate_fields_vanishes(self):
        # mixture coordinates are m-affine
        model = categorical_model(4)
        xi = [0.2, 0.3, 0.25]
        for i in range(3):
            for j in range(3):
                out = covariant_derivative(
                    M_CONNECTION, model, xi, coordinate_field(model, i), coordinate_field(model, j)
                )
                assert np.max(np.abs(out.m_rep)) < 1e-12

    def test_alpha_interpolates(self):
        model = bernoulli_model()
        x = coordinate_field(model, 0)
        e_part = covariant_derivative(E_CONNECTION, model, [0.3], x, x)
        m_part = covariant_derivative(M_CONNECTION, model, [0.3], x, x)
        mid = covariant_derivative(ConnectionTag(0.0), model, [0.3], x, x)
        assert np.allclose(mid.m_rep, 0.5 * (e_part.m_rep + m_part.m_rep), atol=1e-12)


class TestDuality:
    def test_bernoulli_residual_small(self):
        model = bernoulli_model()
        f = coordinate_field(model, 0)
        assert duality_check(model, [0.3], f, f, f, step=1e-4) <= 1e-6

    def test_zero_field_gives_zero(self):
        model = bernoulli_model()
        f = coordinate_field(model, 0)
        zero = VectorFieldOnModel(model, lambda xi: np.zeros(1))
        assert duality_check(model, [0.3], zero, f, f) == 0.0

    def test_categorical_uniform_residual_small(self):
        model = categorical_model(3)
        fields = [coordinate_field(model, i) for i in range(2)]
        for x in fields:
            for y in fields:
                for z in fields:
                    assert duality_check(model, [1 / 3, 1 / 3], x, y, z, step=1e-4) <= 1e-6

    def test_second_order_convergence(self):
        # coordinate fields alone leave the truncation terms of the two
        # sides cancelling to rounding level, so drive the check with
        # xi-dependent coefficients to see the O(step^2) scaling
        model = bernoulli_model()
        f = coordinate_field(model, 0)
        gx = VectorFieldOnModel(model, lambda xi: np.array([xi[0] ** 2]))
        gy = VectorFieldOnModel(model, lambda xi: np.array([1.0 + 0.5 * xi[0]]))
        r1 = duality_check(model, [0.3], gx, gy, f, step=1e-4)
        r2 = duality_check(model, [0.3], gx, gy, f, step=5e-5)
        assert r2 > 1e-10
        assert 3.2 <= r1 / r2 <= 4.8


class TestInputs:
    """A step that is not finite and positive, or a field on another model,
    is rejected before any evaluation."""

    @pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
    def test_bad_step_rejected(self, step):
        model = bernoulli_model()
        f = coordinate_field(model, 0)
        with pytest.raises(InvalidParameter, match="step"):
            duality_check(model, [0.3], f, f, f, step=step)
        with pytest.raises(InvalidParameter, match="step"):
            covariant_derivative(E_CONNECTION, model, [0.3], f, f, step=step)

    def test_field_on_another_model_rejected(self):
        model = categorical_model(3)
        other = coordinate_field(categorical_model(3), 0)
        f = coordinate_field(model, 1)
        with pytest.raises(InvalidParameter, match="different model"):
            duality_check(model, [0.2, 0.3], other, f, f)
        with pytest.raises(InvalidParameter, match="different model"):
            covariant_derivative(M_CONNECTION, model, [0.2, 0.3], f, other)


class TestWeakInvariance:
    @staticmethod
    def pair_and_fields(n_small: int = 2):
        f = Surjection.from_one_based([1, 1, 2])
        q = new_distribution(SampleSpace(3), np.array([0.2, 0.3, 0.5]))
        pair = canonical_embedding(f, q)
        model = categorical_model(2)
        x = coordinate_field(model, 0)
        # a genuinely xi-dependent second field exercises the derivative
        y = VectorFieldOnModel(model, lambda xi: np.array([0.5 + xi[0] ** 2]))
        return pair, model, x, y

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_alpha_connections_are_weakly_invariant(self, alpha):
        pair, model, x, y = self.pair_and_fields()
        report = weak_invariance_check(
            pair, ConnectionTag(alpha), x, y, grid=[[0.3], [0.45], [0.6]]
        )
        assert report.residual_max <= 1e-6
        assert report.metric_residual_max <= 1e-6

    def test_mismatched_connections_detected(self):
        pair, model, x, y = self.pair_and_fields()
        report = weak_invariance_check(
            pair, E_CONNECTION, x, y, grid=[[0.3], [0.45]], tag_big=M_CONNECTION
        )
        assert report.residual_max > 1e-3

    def test_larger_pair_coordinate_fields(self):
        f = Surjection.from_one_based([1, 2, 2, 3, 1])
        q = sample_interior(SampleSpace(5), seed=11)
        pair = canonical_embedding(f, q)
        model = categorical_model(3)
        x = coordinate_field(model, 0)
        y = coordinate_field(model, 1)
        report = weak_invariance_check(
            pair, ConnectionTag(0.0), x, y, grid=[[0.25, 0.4], [0.3, 0.3]]
        )
        assert report.residual_max <= 1e-6

    def test_pushforward_model_points(self):
        pair, model, *_ = self.pair_and_fields()
        big = pushforward_model(pair, model)
        xi = np.array([0.3])
        direct = apply(pair.embedding_channel, model.point(xi))
        assert np.array_equal(big.point(xi).weights, direct.weights)
