from __future__ import annotations

import sys

import numpy as np
import pytest

import fishergeo.connections as connections
import fishergeo.models as models
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
    weak_invariance_check,
    weak_invariance_kernel,
)
from fishergeo.errors import InvalidParameter
from fishergeo.geometry import TangentVector, flat
from fishergeo.markov import Surjection, apply, canonical_embedding
from fishergeo.models import ParametricModel, bernoulli_model, categorical_model
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
    """A step that is not finite and positive, a field on another model, a
    non-finite alpha or an empty grid is rejected before any evaluation; a
    step that vanishes against xi before the stencil is evaluated."""

    @pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
    def test_bad_step_rejected(self, step):
        model = bernoulli_model()
        f = coordinate_field(model, 0)
        with pytest.raises(InvalidParameter, match="step"):
            duality_check(model, [0.3], f, f, f, step=step)
        with pytest.raises(InvalidParameter, match="step"):
            covariant_derivative(E_CONNECTION, model, [0.3], f, f, step=step)

    @pytest.mark.parametrize("step", [1e-17, 1e-300, 5e-324])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_step_that_vanishes_against_xi_rejected(self, step, alpha):
        """A step lost in xi +- step * Z would give central differences of 0:
        a derivative of 0 and a duality residual of 0 that evaluated nothing."""
        model = categorical_model(3)
        x, y = coordinate_field(model, 0), VectorFieldOnModel(model, lambda xi: 0.4 + 0.3 * xi**2)
        with pytest.raises(InvalidParameter, match="vanishes"):
            covariant_derivative(ConnectionTag(alpha), model, [0.3, 0.2], x, y, step=step)
        with pytest.raises(InvalidParameter, match="vanishes"):
            duality_check(model, [0.3, 0.2], x, y, x, step=step)

    def test_step_lost_in_one_component_only_rejected(self):
        """Z = (1, 1) at xi = (1e-9, 0.5) with step 1e-17: the first
        component moves, the second is lost."""
        model = categorical_model(3)
        z = VectorFieldOnModel(model, lambda xi: np.ones(2))
        with pytest.raises(InvalidParameter, match="vanishes"):
            covariant_derivative(E_CONNECTION, model, [1e-9, 0.5], z, z, step=1e-17)

    def test_zero_component_of_the_direction_is_not_lost(self):
        """A direction with a zero component moves xi along the others only."""
        model = categorical_model(3)
        x, y = coordinate_field(model, 0), coordinate_field(model, 1)
        nabla = covariant_derivative(M_CONNECTION, model, [0.3, 0.2], x, y, step=1e-4)
        assert np.allclose(nabla.m_rep, 0.0)

    def test_field_on_another_model_rejected(self):
        model = categorical_model(3)
        other = coordinate_field(categorical_model(3), 0)
        f = coordinate_field(model, 1)
        with pytest.raises(InvalidParameter, match="different model"):
            duality_check(model, [0.2, 0.3], other, f, f)
        with pytest.raises(InvalidParameter, match="different model"):
            covariant_derivative(M_CONNECTION, model, [0.2, 0.3], f, other)

    def test_derivative_direction_on_another_model_rejected(self):
        model = categorical_model(3)
        other = coordinate_field(categorical_model(3), 0)
        with pytest.raises(InvalidParameter, match="different model"):
            covariant_derivative(M_CONNECTION, model, [0.2, 0.3], other, coordinate_field(model, 1))

    def test_duality_direction_on_another_model_rejected(self):
        model = categorical_model(3)
        other = coordinate_field(categorical_model(3), 0)
        f = coordinate_field(model, 1)
        with pytest.raises(InvalidParameter, match="different model"):
            duality_check(model, [0.3, 0.3], f, f, other)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), "0.5", None])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidParameter, match="alpha"):
            ConnectionTag(alpha)

    def test_weak_invariance_checks_step_and_grid_before_evaluating(self):
        """An empty grid or a bad step raises before any point is evaluated:
        an empty grid would otherwise report residuals of 0.0, a pass that
        checked nothing. A good grid point evaluates the point map once at
        each point of its stencil, xi and xi +- step: the embedded family
        reads those evaluations."""
        pair = canonical_embedding(
            Surjection.from_one_based([1, 1, 2]),
            new_distribution(SampleSpace(3), np.array([0.2, 0.3, 0.5])),
        )
        base = bernoulli_model()
        evaluated = []

        def point_map(xi):
            evaluated.append(xi)
            return base.point_map(xi)

        model = ParametricModel(base.space, 1, point_map, base.jacobian)
        f = coordinate_field(model, 0)
        for grid, step, match in (([], 1e-4, "grid"), ([], -1.0, "step"), ([[0.3]], -1.0, "step"),
                                  ([[0.3]], float("nan"), "step")):
            with pytest.raises(InvalidParameter, match=match):
                weak_invariance_check(pair, ConnectionTag(0.0), f, f, grid, step=step)
        assert evaluated == []
        weak_invariance_check(pair, ConnectionTag(0.0), f, f, [[0.3]])
        assert len(evaluated) == 3


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

    def test_pushforward_model_points(self, monkeypatch):
        """The kernel's image points, at xi and at xi +- step, are the pair's
        embedding applied to the model's points there."""
        pair, model, x, y = self.pair_and_fields()
        image_points, seen = connections._image_points, []

        def spy(phi, w, xi):
            images = image_points(phi, w, xi)
            seen.extend(zip(xi.tolist(), images))
            return images

        monkeypatch.setattr(connections, "_image_points", spy)
        weak_invariance_check(pair, ConnectionTag(0.0), x, y, [[0.3]])
        assert [xi for xi, _ in seen] == [[0.3], [0.3 + 1e-4], [0.3 - 1e-4]]
        for xi, image in seen:
            direct = apply(pair.embedding_channel, model.point(xi))
            assert np.array_equal(image, direct.weights)

    def test_the_kernel_builds_no_image_model(self, monkeypatch):
        """The embedded family is the embedding applied to the small model's
        points and Jacobians: a kernel call builds no ParametricModel and
        calls no jacobian_at. The counters themselves do count."""
        pair, model, x, y = self.pair_and_fields()
        counts = {"models": 0, "jacobian_at": 0}
        post_init, jacobian_at = ParametricModel.__post_init__, models.jacobian_at

        def counted_post_init(self):
            counts["models"] += 1
            post_init(self)

        def counted_jacobian_at(*args):
            counts["jacobian_at"] += 1
            return jacobian_at(*args)

        monkeypatch.setattr(ParametricModel, "__post_init__", counted_post_init)
        for name, module in list(sys.modules.items()):
            if name.startswith("fishergeo") and getattr(module, "jacobian_at", None) is jacobian_at:
                monkeypatch.setattr(module, "jacobian_at", counted_jacobian_at)
        columns = [pair.surjection.map0], [pair.fiber_distributions], [ConnectionTag(0.5)], [x], [y]
        reports = weak_invariance_kernel(*(c * 2 for c in columns), [[[0.3], [0.6]]] * 2, [1e-4] * 2, [None] * 2)
        assert reports[0].residual_max <= 1e-6 and reports == reports[::-1]
        assert counts == {"models": 0, "jacobian_at": 0}
        categorical_model(2)
        models.jacobian_at(model, [0.3])
        assert counts == {"models": 1, "jacobian_at": 1}
