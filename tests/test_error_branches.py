"""Error branches and small behaviours that no other in-process test reaches.

Each test drives one branch of ``src/fishergeo`` and asserts the error type
and message it raises, or the value it returns.
"""
from __future__ import annotations

import numpy as np
import pytest

from fishergeo.batteries import run_battery
from fishergeo.connections import (
    VectorFieldOnModel,
    coordinate_field,
    e_transport,
    m_transport,
)
from fishergeo.errors import BadSize, FisherGeoError, InvalidParameter, RankDeficient, SizeMismatch
from fishergeo.families import parse_family
from fishergeo.geometry import CotangentVector, TangentVector
from fishergeo.markov import random_channel, random_channel_kernels, random_surjection, random_surjection_map
from fishergeo.models import (
    FisherMatrix,
    ParametricModel,
    bernoulli_model,
    categorical_model,
    estimator_noise,
    exponential_family_model,
    unbiased_estimators,
    unbiased_estimators_kernel,
)
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace, sample_interior, sample_interior_weights
from fishergeo.verify import characterize, check_bilinearity, probe_consistency, probe_rational, probe_uniform


def dist(*weights: float) -> Distribution:
    return Distribution(SampleSpace(len(weights)), np.array(weights))


@pytest.mark.parametrize("index", [-1, 2])
def test_coordinate_field_index_out_of_range(index):
    with pytest.raises(InvalidParameter, match=f"^coordinate index {index} out of range$"):
        coordinate_field(categorical_model(3), index)


COV = parse_family("COV")
SEEDS = (-1, 1.5, False)


@pytest.mark.parametrize("call, error, message", [
    *((lambda index=index: coordinate_field(categorical_model(3), index), InvalidParameter,
       f"coordinate index must be an integer, not {index!r}") for index in (1.5, True)),
    (lambda: random_channel(3, 2.5, 0), BadSize, "n_out must be an integer, not 2.5"),
    (lambda: random_channel(True, 2, 0), BadSize, "n_in must be an integer, not True"),
    (lambda: probe_uniform(COV, 2.5), InvalidParameter, "n must be an integer, not 2.5"),
    (lambda: probe_consistency(COV, 2.0, 3), InvalidParameter, "m must be an integer, not 2.0"),
    (lambda: probe_rational(COV, dist(0.25, 0.75), 8.5, (1.0, -1.0)), InvalidParameter,
     "denominator_bound must be an integer, not 8.5"),
    (lambda: characterize(COV, n_max=2.5), InvalidParameter, "n_max must be an integer, not 2.5"),
    (lambda: characterize(COV, denominator_bound=8.5), InvalidParameter,
     "denominator_bound must be an integer, not 8.5"),
    (lambda: characterize(COV, trials=2.5), InvalidParameter, "trials must be an integer, not 2.5"),
    *((call, InvalidParameter, f"seed must be a non-negative integer, not {seed!r}") for seed in SEEDS
      for call in (lambda seed=seed: sample_interior(SampleSpace(3), seed),
                   lambda seed=seed: sample_interior_weights(3, seed),
                   lambda seed=seed: random_channel(3, 2, seed),
                   lambda seed=seed: characterize(COV, seed=seed))),
    (lambda: check_bilinearity(COV, 2.5, 0), InvalidParameter, "n must be an integer, not 2.5"),
    (lambda: check_bilinearity(COV, True, 0), InvalidParameter, "n must be an integer, not True"),
    (lambda: random_surjection_map(4.0, 2, 0), BadSize, "n must be an integer, not 4.0"),
    (lambda: random_surjection_map(4, True, 0), BadSize, "m must be an integer, not True"),
    *((call, InvalidParameter, f"seed must be a non-negative integer, not {seed!r}") for seed in SEEDS
      for call in (lambda seed=seed: check_bilinearity(COV, 3, seed),
                   lambda seed=seed: random_surjection_map(4, 2, seed),
                   lambda seed=seed: random_surjection(4, 2, seed))),
], ids=[
    "coordinate_field-float", "coordinate_field-bool", "random_channel-size", "random_channel-bool",
    "probe_uniform", "probe_consistency", "probe_rational", "characterize-n_max",
    "characterize-denominator_bound", "characterize-trials",
    *(f"{name}-seed{seed!r}" for seed in SEEDS
      for name in ("sample_interior", "sample_interior_weights", "random_channel", "characterize")),
    "check_bilinearity-size", "check_bilinearity-bool", "random_surjection_map-size",
    "random_surjection_map-bool",
    *(f"{name}-seed{seed!r}" for seed in SEEDS
      for name in ("check_bilinearity", "random_surjection_map", "random_surjection")),
])
def test_a_bad_size_index_or_seed_raises_a_package_error(call, error, message):
    """A size, index or seed that is not an integer (a bool included), or a
    negative seed, raises a ``FisherGeoError`` before anything is drawn."""
    with pytest.raises(error) as raised:
        call()
    assert isinstance(raised.value, FisherGeoError) and str(raised.value) == message


@pytest.mark.parametrize("call, kind", [
    (lambda: estimator_noise(categorical_model(3), 3), "int"),
    (lambda: estimator_noise(categorical_model(3), None), "NoneType"),
    (lambda: estimator_noise(categorical_model(3), np.random.RandomState(0)), "RandomState"),
    (lambda: unbiased_estimators(categorical_model(3), [0.2, 0.3], 5), "int"),
], ids=["estimator_noise-int", "estimator_noise-None", "estimator_noise-RandomState", "unbiased_estimators-int"])
def test_a_random_source_that_is_not_a_generator_raises_a_package_error(call, kind):
    """The estimator noise is drawn from a ``numpy.random.Generator`` only:
    anything else, a seed or the legacy ``RandomState`` included, raises
    InvalidParameter before anything is drawn."""
    with pytest.raises(InvalidParameter) as raised:
        call()
    assert str(raised.value) == f"rng must be a numpy.random.Generator, not {kind}"


def test_coefficients_of_the_wrong_shape():
    field = VectorFieldOnModel(categorical_model(3), lambda xi: np.zeros(3))
    with pytest.raises(SizeMismatch) as raised:
        field.coefficients_at([0.2, 0.3])
    assert str(raised.value) == "coefficient function returned shape (3,), expected (2,)"


@pytest.mark.parametrize("transport", [m_transport, e_transport])
def test_transport_to_another_space(transport):
    x = TangentVector(dist(0.5, 0.5), np.array([0.25, -0.25]))
    with pytest.raises(SizeMismatch, match="^target point lives on a different sample space$"):
        transport(x, dist(0.2, 0.3, 0.5))


def test_point_map_onto_the_wrong_space():
    model = ParametricModel(SampleSpace(3), 1, lambda xi: dist(0.5, 0.5))
    with pytest.raises(SizeMismatch, match="^point map produced a distribution on the wrong space$"):
        model.point([0.3])


def test_asymmetric_fisher_matrix():
    with pytest.raises(RankDeficient, match="^information matrix is not symmetric$"):
        FisherMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_estimator_noise_of_the_wrong_shape():
    noise = (np.zeros((1, 3)), np.ones(1))
    with pytest.raises(SizeMismatch) as raised:
        unbiased_estimators_kernel([bernoulli_model()], [[0.3]], [noise])
    assert str(raised.value) == "noise of shapes (1, 3), (1,) != (1, 2), (1,)"


def test_exponential_family_base_on_another_space():
    with pytest.raises(SizeMismatch, match="^base distribution on the wrong space$"):
        exponential_family_model(np.array([[1.0, 0.0, -1.0]]), base=dist(0.5, 0.5))


def test_random_channel_output_too_large_for_its_floor():
    # 1000 outputs at floor 1e-3 leave no mass above the floor
    columns = np.full((2, 1000), 1e-3)
    with pytest.raises(BadSize, match="^output space too large for floor 0.001$"):
        random_channel_kernels(columns)


def test_cotangent_rep_on_another_space():
    with pytest.raises(SizeMismatch, match="^rep on space of size 3, base on size 2$"):
        CotangentVector(dist(0.5, 0.5), RandomVariable(SampleSpace(3), np.zeros(3)))


def test_battery_config_without_a_battery_key():
    with pytest.raises(InvalidParameter, match="^config needs a 'battery' key$"):
        run_battery({"trials": 5, "n_max": 4})


def test_consistency_witness_at_the_big_uniform_point_only():
    """A plugin family that is the covariance on up to 3 points and skewed
    above: the uniform probe passes at n = 3 and fails at m n = 6, so the
    consistency probe returns the big point's witness and does not pass."""

    class SkewedAbove3:
        name = "skewed-above-3"

        def __call__(self, p, a, b) -> float:
            w, x, y = p.weights, a.values, b.values
            if w.size <= 3:
                return float(np.dot(w, x * y) - np.dot(w, x) * np.dot(w, y))
            return float(np.sum(np.arange(1.0, w.size + 1) * w * x * y))

    result = probe_consistency(SkewedAbove3(), 2, 3)
    assert (result.witness.kind, result.witness.m, result.witness.n) == ("uniform_shape", 6, 6)
    assert (result.c1, result.c2) == (0.0, 0.0)
    assert result.max_residual == result.witness.gap
    assert not result.passed


def test_distributions_and_random_variables_hash_by_value():
    p, q = dist(0.25, 0.75), dist(0.25, 0.75)
    assert p == q and hash(p) == hash(q) and len({p, q, dist(0.75, 0.25)}) == 2
    a, b = RandomVariable(SampleSpace(2), [1.0, 2.0]), RandomVariable(SampleSpace(2), [1.0, 2.0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != RandomVariable(SampleSpace(2), [2.0, 1.0])
    assert a != RandomVariable(SampleSpace(3), [1.0, 2.0, 3.0])
    assert a != p and a != [1.0, 2.0]
