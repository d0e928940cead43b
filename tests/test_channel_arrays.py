"""The monotonicity batteries' array path against their frozen object path.

Until the monotonicity kernels took arrays, each drawn channel trial was a
validated ``Channel``, ``Distribution`` and ``TangentVector`` or
``RandomVariable``, checked one at a time by its single-case check. The
frozen copies below keep that path: the two checks and the draw as they
were. The suites hold the array path to it:

- the draw gives the same rows, bitwise, with its kernels column-major;
- on stacks of 1-8 trials that mix sizes 2-8 with C- and F-ordered kernels
  and non-contiguous views into C- and F-ordered arrays, and carry defects
  in any input, each kernel gives every report of the frozen check by
  ``float.hex``, or raises the error type and message of the first trial
  that fails alone; so do the public checks, one trial at a time;
- a run of either battery builds none of the objects.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_pairs
from fishergeo import batteries
from fishergeo.errors import FisherGeoError
from fishergeo.geometry import TangentVector, norm_tangent
from fishergeo.markov import Channel, apply, apply_rows, conditional_expectation, pushforward, random_channel_kernels
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace, interior_rows, variance
from fishergeo.verify import (
    MonotonicityReport,
    check_monotonicity_cometric,
    check_monotonicity_metric,
    classify,
    monotonicity_cometric_kernel,
    monotonicity_metric_kernel,
)

# ---------------------------------------------------------------------------
# The object path, frozen: the two single-case checks and the draw
# ---------------------------------------------------------------------------


def frozen_check_monotonicity_metric(channel: Channel, p: Distribution, x: TangentVector) -> MonotonicityReport:
    lhs = norm_tangent(pushforward(channel, p, x))
    rhs = norm_tangent(x)
    slack = lhs - rhs
    return MonotonicityReport(lhs, rhs, slack, classify(slack))


def frozen_check_monotonicity_cometric(channel: Channel, p: Distribution, a: RandomVariable) -> MonotonicityReport:
    lhs = variance(p, conditional_expectation(channel, a))
    rhs = variance(apply(channel, p), a)
    slack = lhs - rhs
    return MonotonicityReport(lhs, rhs, slack, classify(slack))


def frozen_channel_kernels(rng: np.random.Generator, shape: tuple[int, int], count: int) -> np.ndarray:
    n_in, n_out = shape
    return random_channel_kernels(rng.dirichlet(np.ones(n_out), size=(count, n_in)))


def frozen_draw_channel_cases(rng: np.random.Generator, rounds: int, n_max: int, key: str) -> list[dict]:
    """Random channels, input points, and a tangent vector ``x`` at each or a
    variable ``a`` on each output space, as validated objects."""
    shapes = [tuple(shape) for shape in rng.integers(2, n_max + 1, size=(rounds, 2)).tolist()]
    points, kernels = frozen_pairs._by_shape_rows(rng, shapes, frozen_pairs._points_on(0), frozen_channel_kernels)
    values = frozen_pairs._normal_rows(rng, [n_in if key == "x" else n_out for n_in, n_out in shapes])
    cases = []
    for (n_in, n_out), w, kernel, v in zip(shapes, points, kernels, values):
        channel = Channel(SampleSpace(n_in), SampleSpace(n_out), kernel)
        p = Distribution(channel.in_space, w)
        vector = TangentVector(p, v - v.mean()) if key == "x" else RandomVariable(channel.out_space, v)
        cases.append({"channel": channel, "p": p, key: vector})
    return cases


# ---------------------------------------------------------------------------
# Between the two forms of a case
# ---------------------------------------------------------------------------

KERNELS = {"x": monotonicity_metric_kernel, "a": monotonicity_cometric_kernel}
FROZEN = {"x": frozen_check_monotonicity_metric, "a": frozen_check_monotonicity_cometric}
CHECKS = {"x": check_monotonicity_metric, "a": check_monotonicity_cometric}


def objects(case: dict) -> dict:
    """The object case of an array case, built in the order the kernels check it."""
    kernel = np.asarray(case["kernel"])
    channel = Channel(SampleSpace(kernel.shape[1]), SampleSpace(kernel.shape[0]), kernel)
    p = Distribution(channel.in_space, case["p"])
    if "x" in case:
        return {"channel": channel, "p": p, "x": TangentVector(p, case["x"])}
    return {"channel": channel, "p": p, "a": RandomVariable(channel.out_space, case["a"])}


def bits(report: MonotonicityReport) -> tuple:
    return report.lhs.hex(), report.rhs.hex(), report.slack.hex(), report.status


def outcome(evaluate):
    """``evaluate()``'s reports as bits, or the type and message of the error it raises."""
    try:
        return [bits(report) for report in evaluate()]
    except FisherGeoError as exc:
        return type(exc), str(exc)


def frozen_outcome(key: str, cases: list[dict]):
    """The error of the first trial that fails alone, its objects built and
    then checked by the frozen check; else every frozen report."""
    return outcome(lambda: [FROZEN[key](**objects(case)) for case in cases])


# ---------------------------------------------------------------------------
# The draw
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ["x", "a"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 40), n_max=st.integers(2, 9))
def test_the_draw_is_the_frozen_object_draw_taken_apart(key, seed, rounds, n_max):
    new = batteries._draw_channel_cases(np.random.default_rng(seed), rounds=rounds, n_max=n_max, key=key)
    old = frozen_draw_channel_cases(np.random.default_rng(seed), rounds=rounds, n_max=n_max, key=key)
    assert len(new) == len(old) == rounds
    for case, frozen in zip(new, old):
        vector = frozen["x"].m_rep if key == "x" else frozen["a"].values
        assert case.keys() == {"kernel", "p", key}
        assert case["kernel"].flags.f_contiguous and frozen["channel"].kernel.flags.f_contiguous
        for mine, theirs in ((case["kernel"], frozen["channel"].kernel), (case["p"], frozen["p"].weights),
                             (case[key], vector)):
            assert mine.shape == theirs.shape and mine.tobytes(order="A") == theirs.tobytes(order="A")


# ---------------------------------------------------------------------------
# The kernels on stacks, with defects
# ---------------------------------------------------------------------------

#: Each trial's defects, applied in order: none, or one that fails a
#: constructor's check or a derived one (``kernel_slight`` leaves a valid
#: kernel, whose pushed vectors may not sum to 0), or two derived checks that
#: fail at once, so that their order shows.
DEFECTS = ((),) * 24 + tuple((defect,) for defect in (
    "kernel_negative", "kernel_column", "kernel_unreached", "kernel_nan", "kernel_size", "kernel_slight",
    "p_length", "p_weight", "p_sum", "vector_length", "vector_value", "vector_huge", "image_weight",
)) + (("image_weight", "kernel_slight", "vector_huge"),) * 3


def trial(key: str, shape: tuple[int, int], layout: str, seed: int, scale: float, defects: tuple) -> dict:
    """One array case drawn as the battery draws it, with ``defects`` in it
    and its kernel, defects included, in ``layout``: "C" or "F" ordered, or
    a "C view" or "F view", a non-contiguous view of every other entry of a
    C- or F-ordered array twice its size per axis."""
    rng = np.random.default_rng(seed)
    n_in, n_out = shape
    kernel = np.array(frozen_channel_kernels(rng, shape, 1)[0], order="F")
    p = interior_rows(rng.dirichlet(np.ones(n_in)))
    v = scale * rng.normal(size=n_in if key == "x" else n_out)
    v = v - v.mean() if key == "x" else v
    i, j = int(rng.integers(n_out)), int(rng.integers(n_in))
    for defect in defects:
        kernel, p, v = spoil(kernel, p, v, key, defect, i, j, rng)
    if layout.endswith("view"):
        big = np.zeros((2 * kernel.shape[0], 2 * kernel.shape[1]), order=layout[0])
        big[::2, ::2] = kernel
        kernel = big[::2, ::2]
    else:
        kernel = np.array(kernel, order=layout)
    return {"kernel": kernel, "p": p, key: v}


def spoil(kernel: np.ndarray, p: np.ndarray, v: np.ndarray, key: str, defect: str, i: int, j: int, rng) -> tuple:
    """The kernel, point and vector ``x`` or variable ``a`` of a trial with
    one defect, at output i and input j."""
    n_out, n_in = kernel.shape
    if defect == "kernel_negative":
        kernel[i, j] = -0.1
    elif defect == "kernel_column":
        kernel[:, j] *= 1.0 + 1e-9
    elif defect == "kernel_unreached":
        kernel[(i + 1) % n_out] += kernel[i]
        kernel[i] = 0.0
    elif defect == "kernel_nan":
        kernel[i, j] = np.nan
    elif defect == "kernel_size":
        kernel = kernel[:1] if rng.random() < 0.5 else kernel[:, :1]
    elif defect == "kernel_slight":
        kernel[:, j] *= 1.0 + 5e-13
    elif defect == "p_length":
        p = p[:-1] if rng.random() < 0.5 else np.append(p, 0.5)
    elif defect == "p_weight":
        p[j] = rng.choice([-0.1, 0.0, np.nan])
    elif defect == "p_sum":
        p[j] *= 1.0 + 1e-9
    elif defect == "vector_length":
        v = v[:-1] if rng.random() < 0.5 else np.append(v, 0.0)
    elif defect == "vector_value":
        v[0] = np.nan if rng.random() < 0.5 else v[0] + 1e-6
    elif defect == "vector_huge":
        # a pushed vector whose sum is far from 0, or a conditional expectation past the float range
        top = np.finfo(float).max
        v = np.append([top, -top], np.zeros(len(v) - 2)) if key == "x" else np.full(len(v), top)
    elif defect == "image_weight":
        # an output reached with weight about 1e-14 only: a valid kernel whose image point is not
        kernel[(i + 1) % n_out] += kernel[i] - 1e-14
        kernel[i] = 1e-14
    return kernel, p, v


@st.composite
def stacks(draw, key: str) -> list[dict]:
    """1-8 trials on up to three shapes of sizes 2-8, with C- and F-ordered
    kernels and views, about one in three with a defect."""
    shapes = draw(st.lists(st.tuples(st.integers(2, 8), st.integers(2, 8)), min_size=1, max_size=3))
    return draw(st.lists(st.builds(
        trial, st.just(key), st.sampled_from(shapes), st.sampled_from(["C", "F", "C view", "F view"]),
        st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e3, 1e5]), st.sampled_from(DEFECTS),
    ), min_size=1, max_size=8))


@pytest.mark.parametrize("key", ["x", "a"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_each_kernel_is_the_frozen_check_on_each_trial(key, data):
    """A stack gives every frozen report bitwise, or raises what its first
    failing trial raises alone; and the public check of each trial whose
    objects build gives the frozen report or error too."""
    cases = data.draw(stacks(key))
    kernel = KERNELS[key]
    # the huge vectors overflow on both paths alike
    with np.errstate(over="ignore", invalid="ignore"):
        expected = frozen_outcome(key, cases)
        assert outcome(lambda: kernel(**{name: [case[name] for case in cases] for name in cases[0]})) == expected
        for case in cases:
            try:
                one = objects(case)
            except FisherGeoError:
                continue
            assert outcome(lambda: [CHECKS[key](**one)]) == outcome(lambda: [FROZEN[key](**one)])


def test_a_kernel_layout_changes_the_bits_of_a_product():
    """Why a stack keeps each kernel's layout: the product of a vector with
    the C-ordered and the F-ordered copy of one drawn kernel differ in the
    last bit for some of 200 kernels, and each layout matches its own."""
    rng = np.random.default_rng(0)
    differ = 0
    for _ in range(200):
        kernel = np.asfortranarray(frozen_channel_kernels(rng, (8, 8), 1)[0])
        w = interior_rows(rng.dirichlet(np.ones(8)))
        c, f = (apply_rows(k[None], w[None])[0] for k in (np.ascontiguousarray(kernel), kernel))
        differ += c.tobytes() != f.tobytes()
    assert differ > 0


# ---------------------------------------------------------------------------
# No objects per trial
# ---------------------------------------------------------------------------

CLASSES = (Channel, Distribution, RandomVariable, TangentVector)


@pytest.fixture()
def built(monkeypatch) -> Counter:
    """Counts the constructions of the four classes a channel trial once built."""
    counts: Counter = Counter()
    for cls in CLASSES:
        def counting(self, _check=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def test_the_count_sees_every_class(built):
    channel = Channel(SampleSpace(2), SampleSpace(2), np.eye(2))
    p = Distribution(channel.in_space, [0.5, 0.5])
    assert TangentVector(p, [1.0, -1.0]) is not None and RandomVariable(p.space, [1.0, 0.0]) is not None
    assert sorted(built) == sorted(cls.__name__ for cls in CLASSES)


@pytest.mark.parametrize("name", ["monotonicity_metric", "monotonicity_cometric"])
def test_a_run_builds_no_objects(built, name):
    report = batteries.run_battery({"battery": name, "trials": 50, "n_max": 6, "seed": 3})
    assert report.status == "pass" and report.trials == 50
    assert built == Counter()
