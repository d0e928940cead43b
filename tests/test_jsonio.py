"""Typed JSON reads: every wire-format reader builds an object or raises a
FisherGeoError, and one set of readers decides what a JSON integer, number,
bool or list of numbers is."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeo import jsonio
from fishergeo.batteries import run_battery
from fishergeo.errors import BadSize, FisherGeoError, InvalidParameter, SizeMismatch

#: Leaves of arbitrary JSON values, with small integers so that a size read
#: from one stays cheap to build.
LEAVES = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(-3, 6) | st.sampled_from([2**53, 2**64, -(2**63)])
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=12,
)
#: Lists of numbers, which reach the constructors more often than any value.
NUMBER_LISTS = st.lists(st.floats(-2, 2) | st.integers(0, 1), max_size=4)
ARRAYS = NUMBER_LISTS | st.lists(NUMBER_LISTS, max_size=3) | JSON_VALUES

READERS = {
    jsonio.distribution_from_json: {"n": JSON_VALUES, "p": ARRAYS},
    jsonio.random_variable_from_json: {"n": JSON_VALUES, "values": ARRAYS},
    jsonio.tangent_from_json: {"p": ARRAYS, "m_rep": ARRAYS},
    jsonio.cotangent_from_json: {"p": ARRAYS, "rep": ARRAYS},
    jsonio.channel_from_json: {"n_in": JSON_VALUES, "n_out": JSON_VALUES, "kernel": ARRAYS},
    jsonio.model_from_json: {
        "kind": st.sampled_from(["bernoulli", "categorical", "expfam", "affine"]) | JSON_VALUES,
        "n": JSON_VALUES, "stats": ARRAYS, "base": ARRAYS, "p0": ARRAYS, "directions": ARRAYS,
    },
}


def objects(keys: dict) -> st.SearchStrategy:
    return st.fixed_dictionaries({}, optional=keys) | JSON_VALUES


@pytest.mark.parametrize("reader", list(READERS), ids=lambda reader: reader.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_readers_build_or_raise_typed_errors(reader, data):
    obj = data.draw(objects(READERS[reader]))
    try:
        reader(obj)
    except FisherGeoError:
        pass


@settings(max_examples=100, deadline=None)
@given(items=st.lists(objects(READERS[jsonio.random_variable_from_json]), max_size=3) | JSON_VALUES)
def test_estimators_build_or_raise_typed_errors(items):
    try:
        jsonio.estimators_from_json(items)
    except FisherGeoError:
        pass


@pytest.mark.parametrize(
    "obj, key",
    [
        ({"n": 3.7, "p": [0.25, 0.25, 0.5]}, "n"),
        ({"n": True, "p": [0.5, 0.5]}, "n"),
        ({"n": "abc", "p": [0.5, 0.5]}, "n"),
        ({"n": [2], "p": [0.5, 0.5]}, "n"),
        ({"n": 2, "p": "ab"}, "p"),
        ({"n": 2, "p": [True, False]}, "p"),
        ({"n": 2, "p": [0.5, "0.5"]}, "p"),
    ],
)
def test_distribution_fields_are_typed(obj, key):
    with pytest.raises(InvalidParameter, match=key):
        jsonio.distribution_from_json(obj)


def test_ragged_kernel_is_named():
    with pytest.raises(InvalidParameter, match="kernel"):
        jsonio.channel_from_json({"n_in": 2, "n_out": 2, "kernel": [[1.0, 0.0], [0.0]]})


class TestReaders:
    @pytest.mark.parametrize("value", [True, False, 3.0, "3", None, [3], 2**53])
    def test_not_an_int(self, value):
        with pytest.raises(InvalidParameter, match="trials"):
            jsonio.read_int(value, "trials")

    def test_numpy_ints_are_ints(self):
        value = jsonio.read_int(np.int64(7), "n", minimum=2)
        assert value == 7 and type(value) is int

    def test_minimum_is_named(self):
        with pytest.raises(InvalidParameter, match="n_max"):
            jsonio.read_int(1, "n_max", minimum=2)

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf"), 10**400, "1e-4", None])
    def test_not_a_finite_number(self, value):
        with pytest.raises(InvalidParameter, match="step"):
            jsonio.read_float(value, "step")

    def test_integers_are_numbers(self):
        assert jsonio.read_float(2, "step") == 2.0
        assert jsonio.read_float_list([1, -0.5], "alphas") == (1.0, -0.5)

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_not_a_bool(self, value):
        with pytest.raises(InvalidParameter, match="mismatched"):
            jsonio.read_bool(value, "mismatched")

    def test_non_finite_entries_are_left_to_the_constructor(self):
        values = jsonio.read_floats([[float("nan"), 1.0]], "kernel")
        assert values.shape == (1, 2) and np.isnan(values[0, 0])


#: A valid object of each format, by reader and, for models, by kind.
VALID = {
    "distribution": (jsonio.distribution_from_json, {"n": 2, "p": [0.25, 0.75]}),
    "random_variable": (jsonio.random_variable_from_json, {"n": 2, "values": [1.0, 0.0]}),
    "tangent": (jsonio.tangent_from_json, {"p": [0.5, 0.5], "m_rep": [1.0, -1.0]}),
    "cotangent": (jsonio.cotangent_from_json, {"p": [0.5, 0.5], "rep": [1.0, -1.0]}),
    "channel": (jsonio.channel_from_json, {"n_in": 2, "n_out": 2, "kernel": [[0.5, 1.0], [0.5, 0.0]]}),
    "bernoulli": (jsonio.model_from_json, {"kind": "bernoulli"}),
    "categorical": (jsonio.model_from_json, {"kind": "categorical", "n": 3}),
    "expfam": (jsonio.model_from_json, {"kind": "expfam", "stats": [[1, 2, 3]], "base": [0.2, 0.3, 0.5]}),
    "affine": (
        jsonio.model_from_json,
        {"kind": "affine", "n": 3, "p0": [0.0, 0.0, 1.0], "directions": [[1.0, 1.0, -2.0]]},
    ),
    "estimators": (
        lambda obj: jsonio.estimators_from_json([obj]), {"n": 2, "values": [1.0, 0.0]},
    ),
}


class TestUnknownKeys:
    """A key that a format does not define is an input error naming it: a
    typo must not run a different model and exit 0."""

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_valid_object_reads(self, name):
        reader, obj = VALID[name]
        reader(dict(obj))

    @pytest.mark.parametrize("name", sorted(VALID))
    @pytest.mark.parametrize("key", ["bases", "N", ""])
    def test_unknown_key_is_named(self, name, key):
        reader, obj = VALID[name]
        with pytest.raises(InvalidParameter, match=f"no key '{key}'; its keys: \\[") as info:
            reader({**obj, key: 1})
        for known in obj:
            assert repr(known) in str(info.value)

    def test_a_misspelt_base_is_not_the_uniform_base(self):
        reader, obj = VALID["expfam"]
        with pytest.raises(InvalidParameter, match="'bases'"):
            reader({"kind": "expfam", "stats": obj["stats"], "bases": obj["base"]})

    def test_optional_keys_may_be_left_out(self):
        jsonio.model_from_json({"kind": "expfam", "stats": [[1, 2, 3]]})
        jsonio.model_from_json({"kind": "affine", "p0": [0.0, 0.0, 1.0], "directions": [[1.0, 1.0, -2.0]]})

    @pytest.mark.parametrize("n", [2, 4])
    def test_affine_n_is_the_length_of_p0(self, n):
        obj = {**VALID["affine"][1], "n": n}
        with pytest.raises(SizeMismatch, match="p0 has 3 weights"):
            jsonio.model_from_json(obj)

    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_affine_n_is_an_integer(self, n):
        with pytest.raises(InvalidParameter, match="n must be an integer"):
            jsonio.model_from_json({**VALID["affine"][1], "n": n})

    def test_battery_configs_share_the_rule(self):
        with pytest.raises(InvalidParameter, match="battery 'crb' has no key 'trails'"):
            run_battery({"battery": "crb", "trails": 3})


class TestFailingValueIsNamed:
    """A wire-format error says which value failed: a list whose length is
    not n names both keys, and an estimator's error names the estimator."""

    @pytest.mark.parametrize(
        "reader, obj, message",
        [
            (jsonio.distribution_from_json, {"n": 4, "p": [0.25, 0.75]}, "n is 4, but p has 2 weights"),
            (jsonio.distribution_from_json, {"n": 2, "p": 0.5}, "n is 2, but p has 1 weights"),
            (jsonio.random_variable_from_json, {"n": 3, "values": [0, 1]}, "n is 3, but values has 2 values"),
            (jsonio.random_variable_from_json, {"n": 2, "values": [0, 1, 2]}, "n is 2, but values has 3 values"),
        ],
        ids=["p-short", "p-scalar", "values-short", "values-long"],
    )
    def test_a_list_of_another_length_names_n_and_the_list(self, reader, obj, message):
        with pytest.raises(SizeMismatch) as info:
            reader(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "second, error, message",
        [
            (
                {"n": 2, "valuse": [0, 1]}, InvalidParameter,
                "estimators[1]: random variable has no key 'valuse'; its keys: ['n', 'values']",
            ),
            ({"n": 3, "values": [0, 1]}, SizeMismatch, "estimators[1]: n is 3, but values has 2 values"),
            ({"n": 1, "values": [0]}, BadSize, "estimators[1]: sample space needs size >= 2, got 1"),
        ],
        ids=["unknown-key", "length", "size"],
    )
    def test_an_estimator_error_names_the_estimator(self, second, error, message):
        with pytest.raises(error) as info:
            jsonio.estimators_from_json([{"n": 2, "values": [1, 0]}, second])
        assert type(info.value) is error and str(info.value) == message

    def test_a_file_that_is_not_an_array_is_named_as_before(self):
        with pytest.raises(InvalidParameter, match="^estimators file must hold a JSON array$"):
            jsonio.estimators_from_json({"n": 2, "values": [1, 0]})
