"""The battery driver: run-size and config checks, and the witness path."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishergeo.batteries as batteries
import fishergeo.verify as verify_module
from fishergeo.batteries import run_battery
from fishergeo.errors import FisherGeoError, InvalidParameter
from fishergeo.verify import replay_witness


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in battery JSON")


@pytest.mark.parametrize(
    "config",
    [
        {"battery": "monotonicity_metric", "trials": 0},
        {"battery": "crb", "trials": 0},
        {"battery": "prop6", "trials": -3},
        {"battery": "invariance", "n_max": 2},
        {"battery": "monotonicity_cometric", "n_max": 1},
        {"battery": "weak_invariance", "alphas": []},
        {"battery": "weak_invariance", "grid_count": 0},
        {"battery": "weak_invariance", "n_max": 2},
        {"battery": "characterize", "family": "COV", "trials": 0},
    ],
)
def test_empty_or_undersized_runs_are_rejected(config):
    with pytest.raises(InvalidParameter):
        run_battery(config)


@pytest.mark.parametrize("step", [0.0, -1e-4, float("nan")])
def test_bad_weak_invariance_step_is_rejected(step):
    with pytest.raises(InvalidParameter, match="step"):
        batteries.battery_weak_invariance(n_max=3, step=step)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(batteries._BATTERIES)),
    trials=st.integers(-2, 3),
    n_max=st.integers(-1, 4),
    grid_count=st.integers(-1, 2),
    alphas=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=2),
)
def test_runs_are_rejected_or_finite(name, trials, n_max, grid_count, alphas):
    config = {"battery": name, "n_max": n_max, "seed": 3}
    if name == "weak_invariance":
        config.update(grid_count=grid_count, alphas=alphas)
    else:
        config["trials"] = trials
    if name == "characterize":
        config.update(family="COV", denominator_bound=8)
    try:
        report = run_battery(config)
    except InvalidParameter:
        return
    assert report.trials >= 1
    json.loads(json.dumps(report.to_json()), parse_constant=_reject_constant)


class TestConfig:
    def test_unknown_key_is_named(self):
        with pytest.raises(InvalidParameter, match="trails"):
            run_battery({"battery": "crb", "trails": 5})

    def test_bad_family_rejected_before_any_trial(self, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(batteries, "check_prop6_identity", no_trial)
        with pytest.raises(InvalidParameter, match="family"):
            run_battery({"battery": "prop6", "family": 5})
        with pytest.raises(InvalidParameter, match="family"):
            run_battery({"battery": "characterize", "family": 5})

    def test_type_error_inside_a_battery_propagates(self, monkeypatch):
        def broken(rng, **params):
            raise TypeError("bug inside the battery")

        spec = dataclasses.replace(batteries._BATTERIES["crb"], draw=broken)
        monkeypatch.setitem(batteries._BATTERIES, "crb", spec)
        with pytest.raises(TypeError, match="bug inside the battery"):
            run_battery({"battery": "crb", "trials": 2})


@pytest.mark.parametrize("name", ["monotonicity_metric", "monotonicity_cometric"])
def test_violations_are_shrunk_tagged_and_replayable(monkeypatch, name):
    # Monotonicity holds, so no real trial violates it: drop both witness
    # thresholds to make every trial a violation and follow the witness path.
    monkeypatch.setattr(verify_module, "VIOLATION_TOL", -np.inf)
    spec = dataclasses.replace(batteries._BATTERIES[name], violation_tol=-np.inf)
    monkeypatch.setitem(batteries._BATTERIES, name, spec)
    report = run_battery({"battery": name, "trials": 4, "n_max": 5, "seed": 7})
    assert report.status == "violation"
    assert [w.detail for w in report.witnesses] == [f"seed=7 trial={t}" for t in range(4)]
    for witness in report.witnesses:
        assert (witness.kind, witness.m, witness.n) == (name, 2, 2)
        assert np.float64(replay_witness(witness)).tobytes() == np.float64(witness.gap).tobytes()


#: Any JSON value: integers small enough to run, plus some beyond the range
#: a JSON integer may carry.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(-3, 6) | st.sampled_from([2**53, 2**64, -(2**63)]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=5,
)
#: A small valid config per battery, for one key to be replaced.
SMALL_CONFIGS = {
    "monotonicity_metric": {"trials": 2, "n_max": 3},
    "monotonicity_cometric": {"trials": 2, "n_max": 3},
    "invariance": {"trials": 2, "n_max": 3},
    "strong_invariance": {"trials": 2, "n_max": 3},
    "prop6": {"trials": 2, "n_max": 3},
    "crb": {"trials": 2, "n_max": 3},
    "weak_invariance": {"n_max": 3, "grid_count": 1, "alphas": [0.0]},
    "characterize": {"family": "COV", "n_max": 3, "denominator_bound": 8, "trials": 1},
}
INT_KEYS = {"trials", "n_max", "seed", "grid_count", "denominator_bound"}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def well_typed(key: str, value) -> bool:
    """Whether ``value`` has the type of config key ``key`` (range aside)."""
    if key in INT_KEYS:
        return isinstance(value, int) and not isinstance(value, bool)
    if key == "step":
        return is_number(value)
    if key == "alphas":
        return isinstance(value, list) and all(is_number(v) for v in value)
    if key == "mismatched":
        return isinstance(value, bool)
    return key == "family" and isinstance(value, str)


def test_small_configs_cover_every_battery():
    assert sorted(SMALL_CONFIGS) == sorted(batteries._BATTERIES)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_any_json_value_gives_a_report_or_a_typed_error(data, value):
    """Any value for any key runs or raises a FisherGeoError; a value of the
    wrong type (a bool for an integer among them) raises InvalidParameter
    naming the key."""
    name = data.draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    key = data.draw(st.sampled_from(sorted(batteries._BATTERIES[name].defaults) + ["bogus"]))
    config = {**SMALL_CONFIGS[name], "battery": name, key: value}
    if not well_typed(key, value):
        with pytest.raises(InvalidParameter, match=key):
            run_battery(config)
        return
    try:
        report = run_battery(config)
    except FisherGeoError:
        return
    assert isinstance(report.trials, int) and isinstance(report.seed, int)
    json.dumps(report.to_json())


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_checks_are_called_through_the_module_namespace(monkeypatch, name):
    """A tracer rebinds the module's names: a check or kernel the spec
    captured at import time would run outside the trace. A battery with a
    kernel calls it once per run; the others call their check once per
    trial. The crb draw calls its estimator kernel once per run, and its
    noise draw once per trial. The weak_invariance and prop6 kernels check
    all their trials in one call and never call the single-trial check."""
    spec = batteries._BATTERIES[name]
    called = [spec.kernel or spec.check]
    config = SMALL_CONFIGS[name]
    if name == "crb":
        called += ["unbiased_estimators_kernel", "estimator_noise"]
    if name in ("weak_invariance", "prop6"):
        called += [spec.check]
    if name == "weak_invariance":
        config = {**config, "alphas": [-1.0, 0.0, 1.0]}
    calls = dict.fromkeys(called, 0)
    for key in called:
        original = getattr(batteries, key)

        def counted(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(batteries, key, counted)
    report = run_battery({"battery": name, **config})
    batched = spec.kernel is not None or name == "characterize"
    expected = {called[0]: 1 if batched else report.trials}
    if name == "crb":
        expected.update(unbiased_estimators_kernel=1, estimator_noise=report.trials)
    if name in ("weak_invariance", "prop6"):
        assert report.trials == {"weak_invariance": 3, "prop6": 2}[name]
        expected[spec.check] = 0
    if name == "prop6":
        assert expected == {"prop6_kernel": 1, "check_prop6_identity": 0}
    assert calls == expected
