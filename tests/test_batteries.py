"""The battery driver: run-size and config checks, and the witness path."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishergeo.batteries as batteries
import fishergeo.verify as verify_module
from fishergeo.batteries import run_battery
from fishergeo.errors import InvalidParameter
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
        def broken(trials: int = 1, n_max: int = 2, seed: int = 0):
            raise TypeError("bug inside the battery")

        monkeypatch.setitem(batteries._BATTERIES, "crb", broken)
        with pytest.raises(TypeError, match="bug inside the battery"):
            run_battery({"battery": "crb", "trials": 2})


@pytest.mark.parametrize("name", ["monotonicity_metric", "monotonicity_cometric"])
def test_violations_are_shrunk_tagged_and_replayable(monkeypatch, name):
    # Monotonicity holds, so no real trial violates it: drop both witness
    # thresholds to make every trial a violation and follow the witness path.
    monkeypatch.setattr(verify_module, "VIOLATION_TOL", -np.inf)
    monkeypatch.setitem(batteries._drive.__kwdefaults__, "violation_tol", -np.inf)
    report = run_battery({"battery": name, "trials": 4, "n_max": 5, "seed": 7})
    assert report.status == "violation"
    assert [w.detail for w in report.witnesses] == [f"seed=7 trial={t}" for t in range(4)]
    for witness in report.witnesses:
        assert (witness.kind, witness.m, witness.n) == (name, 2, 2)
        assert np.float64(replay_witness(witness)).tobytes() == np.float64(witness.gap).tobytes()
