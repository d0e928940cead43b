"""The battery driver: run-size and config checks, and the witness path."""
from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishergeo.batteries as batteries
import fishergeo.connections as connections_module
import fishergeo.models as models_module
import fishergeo.verify as verify_module
from fishergeo.batteries import run_battery
from fishergeo.errors import FisherGeoError, InvalidParameter
from fishergeo.verify import Witness, replay_witness
from witness_bits import same_arrays, witness_bits


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


@pytest.mark.parametrize("step", [1e-17, 1e-300, 5e-324])
@pytest.mark.parametrize("mismatched", [False, True])
def test_weak_invariance_step_that_vanishes_against_the_grid_is_rejected(step, mismatched):
    """Lost in xi +- step at every grid point, such a step would give a
    residual of 0.0, and a mismatched control that reads 0.0 too."""
    with pytest.raises(InvalidParameter, match="vanishes"):
        run_battery({"battery": "weak_invariance", "n_max": 4, "step": step, "mismatched": mismatched})


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

        # what _drive calls: the prop6 spec's draw and kernel, and characterize
        spec = dataclasses.replace(batteries._BATTERIES["prop6"], draw=no_trial)
        monkeypatch.setitem(batteries._BATTERIES, "prop6", spec)
        monkeypatch.setattr(batteries, spec.kernel, no_trial)
        monkeypatch.setattr(batteries, "characterize", no_trial)
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
    """Monotonicity holds, so no real trial violates it: drop the witness
    threshold, the driver's and the Witness's, to make every trial a
    violation and follow the witness path. A witness is no longer shrunk:
    it stores its trial as drawn, at the drawn sizes, and replays bitwise."""
    monkeypatch.setattr(verify_module, "VIOLATION_TOL", -np.inf)
    monkeypatch.setattr(batteries, "VIOLATION_TOL", -np.inf)
    report = run_battery({"battery": name, "trials": 4, "n_max": 5, "seed": 7})
    assert report.status == "violation"
    assert [w.detail for w in report.witnesses] == [f"seed=7 trial={t}" for t in range(4)]
    cases = batteries._BATTERIES[name].draw(np.random.default_rng(7), rounds=4, n_max=5)
    for witness, case in zip(report.witnesses, cases):
        assert (witness.kind, witness.n, witness.m) == (name, *case["kernel"].shape)
        assert same_arrays(witness.case, case) and np.isfortran(witness.case["kernel"])
        assert np.float64(replay_witness(witness)).tobytes() == np.float64(witness.gap).tobytes()


#: Battery -> (its kernel, a config whose every trial is a witness when the threshold is dropped).
ONE_CALL = {
    "monotonicity_metric": ("monotonicity_metric_kernel", {"trials": 10, "n_max": 5}),
    "monotonicity_cometric": ("monotonicity_cometric_kernel", {"trials": 10, "n_max": 5}),
    "crb": ("crb_kernel", {"trials": 10, "n_max": 5}),
    "invariance": ("invariance_kernel", {"trials": 10, "n_max": 6}),
    "strong_invariance": ("strong_invariance_kernel", {"trials": 10, "n_max": 6}),
    "weak_invariance": ("weak_invariance_residual_kernel", {"n_max": 4, "grid_count": 1}),
}


@pytest.mark.parametrize("name", sorted(ONE_CALL))
def test_a_run_makes_one_kernel_call_however_many_witnesses_it_records(monkeypatch, name):
    """With every trial a witness, the run calls its kernel once, under
    every name it goes by: each witness is built from the report that
    judged it, not by evaluating its case again. Each replays bitwise."""
    kernel, config = ONE_CALL[name]
    monkeypatch.setattr(verify_module, "VIOLATION_TOL", -np.inf)
    monkeypatch.setattr(batteries, "VIOLATION_TOL", -np.inf)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kernel)
        return original(*args, **kwargs)

    original = getattr(batteries, kernel)
    for module in (batteries, verify_module, models_module):
        if hasattr(module, kernel):
            monkeypatch.setattr(module, kernel, counted)
    report = run_battery({"battery": name, "seed": 3, **config})
    assert len(calls) == 1
    assert len(report.witnesses) == report.trials >= 6
    calls.clear()
    for witness in report.witnesses:
        assert np.float64(replay_witness(witness)).tobytes() == np.float64(witness.gap).tobytes()
    assert len(calls) == len(report.witnesses)


#: Battery -> a small config: with the witness threshold dropped, each of its trials is a witness.
ROUND_TRIP = {
    "monotonicity_metric": {"trials": 4, "n_max": 6},
    "monotonicity_cometric": {"trials": 4, "n_max": 6},
    "invariance": {"trials": 4, "n_max": 6},
    "strong_invariance": {"trials": 4, "n_max": 6},
    "prop6": {"trials": 4, "n_max": 6, "family": "PK(2)"},
    "crb": {"trials": 4, "n_max": 5},
    "weak_invariance": {"n_max": 4, "grid_count": 1, "alphas": [0.5]},
    "characterize": {"family": "PK(2)", "n_max": 3, "denominator_bound": 8, "trials": 1},
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_witness_replays_bitwise_in_memory_and_from_its_json(name, seed):
    """Every witness of a run, as it is and as read back from its JSON text,
    is the same witness and replays to its gap bitwise; a channel kernel
    stays column-major, as drawn, through both."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (verify_module, batteries):
            patch.setattr(module, "VIOLATION_TOL", -np.inf)
        report = run_battery({"battery": name, "seed": seed, **ROUND_TRIP[name]})
        assert report.witnesses
        for witness in report.witnesses:
            read = Witness.from_json(json.loads(json.dumps(witness.to_json())))
            assert witness_bits(read) == witness_bits(witness)
            for replayed in (witness, read):
                assert float(replay_witness(replayed)).hex() == float(witness.gap).hex()
                if name.startswith("monotonicity"):
                    assert np.isfortran(replayed.case["kernel"])


#: The batteries whose draws bound n_max, each with a small config at its bound.
MAX_N = {
    "monotonicity_metric": (999, {"trials": 2}),
    "monotonicity_cometric": (999, {"trials": 2}),
    "weak_invariance": (50, {"grid_count": 1, "alphas": [0.0]}),
}


@pytest.mark.parametrize("name", sorted(MAX_N))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_an_n_max_past_the_bound_is_rejected_before_any_draw(monkeypatch, name, seed):
    """Past its bound the draw would fail at some seeds only (a channel
    column or a grid point that cannot keep its floor): the config reader
    rejects it whatever the seed, naming n_max and the range."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setitem(batteries._BATTERIES, name, dataclasses.replace(batteries._BATTERIES[name], draw=no_draw))
    max_n, config = MAX_N[name]
    min_n = batteries._BATTERIES[name].min_n
    message = f"n_max must be an integer in [{min_n}, {max_n}], got {max_n + 1}"
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        run_battery({"battery": name, "n_max": max_n + 1, "seed": seed, **config})


@pytest.mark.parametrize("name", sorted(MAX_N))
def test_an_n_max_at_the_bound_runs(name):
    max_n, config = MAX_N[name]
    report = run_battery({"battery": name, "n_max": max_n, "seed": 1, **config})
    assert report.status == "pass" and report.n_max == max_n


@pytest.mark.parametrize("shift, status, witnesses", [(5e-7, "inconclusive", 0), (1e-3, "violation", 5)])
def test_a_crb_violation_is_judged_at_the_witness_threshold(monkeypatch, shift, status, witnesses):
    """V - shift * I in place of V: a smallest eigenvalue of about -shift.
    At 5e-7 it falls between the crb pass tolerance (1e-8, scaled) and the
    witness threshold, so the run is inconclusive and builds no witness; at
    1e-3 every trial is a violation whose witness replays bitwise."""
    cov_rows = models_module.cov_rows
    monkeypatch.setattr(
        models_module, "cov_rows", lambda w, a, b: cov_rows(w, a, b) - shift * np.eye(a.shape[1])
    )
    report = run_battery({"battery": "crb", "trials": 5, "n_max": 4, "seed": 0})
    assert (report.status, len(report.witnesses)) == (status, witnesses)
    for witness in report.witnesses:
        assert witness.kind == "crb" and witness.gap > shift / 2
        assert np.float64(replay_witness(witness)).tobytes() == np.float64(witness.gap).tobytes()


def test_a_crb_witness_stores_the_residual_the_battery_judges(monkeypatch):
    """With V - 1e-3 * I in place of V, every trial is a violation. Each
    witness's gap is the scaled residual that set the status, so the
    report's worst residual is its largest gap, bit for bit; the witness
    keeps the smallest eigenvalue itself as its left side."""
    cov_rows = models_module.cov_rows
    monkeypatch.setattr(models_module, "cov_rows", lambda w, a, b: cov_rows(w, a, b) - 1e-3 * np.eye(a.shape[1]))
    report = run_battery({"battery": "crb", "trials": 5, "n_max": 4, "seed": 0})
    assert (report.status, len(report.witnesses)) == ("violation", 5)
    gaps = [witness.gap for witness in report.witnesses]
    assert np.float64(report.max_residual).tobytes() == np.float64(max(gaps)).tobytes()
    for witness in report.witnesses:
        assert witness.lhs < -witness.gap < 0.0
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


@pytest.mark.parametrize("name", sorted(set(SMALL_CONFIGS) - {"characterize"}))
def test_a_run_seeds_one_generator(monkeypatch, name):
    """Every battery but ``characterize``, whose bilinearity steps seed their
    own, draws all its cases from the run's one generator: no drawn object
    seeds a generator of its own."""
    seeds = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        seeds.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    report = run_battery({"battery": name, "seed": 3, **SMALL_CONFIGS[name]})
    assert report.trials >= 1
    assert seeds == [(3,)]


def test_a_crb_run_makes_no_lstsq_call(monkeypatch):
    """The CRB noise is projected through one stacked QR per model size, not
    by a least-squares solve per estimator row."""
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refused)
    report = run_battery({"battery": "crb", "seed": 3, "trials": 12, "n_max": 6})
    assert report.trials == 12 and report.status == "pass"


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_checks_are_called_through_the_module_namespace(monkeypatch, name):
    """A tracer rebinds the module's names: a check or kernel the spec
    captured at import time would run outside the trace. A battery with a
    kernel calls it once per run; the others call their check once per
    trial. The crb draw calls its estimator kernel once per run and draws
    its noise in blocks, without ``estimator_noise``. The weak_invariance
    and prop6 kernels check all their trials in one call and never call the
    single-case check, ``connections.weak_invariance_check`` or
    ``verify.check_prop6_identity``."""
    spec = batteries._BATTERIES[name]
    called = [(batteries, spec.kernel or spec.check)]
    config = SMALL_CONFIGS[name]
    if name == "crb":
        called += [(batteries, "unbiased_estimators_kernel"), (models_module, "estimator_noise")]
    single = {"weak_invariance": "weak_invariance_check", "prop6": "check_prop6_identity"}
    if name in single:
        called += [(connections_module if name == "weak_invariance" else verify_module, single[name])]
    if name == "weak_invariance":
        config = {**config, "alphas": [-1.0, 0.0, 1.0]}
    calls = dict.fromkeys((key for _, key in called), 0)
    for module, key in called:
        original = getattr(module, key)

        def counted(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, key, counted)
    report = run_battery({"battery": name, **config})
    batched = spec.kernel is not None or name == "characterize"
    expected = {called[0][1]: 1 if batched else report.trials}
    if name == "crb":
        expected.update(unbiased_estimators_kernel=1, estimator_noise=0)
    if name in single:
        assert report.trials == {"weak_invariance": 3, "prop6": 2}[name]
        expected[single[name]] = 0
    if name == "prop6":
        assert expected == {"prop6_kernel": 1, "check_prop6_identity": 0}
    assert calls == expected


@pytest.mark.parametrize("name", sorted(batteries._BATTERIES))
def test_each_spec_names_one_evaluator(name):
    """A spec names its single-case check or its kernel, never both."""
    spec = batteries._BATTERIES[name]
    assert (spec.check is None) != (spec.kernel is None)
    assert callable(getattr(batteries, spec.check or spec.kernel))
