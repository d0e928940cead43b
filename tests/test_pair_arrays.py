"""The pair batteries' array path against their frozen object path.

The ``invariance``, ``strong_invariance`` and ``prop6`` draws yield each
trial as arrays (the 0-based map, the fiber matrix, the points and the
variable rows), and their kernels check those arrays through the
constructors' ``require_*`` helpers. ``frozen_pairs`` keeps the path they
replaced, which built and checked one object per drawn input. The suites
below hold the array path to it:

- the draws give the same rows, bitwise;
- every residual and report is the same float (``float.hex``), and every
  witness the same kind, sizes, sides, gap and detail bitwise and the same
  case arrays (``same_arrays``), and it replays bitwise; the
  ``invariance`` check's fifth residual, ``sharp``, which the frozen path
  lacks, is held to its exact budget (``test_exact_oracle``) instead, and
  the report's and witness's worst residual to the worst of all five;
- a batch with bad rows raises the error type and message that its first
  failing trial raises alone on the object path: a map out of range or not
  onto, mass off a fiber, a fiber that does not sum to 1, a non-finite
  value, an uncentered (or non-canonical) input, a row of the wrong length;
- a run builds none of the objects, passing or under a metric mutant.

The weak-invariance battery and the probe read pairs and lifts as arrays
too: the ``weak_invariance`` draw yields each trial's map and points as
arrays (in law those of its former object draw, ``test_draw_law``) and
builds no object; a run, matched or mismatched, builds no ``Surjection``, ``EmbeddingPair`` or
``Channel``; a ``crb`` draw builds one ``Distribution`` per trial, where it
built two; and ``characterize`` builds no ``Surjection``, and no
``Distribution`` when the family decomposes.
"""
from __future__ import annotations

import ast
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_pairs
from fishergeo import batteries, geometry, verify
from fishergeo.errors import BadFloor, BadSize, FisherGeoError
from fishergeo.families import parse_family
from fishergeo.geometry import CotangentVector, TangentVector
from fishergeo.markov import Channel, EmbeddingPair, Surjection, random_surjection, random_surjection_map
from fishergeo.simplex import (
    Distribution, RandomVariable, SampleSpace, interior_rows, sample_interior, sample_interior_weights,
)
from test_battery_pins import PINS
from witness_bits import same_arrays, witness_bits
from test_exact_oracle import sharp_budget
from test_negative_controls import metric_over_p_power

KINDS = ("invariance", "strong_invariance", "prop6")
DRAWS = {
    "invariance": batteries._draw_invariance,
    "strong_invariance": batteries._draw_strong_invariance,
    "prop6": batteries._draw_prop6,
}
KERNELS = {
    "invariance": verify.invariance_kernel,
    "strong_invariance": verify.strong_invariance_kernel,
    "prop6": verify.prop6_kernel,
}
FAMILIES = {"COV": parse_family("COV"), "PK(2)": parse_family("PK(2)"), "PK(-1)": parse_family("PK(-1)")}
#: The float rows of each kind's case.
ROWS = {
    "invariance": ("fibers", "q", "a", "b", "x", "y"),
    "strong_invariance": ("fibers", "q", "a", "b"),
    "prop6": ("fibers", "p", "a", "b"),
}


def draw(kind: str, seed: int, rounds: int, n_max: int, family: str = "COV", new: bool = True) -> list[dict]:
    """The battery's draw, or with ``new`` False the frozen draw taken apart into arrays."""
    rng = np.random.default_rng(seed)
    params = {"family": FAMILIES[family]} if kind == "prop6" else {}
    if new:
        return DRAWS[kind](rng, rounds=rounds, n_max=n_max, **params)
    cases = frozen_pairs.DRAWS[kind](rng, rounds=rounds, n_max=n_max, **params)
    return [frozen_pairs.arrays(kind, case) for case in cases]


def bits(report) -> tuple:
    """Every float of a report as ``float.hex``, its status and its witness's ``witness_bits``."""
    if isinstance(report, verify.Prop6Report):
        witness = witness_bits(report.witness)
        floats = (report.lhs, report.rhs, report.residual)
        return tuple(float(v).hex() for v in floats) + (report.status, witness)
    # the frozen path's keys: invariance's fifth, ``sharp``, is held to its exact budget by ``outcome``
    residuals = {key: v for key, v in report.residuals.items() if key != "sharp"}
    return (
        tuple((key, float(v).hex()) for key, v in residuals.items()),
        float(max(residuals.values())).hex(), report.status,
    )


def outcome(kind: str, cases: list[dict]):
    try:
        reports = KERNELS[kind](**frozen_pairs.columns(cases))
    except FisherGeoError as exc:
        return type(exc), str(exc)
    if kind == "invariance":
        for case, report in zip(cases, reports):
            assert report.residuals["sharp"] <= sharp_budget(case)
            assert report.max_residual == max(report.residuals.values())
    return [bits(r) for r in reports]


def reference(kind: str, cases: list[dict]):
    found = frozen_pairs.outcome(kind, cases)
    return found if isinstance(found, tuple) else [bits(r) for r in found]


# ---------------------------------------------------------------------------
# Draws and reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 30), n_max=st.integers(3, 9))
def test_draws_are_the_frozen_draws(kind, seed, rounds, n_max):
    new, old = draw(kind, seed, rounds, n_max), draw(kind, seed, rounds, n_max, new=False)
    assert len(new) == len(old) == rounds
    assert all(same_arrays(a, b) for a, b in zip(new, old))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 20), n_max=st.integers(3, 9),
    family=st.sampled_from(sorted(FAMILIES)),
)
def test_reports_are_the_frozen_reports(kind, seed, rounds, n_max, family):
    cases = draw(kind, seed, rounds, n_max, family)
    assert outcome(kind, cases) == reference(kind, cases)


@pytest.mark.parametrize("kind", ["invariance", "strong_invariance"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 8), n_max=st.integers(3, 8))
def test_witnesses_are_the_frozen_witnesses_and_replay_to_their_arrays(kind, seed, rounds, n_max):
    """With every gap a witness, each trial's witness is the frozen one:
    its fields bitwise and its case arrays equal; it replays bitwise from
    memory and from its JSON text, and reads back the drawn arrays."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "VIOLATION_TOL", -np.inf)
        for trial, case in enumerate(draw(kind, seed, rounds, n_max)):
            detail = f"seed={seed} trial={trial}"
            witness = verify.Witness.from_case(kind, case, verify._KINDS[kind].evaluate(case), detail)
            frozen = frozen_pairs.pair_witness(frozen_pairs.objects(kind, case), detail)
            if kind == "invariance":  # the gap is the worst of the frozen path's residuals and ``sharp``
                gap = max(frozen.gap, verify._one(verify.invariance_kernel, **case).residuals["sharp"])
                frozen = replace(frozen, lhs=gap, gap=gap)
            assert witness_bits(witness) == witness_bits(frozen)
            assert same_arrays(witness.case, case)
            read = verify.Witness.from_json(json.loads(json.dumps(witness.to_json())))
            assert same_arrays(read.case, case)
            for replayed in (witness, read):
                assert float(verify.replay_witness(replayed)).hex() == float(witness.gap).hex()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 12), n_max=st.integers(3, 7))
def test_prop6_witnesses_replay_to_their_arrays(seed, rounds, n_max):
    cases = draw("prop6", seed, rounds, n_max, "PK(2)")
    for case, report in zip(cases, verify.prop6_kernel(**frozen_pairs.columns(cases))):
        if report.witness is not None:
            read = verify.Witness.from_json(json.loads(json.dumps(report.witness.to_json())))
            for witness in (report.witness, read):
                assert float(verify.replay_witness(witness)).hex() == float(report.witness.gap).hex()
                assert same_arrays(witness.case, case)


# ---------------------------------------------------------------------------
# Bad rows: what the first failing trial raises alone
# ---------------------------------------------------------------------------


DEFECTS = (
    "map_out_of_range", "map_not_onto", "mass_off_fiber", "fiber_sum", "non_finite",
    "uncentered", "wrong_length", "bad_weights",
)


def spoil(kind: str, case: dict, defect: str, rng: np.random.Generator) -> dict:
    """The case with one defect, every row copied."""
    case = {key: value if key == "family" else np.array(value) for key, value in case.items()}
    maps, fibers = case["surjection"], case["fibers"]
    m, n = fibers.shape
    point = "p" if kind == "prop6" else "q"
    y = int(rng.integers(n))
    if defect == "map_out_of_range":
        maps[y] = rng.choice([-1, m, m + 3])
    elif defect == "map_not_onto":
        maps[:] = maps[y]
    elif defect == "mass_off_fiber":
        x = int(rng.integers(m))
        fibers[x, y] = 0.0 if maps[y] == x else 0.25
    elif defect == "fiber_sum":
        fibers[int(rng.integers(m))] *= 1.0 + 10.0 ** rng.uniform(-11, -1)
    elif defect == "non_finite":
        key = ROWS[kind][int(rng.integers(len(ROWS[kind])))]
        row = case[key].reshape(-1)
        row[int(rng.integers(row.size))] = rng.choice([np.nan, np.inf, -np.inf])
    elif defect == "uncentered":
        # the representatives of prop6, the m-representations of invariance,
        # and the big point of strong invariance, which must be the canonical one
        key = {"prop6": "ab", "invariance": "xy", "strong_invariance": "q"}[kind]
        key = key[int(rng.integers(len(key)))]
        if key == "q":
            case["q"] = case["q"][::-1].copy()
        else:
            case[key] = case[key] + 10.0 ** rng.uniform(-12, 0)
    elif defect == "wrong_length":
        key = ROWS[kind][int(rng.integers(len(ROWS[kind])))]
        if key == "fibers":
            case[key] = fibers[:, :-1]
        else:
            case[key] = case[key][:-1] if rng.random() < 0.5 else np.append(case[key], 0.5)
    else:
        w = case[point]
        if rng.random() < 0.5:
            w[int(rng.integers(w.size))] = -rng.random()
        else:
            w *= 1.0 + 10.0 ** rng.uniform(-11, -1)
    return case


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 6), n_max=st.integers(3, 7),
    defects=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(DEFECTS)), min_size=1, max_size=3),
)
def test_bad_rows_raise_what_the_object_path_raises(kind, seed, rounds, n_max, defects):
    cases = draw(kind, seed, rounds, n_max)
    rng = np.random.default_rng(seed)
    for trial, defect in defects:
        trial %= rounds
        cases[trial] = spoil(kind, cases[trial], defect, rng)
    expected = reference(kind, cases)
    assert outcome(kind, cases) == expected


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("defect", DEFECTS)
def test_each_defect_is_rejected(kind, defect):
    """Each defect, alone in trial 1 of 3, makes the batch raise (the
    spoiled rows of ``strong_invariance`` are not canonical, the
    representatives of ``prop6`` not centered)."""
    cases = draw(kind, 5, 3, 6)
    cases[1] = spoil(kind, cases[1], defect, np.random.default_rng(0))
    expected = reference(kind, cases)
    assert isinstance(expected, tuple)
    assert outcome(kind, cases) == expected


# ---------------------------------------------------------------------------
# The single-case array draws against their object draws (the battery draws
# against the object draws in law: test_draw_law)
# ---------------------------------------------------------------------------


def frozen_random_surjection(n: int, m: int, seed: int) -> Surjection:
    if not 2 <= m <= n:
        raise BadSize(f"need 2 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(values)
    return Surjection(SampleSpace(n), SampleSpace(m), tuple(int(v) for v in values))


def frozen_sample_interior(space: SampleSpace, seed: int, floor: float = 1e-6) -> Distribution:
    draw = np.random.default_rng(seed).dirichlet(np.ones(space.size))
    return Distribution(space, interior_rows(draw, floor))


def same_bytes(value, other) -> bool:
    value, other = np.asarray(value, dtype=float), np.asarray(other, dtype=float)
    return value.shape == other.shape and value.tobytes() == other.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12), pick=st.integers(0, 10), seed=st.integers(0, 2**32 - 1),
    floor=st.sampled_from([1e-6, 1e-3, 0.02]),
)
def test_the_object_draws_wrap_the_array_draws(n, pick, seed, floor):
    """``random_surjection`` and ``sample_interior`` give their former objects."""
    m = 2 + pick % (n - 1)
    assert random_surjection(n, m, seed).map0 == frozen_random_surjection(n, m, seed).map0
    assert all(type(v) is int for v in random_surjection(n, m, seed).map0)
    assert random_surjection_map(n, m, seed).tolist() == list(frozen_random_surjection(n, m, seed).map0)
    if floor < 1.0 / n:
        point = sample_interior(SampleSpace(n), seed, floor)
        assert same_bytes(point.weights, frozen_sample_interior(SampleSpace(n), seed, floor).weights)
        assert same_bytes(sample_interior_weights(n, seed, floor), point.weights)


def test_the_array_draws_reject_what_the_object_draws_reject():
    for n, m in ((3, 1), (3, 4), (1, 1)):
        with pytest.raises(BadSize, match="need 2 <= m <= n"):
            random_surjection_map(n, m, 0)
    with pytest.raises(BadSize, match="size >= 2"):
        sample_interior_weights(1, 0)
    with pytest.raises(BadFloor):
        sample_interior_weights(3, 0, floor=0.4)


# ---------------------------------------------------------------------------
# No objects between the draw and the kernel
# ---------------------------------------------------------------------------


CLASSES = (Surjection, EmbeddingPair, Channel, Distribution, RandomVariable, TangentVector, CotangentVector)


@pytest.fixture()
def built(monkeypatch) -> Counter:
    """Counts the constructions of the seven classes a pair trial once built."""
    counts: Counter = Counter()
    for cls in CLASSES:
        def counting(self, _check=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def test_the_count_sees_every_class(built):
    p = Distribution(SampleSpace(2), [0.5, 0.5])
    x = TangentVector(p, [1.0, -1.0])
    alpha = CotangentVector(p, RandomVariable(p.space, [1.0, -1.0]))
    pair = EmbeddingPair(Surjection.from_one_based([1, 1, 2]), np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    assert x is not None and alpha is not None and pair.embedding_channel is not None
    assert sorted(built) == sorted(cls.__name__ for cls in CLASSES)


@pytest.mark.parametrize("config", [
    {"battery": "invariance", "trials": 100, "n_max": 8},
    {"battery": "strong_invariance", "trials": 100, "n_max": 8},
    {"battery": "prop6", "trials": 50, "n_max": 6, "family": "COV"},
    {"battery": "prop6", "trials": 50, "n_max": 6, "family": "PK(2)"},
], ids=["invariance", "strong_invariance", "prop6_cov", "prop6_pk2"])
def test_a_run_builds_no_objects(built, config):
    report = batteries.run_battery(config)
    assert report.status == ("violation" if config.get("family") == "PK(2)" else "pass")
    assert built == Counter()


@pytest.mark.parametrize("battery", ["invariance", "strong_invariance"])
def test_a_caught_mutant_builds_no_objects(monkeypatch, built, battery):
    """Under the Euclidean metric every trial is a witness, and the
    witnesses are built from the trials' arrays."""
    mutant = metric_over_p_power(0)
    monkeypatch.setattr(geometry, "fisher_metric_rows", mutant)
    monkeypatch.setattr(verify, "fisher_metric_rows", mutant)
    report = batteries.run_battery({"battery": battery, "trials": 100, "n_max": 8, "seed": 0})
    assert len(report.witnesses) == 100
    assert built == Counter()


@pytest.mark.parametrize("pin", ["weak_invariance", "weak_invariance_mismatched"])
def test_a_weak_invariance_run_builds_no_pair_or_channel(built, pin):
    """The draw yields each trial's map and points as arrays, and the
    kernel reads its pair as the map and canonical fiber matrix. The
    Distributions of a run are the model points of its stencils."""
    spec = batteries._BATTERIES["weak_invariance"]
    params = {**spec.defaults, **PINS[pin]}
    cases = spec.draw(np.random.default_rng(params["seed"]), rounds=spec.rounds(params), **params)
    assert built == Counter()
    report = batteries.run_battery(dict(PINS[pin]))
    assert report.passed and report.trials == len(cases)
    assert report.trials == {"weak_invariance": 9, "weak_invariance_mismatched": 3}[pin]
    assert (built["Surjection"], built["EmbeddingPair"], built["Channel"]) == (0, 0, 0)


@pytest.mark.parametrize("rounds", [1, 7])
def test_a_crb_draw_builds_no_distribution(built, rounds):
    """Each trial's point xi is drawn as weights, and the categorical rows
    form evaluates the points of its estimators as weight rows; when each
    point was a Distribution the draw built one per trial."""
    cases = batteries._draw_crb(np.random.default_rng(rounds), rounds, 5)
    assert len(cases) == rounds
    assert built["Distribution"] == 0


def benchmark_decomposing_families() -> list[str]:
    """The families that ``perfbench/workloads.py`` runs ``characterize`` on and expects to decompose."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text())
    (value,) = (node.value for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "DECOMPOSING")
    return list(ast.literal_eval(value))


@pytest.mark.parametrize("family", benchmark_decomposing_families())
def test_a_passing_characterize_builds_no_distribution(built, family):
    """Every step reads its points as weight rows, the continuity spot and
    its rational approximations too; the sizes are the benchmark's."""
    result = verify.characterize(family, n_max=5, denominator_bound=32, trials=4, seed=11)
    assert result.passed and result.continuity_errors
    assert built == Counter()


@pytest.mark.parametrize("family", ["COV", "PK(2)"])
def test_characterize_builds_no_surjection(built, family):
    """The probe lifts through 0-based maps; a PK(2) witness stores the
    sizes of its lift, the case of its consistency step."""
    result = verify.characterize(family, n_max=5, denominator_bound=32, trials=4)
    assert result.passed == (family == "COV")
    assert built["Surjection"] == 0
    if family == "PK(2)":
        case = result.witness.case
        assert (case["family"].name, case["m"], case["n"]) == ("PK(2)", 2, 2)
