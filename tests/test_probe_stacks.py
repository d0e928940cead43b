"""The probe's stacked family evaluation and the prop6 kernel against the frozen copies.

``CandidateFamily.matrix_rows`` evaluates a family at a stack of points,
``verify.prop6_kernel`` checks a batch of pairing trials, and
``characterize`` evaluates the points of each sampled step as one stack per
size. ``frozen_probe`` keeps the code they replaced: the frozen ``matrix``,
``check_prop6_identity`` and the ``characterize`` pipeline. The tests hold
the new code to it through ``float.hex`` or the JSON text, or to the same
error type and message, and hold a plugin family to the same calls in the
same order.
"""
from __future__ import annotations

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import frozen_probe
from fishergeo import batteries, families
from fishergeo import verify as verify_module
from fishergeo.errors import FisherGeoError, InvalidParameter, NotCentered, SizeMismatch, by_shape
from fishergeo.families import parse_family
from fishergeo.geometry import delta
from fishergeo.markov import apply, canonical_embedding, random_surjection
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace, uniform
from fishergeo.verify import (
    PASS_TOL,
    VIOLATION_TOL,
    Prop6Report,
    _flatten_dirichlet,
    characterize,
    check_bilinearity,
    check_prop6_identity,
    prop6_kernel,
    replay_witness,
)
from frozen_pairs import arrays, objects
from frozen_probe import (
    _BILINEARITY_TRIALS,
    PLUGINS,
    Logged,
    Plugin,
    _cov,
    frozen_characterize,
    frozen_check_bilinearity,
    frozen_check_prop6_identity,
    frozen_matrix,
)
from test_frozen_scalars import boundary_weights, hexes, values
from test_probe_kernel import GRAMMAR

# PK(+-400) overflows and underflows on purpose; both sides warn alike.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:divide by zero encountered:RuntimeWarning",
)

# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


def outcome(run):
    """The result's exact content, or the error raised."""
    try:
        return run()
    except FisherGeoError as exc:
        return type(exc), str(exc)


def report_bits(report: Prop6Report):
    witness = None if report.witness is None else json.dumps(report.witness.to_json())
    return (
        float(report.lhs).hex(), float(report.rhs).hex(), float(report.residual).hex(),
        report.status, witness,
    )


def kernel_outcome(cases):
    columns = {key: [case[key] for case in cases] for key in cases[0]}
    return outcome(lambda: [report_bits(r) for r in prop6_kernel(**columns)])


def frozen_outcome(cases):
    """The frozen check trial by trial, on the objects of each array case."""
    return outcome(
        lambda: [report_bits(frozen_check_prop6_identity(**objects("prop6", case))) for case in cases]
    )


# ---------------------------------------------------------------------------
# matrix_rows
# ---------------------------------------------------------------------------


ATOMS = st.one_of(st.sampled_from(["L2", "MM", "COV"]), st.integers(-3, 5).map(lambda k: f"PK({k})"))
COEFFS = st.sampled_from(["", "-1*", "0.5*", "3*", "-0.75*", "1e-3*", "1e3*"])
FAMILIES = st.lists(st.tuples(COEFFS, ATOMS), min_size=1, max_size=3).map(
    lambda terms: parse_family(" + ".join(c + a for c, a in terms))
)


@st.composite
def stacks(draw):
    """Weights (T, n) on 2 to 39 outcomes with up to three weights per point
    pushed near 1e-9, and two stacks of rows: scaled Gaussian rows, the unit
    rows or the lifts ``np.eye(m)[:, map0]`` of a surjection onto m points,
    each stack C- or F-ordered as a whole."""
    count = draw(st.integers(1, 4), label="T")
    n = draw(st.integers(2, 39), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    pushed = draw(st.integers(0, 3), label="pushed")
    w = np.array([boundary_weights(rng, n, pushed) for _ in range(count)])

    def rows(label):
        kind = draw(st.sampled_from(["gaussian", "units", "lifts"]), label=label)
        if kind == "units":
            stack = np.broadcast_to(np.eye(n), (count, n, n)).copy()
        elif kind == "lifts":
            m = draw(st.integers(2, n), label=f"{label} m")
            map0 = random_surjection(n, m, seed=int(rng.integers(2**32))).map0
            stack = np.array([np.eye(m)[:, map0] for _ in range(count)])
        else:
            stack = values(rng, (count * draw(st.integers(1, 4), label=f"{label} r"), n))
            stack = stack.reshape(count, -1, n)
        return np.asfortranarray(stack) if draw(st.booleans(), label=f"{label} F") else stack

    return w, rows("A"), rows("B")


@settings(max_examples=250, deadline=None)
@given(family=FAMILIES, case=stacks())
@example(family=parse_family("PK(-3) + PK(5)"), case=(
    np.array([[1e-9, 0.5, 0.5 - 1e-9]]), np.eye(3)[None], np.asfortranarray(np.eye(3)[None])
))
def test_matrix_rows_matches_the_frozen_matrix(family, case):
    """Each slice of the stack, and ``matrix`` at its point, is the frozen
    ``matrix`` of that point, bitwise."""
    w, rows_a, rows_b = case
    stacked = family.matrix_rows(w, rows_a, rows_b)
    assert stacked.shape == (len(w), rows_a.shape[1], rows_b.shape[1])
    for t in range(len(w)):
        p = Distribution(SampleSpace(w.shape[1]), w[t])
        expected = hexes(frozen_matrix(family, p, rows_a[t], rows_b[t]))
        assert hexes(stacked[t]) == expected
        assert hexes(family.matrix(p, rows_a[t], rows_b[t])) == expected


@pytest.mark.parametrize(
    "rows",
    [np.eye(2), np.ones(3), np.ones((1, 3, 3)), np.ones((0, 2))],
    ids=["short", "vector", "stack", "empty-short"],
)
def test_matrix_rejects_what_the_frozen_matrix_rejects(rows):
    family, p = parse_family("COV"), uniform(SampleSpace(3))
    for args in ((rows, np.eye(3)), (np.eye(3), rows)):
        assert outcome(lambda: family.matrix(p, *args)) == outcome(
            lambda: frozen_matrix(family, p, *args)
        )


def test_matrix_rows_needs_one_row_stack_per_point():
    family, w = parse_family("MM"), np.full((2, 3), 1 / 3)
    with pytest.raises(SizeMismatch, match=r"expected rows of length 3, got shape \(3, 3\)"):
        family.matrix_rows(w, np.ones((3, 3, 3)), np.ones((2, 3, 3)))


@settings(max_examples=100, deadline=None)
@given(family=FAMILIES, case=stacks(), block_floats=st.integers(1, 300))
def test_matrix_rows_in_row_blocks_matches_the_frozen_matrix(family, case, block_floats):
    """Blocks from one row of ``rows_a`` up to all of them: each entry keeps
    its own last-axis sums, so every slice is the frozen ``matrix``, bitwise."""
    w, rows_a, rows_b = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "_BLOCK_FLOATS", block_floats)
        stacked = family.matrix_rows(w, rows_a, rows_b)
    for t in range(len(w)):
        p = Distribution(SampleSpace(w.shape[1]), w[t])
        assert hexes(stacked[t]) == hexes(frozen_matrix(family, p, rows_a[t], rows_b[t]))


def test_indicator_matrix_at_240_outcomes_in_bounded_memory():
    """The n x n indicator matrix at n = 240, as the probe evaluates it at the
    lifts of ``n_max`` 120. The whole (n, n, n) product and its weighted copy
    peak at 222 MB of traced memory; the row blocks stay under 25 MB. The
    frozen ``matrix`` of each entry depends on its own row of A only, so it
    is evaluated 24 rows at a time."""
    n = 240
    family = parse_family("2*PK(2) + COV")
    p = Distribution(SampleSpace(n), boundary_weights(np.random.default_rng(240), n, 3))
    eye = np.eye(n)
    tracemalloc.start()
    try:
        matrix = family.matrix(p, eye, eye)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = np.concatenate([frozen_matrix(family, p, eye[i : i + 24], eye) for i in range(0, n, 24)])
    assert hexes(matrix) == hexes(expected)
    assert peak < 25e6


# ---------------------------------------------------------------------------
# prop6_kernel
# ---------------------------------------------------------------------------


def prop6_case(seed: int, n_max: int, pushed: int, family) -> dict:
    """A pairing trial as arrays: the battery's draw, or with ``pushed`` > 0
    a canonical pair, point and variables whose weights are pushed near 1e-9
    and whose values are scaled by 1e-5..1e5. A draw the objects reject is
    skipped."""
    rng = np.random.default_rng(seed)
    if not pushed:
        return batteries._draw_prop6(rng, rounds=1, n_max=n_max, family=family)[0]
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, n))
    try:
        q = Distribution(SampleSpace(n), boundary_weights(rng, n, pushed))
        pair = canonical_embedding(random_surjection(n, m, seed=seed), q)
        p = Distribution(SampleSpace(m), boundary_weights(rng, m, pushed))
        alpha = delta(p, RandomVariable(p.space, values(rng, m)))
        q_img = apply(pair.embedding_channel, p)
        beta = delta(q_img, RandomVariable(q_img.space, values(rng, n)))
    except FisherGeoError:
        reject()
    return arrays("prop6", {"pair": pair, "p": p, "alpha": alpha, "beta": beta, "family": family})


PROP6_FAMILIES = st.one_of(
    FAMILIES,
    st.sampled_from(["COV", "PK(2)", "PK(-400)", "PK(400)", "1*L2 + 1*PK(-40)"]).map(parse_family),
    st.sampled_from([Plugin("cov", _cov), PLUGINS[0], PLUGINS[1]]),
)


@settings(max_examples=120, deadline=None)
@given(
    family=PROP6_FAMILIES,
    trials=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(3, 7), st.integers(0, 2)),
        min_size=1, max_size=6,
    ),
)
def test_prop6_kernel_matches_the_frozen_check(family, trials):
    """Mixed shapes and boundary points: every report, witness and error is
    the frozen check's, trial by trial, and the single case is the kernel
    on a batch of one."""
    cases = [prop6_case(seed, n_max, pushed, family) for seed, n_max, pushed in trials]
    assert kernel_outcome(cases) == frozen_outcome(cases)
    first = frozen_outcome(cases[:1])
    single = outcome(lambda: [report_bits(check_prop6_identity(**objects("prop6", cases[0])))])
    assert single == first


def drawn_cases(family, count: int, seed: int = 7, n_max: int = 6) -> list[dict]:
    rng = np.random.default_rng(seed)
    return batteries._draw_prop6(rng, rounds=count, n_max=n_max, family=family)


def with_shape(cases: list[dict], shape: tuple[int, int]) -> list[dict]:
    return [c for c in cases if (len(c["fibers"]), len(c["surjection"])) == shape]


def test_a_late_failure_before_an_early_failure_raises_the_late_one():
    """The first trial fails at the last of its checks, the second at the
    first of them, in one shape: the kernel raises the first trial's error,
    as the trial-by-trial loop does. On objects, the single case names the
    base that is wrong, as the frozen check does."""
    family = parse_family("COV")
    first, second, other = with_shape(drawn_cases(family, 200), (2, 4))[:3]
    # beta's representative centered at another image point: checked after
    # the image is built
    late = dict(first, b=other["b"])
    # alpha's representative centered at another small point: checked before
    early = dict(second, a=other["a"])
    cases = [late, early]
    expected = frozen_outcome(cases)
    assert expected[0] is NotCentered
    assert kernel_outcome(cases) == expected
    assert kernel_outcome(cases[::-1]) == frozen_outcome(cases[::-1])
    assert frozen_outcome(cases[::-1])[0] is NotCentered and frozen_outcome(cases[::-1]) != expected
    first, second, other = (objects("prop6", case) for case in (first, second, other))
    for bad, message in (
        (dict(first, beta=other["beta"]), "beta must be based at the embedded image of p"),
        (dict(second, alpha=other["alpha"]), "alpha must be based at p"),
    ):
        single = outcome(lambda: check_prop6_identity(**bad))
        assert single == outcome(lambda: frozen_check_prop6_identity(**bad)) == (InvalidParameter, message)


def test_a_nan_gap_before_an_early_failure_raises_the_nan_gap():
    """A PK(-400) trial fails only when its witness is built, after both
    sides are evaluated; an invalid trial of another shape and family after
    it fails at its first check. The first trial's error is raised."""
    cases = drawn_cases(parse_family("COV"), 20)
    nan_family = parse_family("PK(-400)")
    nan_trial = next(
        trial for trial in (dict(case, family=nan_family) for case in cases)
        if isinstance(frozen_outcome([trial]), tuple)
    )
    other = next(case for case in cases if case["surjection"] is not nan_trial["surjection"])
    m = len(other["p"])
    wrong_space = dict(other, p=uniform(SampleSpace(m + 1)).weights)
    batch = [nan_trial, wrong_space]
    expected = frozen_outcome(batch)
    assert expected[0] is InvalidParameter and expected[1].startswith("witness gap nan")
    assert kernel_outcome(batch) == expected
    assert kernel_outcome(batch[::-1]) == frozen_outcome(batch[::-1])
    assert frozen_outcome(batch[::-1]) == (SizeMismatch, f"expected length {m}, got {m + 1}")


def test_a_plugin_family_is_called_pair_by_pair_in_trial_order():
    """A plugin is called for lhs then rhs of each trial, in trial order,
    across shapes, with the same arguments as the trial-by-trial loop."""
    for plugin in (Plugin("cov", _cov), PLUGINS[1]):
        new, old = Logged(plugin), Logged(plugin)
        cases = drawn_cases(plugin, 12)
        assert len({(len(c["fibers"]), len(c["surjection"])) for c in cases}) > 2
        kernel = kernel_outcome([dict(c, family=new) for c in cases])
        assert kernel == frozen_outcome([dict(c, family=old) for c in cases])
        assert new.log == old.log and len(new.log) == 24


@pytest.mark.parametrize("kind", [int, np.float32], ids=lambda kind: kind.__name__)
def test_a_plugin_value_is_read_as_a_float(kind):
    """A plugin's two sides are read as float64, as every probe step reads a
    plugin's values: a plugin that returns a Python int or a numpy float32
    gives reports whose sides and residual are Python floats, the sides the
    frozen check's values and the residual their float64 gap."""
    plugin = Plugin(f"PK(2) as {kind.__name__}", lambda w, a, b: kind(100.0 * np.sum(w**2 * a * b)))
    cases = drawn_cases(plugin, 12)
    reports = prop6_kernel(**{key: [case[key] for case in cases] for key in cases[0]})
    frozen = [frozen_check_prop6_identity(**objects("prop6", case)) for case in cases]
    assert any(report.witness is not None for report in reports)
    for report, old in zip(reports, frozen):
        assert (type(report.lhs), type(report.rhs), type(report.residual)) == (float, float, float)
        assert (report.lhs, report.rhs) == (float(old.lhs), float(old.rhs))
        assert report.residual == abs(report.lhs - report.rhs)


def test_pk_minus_400_still_reports_a_nan_gap_as_bad_input():
    """ROADMAP item 4 owns this behaviour; the kernel keeps it."""
    with pytest.raises(InvalidParameter, match="^witness gap nan does not exceed 1e-06$"):
        batteries.run_battery({"battery": "prop6", "family": "PK(-400)", "trials": 20, "n_max": 6})
    cases = drawn_cases(parse_family("PK(-400)"), 20)
    assert kernel_outcome(cases) == frozen_outcome(cases)
    assert frozen_outcome(cases) == (InvalidParameter, "witness gap nan does not exceed 1e-06")


@pytest.fixture()
def checked(monkeypatch) -> list:
    """The weight stacks that ``verify`` checks, each kept, so that no two share an id."""
    stacks = []
    check = verify_module.require_weights

    def counting(w):
        stacks.append(w)
        return check(w)

    monkeypatch.setattr(verify_module, "require_weights", counting)
    return stacks


@pytest.mark.parametrize("family", ["COV", "PK(2)"])
def test_a_grammar_prop6_run_checks_each_point_stack_once(checked, family):
    """Per shape, the stack of points p (T, m) and the stack of their images
    (T, n) are checked once each; ``_pair_matrices`` checks neither again."""
    cases = drawn_cases(parse_family(family), 20)
    shapes = [(len(c["p"]), len(c["surjection"])) for c in cases]
    prop6_kernel(**{key: [case[key] for case in cases] for key in cases[0]})
    expected = Counter()
    for trials in by_shape(shapes):
        m, n = shapes[trials[0]]
        expected.update([(len(trials), m), (len(trials), n)])
    assert len(expected) > 2
    assert Counter(w.shape for w in checked) == expected
    assert len({id(w) for w in checked}) == len(checked)


def test_bilinearity_points_are_checked_once(checked):
    """The four drawn points are one stack, checked once for both sides."""
    assert check_bilinearity(parse_family("COV"), 5, 3) <= PASS_TOL
    assert [w.shape for w in checked] == [(_BILINEARITY_TRIALS, 5)]


@pytest.mark.parametrize("family, seed", [("COV", 0), ("PK(2)", 0), ("PK(2)", 3), ("PK(-1)", 5)])
def test_prop6_battery_matches_the_frozen_loop(family, seed):
    """The battery's own draws at the benchmark's size, trial by trial."""
    cases = drawn_cases(parse_family(family), 20, seed=seed)
    assert kernel_outcome(cases) == frozen_outcome(cases)


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


def unscaled_floor_dirichlet(rng: np.random.Generator, n: int) -> np.ndarray:
    """The bilinearity points' draw while its floor stayed 1e-3 at every n:
    past 1000 outcomes its weights can be negative."""
    draw = rng.dirichlet(np.ones(n))
    return 1e-3 + (1.0 - n * 1e-3) * draw


@pytest.mark.parametrize(
    "n, seed, first_bad", [(1100, 0, None), (1150, 0, 0), (1118, 14, 1), (1110, 9, 3)]
)
def test_bilinearity_points_are_checked_as_distributions(monkeypatch, n, seed, first_bad):
    """The stacked points raise what the first bad point's ``Distribution``
    raises, whichever of the four trials it is. The draw with the unscaled
    floor plants the bad points, in the stacked check and in the frozen one."""
    monkeypatch.setattr(verify_module, "_flatten_dirichlet", unscaled_floor_dirichlet)
    monkeypatch.setattr(frozen_probe, "_flatten_dirichlet", unscaled_floor_dirichlet)
    family = parse_family("COV")
    rng = np.random.default_rng(seed)
    bad = []
    for _ in range(_BILINEARITY_TRIALS):
        bad.append(bool(np.any(unscaled_floor_dirichlet(rng, n) <= 1e-12)))
        for size in (n, n, n, 2):
            rng.normal(size=size)
    assert (bad.index(True) if any(bad) else None) == first_bad
    expected = outcome(lambda: frozen_check_bilinearity(family, n, seed))
    assert isinstance(expected, tuple) == (first_bad is not None)
    assert outcome(lambda: check_bilinearity(family, n, seed)) == expected


@pytest.mark.parametrize("n, seed", [(1100, 0), (1150, 0), (1118, 14), (1110, 9)])
def test_bilinearity_points_stay_interior_past_1000_outcomes(n, seed):
    """The floor ``min(1e-3, 0.5 / n)`` leaves half the mass to the draw, so
    the seeds whose points fell below the weight floor now give interior
    points, and the covariance passes the check, bitwise as the frozen one."""
    rng = np.random.default_rng(seed)
    for _ in range(_BILINEARITY_TRIALS):
        w = _flatten_dirichlet(rng, n)
        assert w.min() >= 0.5 / n and abs(w.sum() - 1.0) <= 1e-12
        for size in (n, n, n, 2):
            rng.normal(size=size)
    family = parse_family("COV")
    assert check_bilinearity(family, n, seed) <= VIOLATION_TOL
    assert outcome(lambda: check_bilinearity(family, n, seed)) == outcome(
        lambda: frozen_check_bilinearity(family, n, seed)
    )


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1))
def test_bilinearity_points_are_unchanged_up_to_500_outcomes(n, seed):
    """Up to 500 outcomes the scaled floor is 1e-3, so every draw is the
    unscaled one, bitwise."""
    ours, unscaled = (draw(np.random.default_rng(seed), n)
                      for draw in (_flatten_dirichlet, unscaled_floor_dirichlet))
    assert hexes(ours) == hexes(unscaled)


CHARACTERIZE_FAMILIES = st.one_of(
    st.sampled_from(["COV", "L2", "MM", "2*COV", "1*L2 + 0.5*MM", "PK(2)", "PK(-1)", "PK(3)"]),
    FAMILIES,
    GRAMMAR,
    st.sampled_from(["PK(400)", "PK(-400)", "PK(-40)", "1*L2 + -0.75*MM + 2*PK(-400)"]).map(parse_family),
    st.sampled_from(PLUGINS + [Plugin("cov", _cov)]),
)


def characterize_outcome(run, family, n_max, bound, trials, seed):
    return outcome(lambda: json.dumps(run(family, n_max, bound, trials, seed).to_json()))


@settings(max_examples=150, deadline=None)
@given(
    family=CHARACTERIZE_FAMILIES,
    n_max=st.integers(2, 6),
    bound=st.sampled_from([6, 8, 16, 32, 64]),
    trials=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="COV", n_max=6, bound=64, trials=8, seed=0)
@example(family="1*L2 + 0.5*MM", n_max=5, bound=32, trials=4, seed=11)
@example(family="PK(2)", n_max=4, bound=16, trials=2, seed=0)
@example(family=PLUGINS[2], n_max=4, bound=16, trials=2, seed=1)
@example(family=PLUGINS[3], n_max=6, bound=64, trials=8, seed=0)
@example(family="PK(400)", n_max=6, bound=64, trials=8, seed=0)
@example(family="PK(-400)", n_max=6, bound=64, trials=8, seed=0)
@example(family="PK(-40)", n_max=6, bound=64, trials=8, seed=0)
@example(family=PLUGINS[0], n_max=4, bound=16, trials=2, seed=1)
@example(family=PLUGINS[2], n_max=4, bound=16, trials=2, seed=5)  # a witness at the second point of its stack
@example(family=PLUGINS[4], n_max=5, bound=32, trials=4, seed=3)
@example(family=PLUGINS[4], n_max=3, bound=8, trials=1, seed=0)
@example(family="COV", n_max=5, bound=32, trials=4, seed=242)
@example(family="L2", n_max=5, bound=32, trials=4, seed=495)
@example(family="MM", n_max=5, bound=32, trials=4, seed=717)
@example(family="2*COV", n_max=5, bound=32, trials=4, seed=189)
@example(family="1*L2 + 0.5*MM", n_max=5, bound=32, trials=4, seed=318)
@example(family="PK(2)", n_max=5, bound=32, trials=4, seed=490)
@example(family="PK(-1)", n_max=5, bound=32, trials=4, seed=841)
@example(family="PK(3)", n_max=5, bound=32, trials=4, seed=416)
def test_characterize_matches_the_frozen_copy(family, n_max, bound, trials, seed):
    """Decomposing and witnessing families, grammar and plugin: the same
    JSON text, or the same error. A grammar family's witness replays to its
    gap, bitwise."""
    args = (family, n_max, bound, trials, seed)
    found = characterize_outcome(characterize, *args)
    assert found == characterize_outcome(frozen_characterize, *args)
    if isinstance(found, str) and json.loads(found)["witness"] and not isinstance(family, Plugin):
        witness = characterize(*args).witness
        assert float(replay_witness(witness)).hex() == float(witness.gap).hex()


@pytest.mark.parametrize("plugin", [Plugin("cov", _cov), PLUGINS[2], PLUGINS[3]], ids=lambda p: p.name)
def test_characterize_calls_a_plugin_in_the_old_order(plugin):
    """Every sampled step calls a plugin point by point, pair by pair, in
    the frozen copy's order, up to the witness that ends the run."""
    new, old = Logged(plugin), Logged(plugin)
    assert characterize_outcome(characterize, new, 4, 16, 3, 2) == characterize_outcome(
        frozen_characterize, old, 4, 16, 3, 2
    )
    assert new.log == old.log and new.log
