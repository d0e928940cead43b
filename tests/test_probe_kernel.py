"""The probe steps and the family matrix against the frozen copies.

Each probe step (the uniform probe, the consistency lift, the rational
point, the continuity step and the bilinearity check), ``rationalize``, the
best rational approximation, the constant fit and the family matrix are held
to their one frozen copy in ``frozen_probe``: every matrix entry, constant,
residual, witness and gap must be the same float, compared through
``float.hex`` (a witness's case through ``same_arrays``), or the same error
type must be raised. Grammar families, plugins and a subclass that keeps its
own ``__call__`` are drawn alike, and a plugin's calls are held to the
frozen copy's calls.
"""
from __future__ import annotations

import dataclasses
import math
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fishergeo import verify
from fishergeo.errors import SizeMismatch
from fishergeo.families import CandidateFamily, parse_family
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace, new_distribution, uniform
from fishergeo.verify import (
    Witness,
    _best_rational_approximations,
    _continuity_errors,
    _fit_constants,
    _pair_matrices,
    characterize,
    check_bilinearity,
    probe_consistency,
    probe_rational,
    probe_uniform,
    rationalize,
)
from frozen_probe import (
    PLUGINS,
    Logged,
    Plugin,
    _cov,
    frozen_best_rational_approximation,
    frozen_call,
    frozen_check_bilinearity,
    frozen_continuity_errors,
    frozen_fit_constants,
    frozen_matrix,
    frozen_pair_matrix,
    frozen_probe_consistency,
    frozen_probe_rational,
    frozen_probe_uniform,
    frozen_rationalize,
    partition_surjection,
)
from witness_bits import witness_bits


# PK(+-400) overflows and underflows on purpose; both sides warn alike.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)


def pair_matrix(family, p: Distribution, rows, cols) -> np.ndarray:
    """``_pair_matrices`` on a batch of one: the family's matrix at p."""
    return next(_pair_matrices(family, p.weights[None], np.asarray(rows)[None], np.asarray(cols)[None]))[0]


def uniform_table(family):
    """The frozen uniform probe of each size, evaluated once per size, as ``characterize`` reads it."""
    return cache(partial(frozen_probe_uniform, family))


def bits(value):
    """Exact content: floats as float.hex, witnesses by ``witness_bits``."""
    if isinstance(value, Witness):
        return witness_bits(value)
    if isinstance(value, np.ndarray):
        return bits(value.tolist())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def outcome(fn, *args, **kwargs):
    """The exact result of a call, or the type of the error it raised."""
    try:
        return bits(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc).__name__


ATOMS = st.one_of(
    st.sampled_from(["L2", "MM", "COV"]),
    st.integers(-3, 3).map(lambda k: f"PK({k})"),
    st.sampled_from(["PK(400)", "PK(-400)"]),
)
COEFFS = st.one_of(st.just(""), st.integers(-3, 3).map(lambda c: f"{c}*"), st.integers(-8, 8).map(lambda c: f"{c / 4!r}*"))
GRAMMAR = st.lists(st.tuples(COEFFS, ATOMS), min_size=1, max_size=3).map(
    lambda terms: parse_family(" + ".join(c + a for c, a in terms))
)
FAMILIES = st.one_of(GRAMMAR, st.sampled_from(PLUGINS))
CONSTANTS = st.one_of(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    st.sampled_from([(1.0, -1.0), (math.nan, 1.0), (math.inf, 0.0), (0.5, -math.inf)]),
)


def rational_point(n: int, denominator: int, seed: int) -> Distribution:
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(denominator - n, np.full(n, 1.0 / n)) + 1
    return new_distribution(SampleSpace(n), counts / denominator)


@settings(max_examples=150, deadline=None)
@given(family=FAMILIES, n=st.integers(2, 6))
@example(family=parse_family("PK(-400)"), n=6)
@example(family=parse_family("PK(400)"), n=6)
def test_probe_uniform_bitwise(family, n):
    probe = verify._uniform_table(family, [n], verify._Phase(family))
    assert outcome(probe, n) == outcome(frozen_probe_uniform, family, n)
    assert outcome(probe_uniform, family, n) == outcome(lambda: frozen_probe_uniform(family, n)[0])


@settings(max_examples=150, deadline=None)
@given(family=FAMILIES, m=st.integers(2, 3), n=st.integers(2, 6))
@example(family=parse_family("PK(-400)"), m=2, n=6)
@example(family=parse_family("1*L2 + 1*PK(-400)"), m=3, n=3)
@example(family=PLUGINS[3], m=2, n=3)
def test_probe_consistency_bitwise(family, m, n):
    assert outcome(probe_consistency, family, m, n) == outcome(
        frozen_probe_consistency, family, m, n, uniform_table(family)
    )


@settings(max_examples=150, deadline=None)
@given(
    family=FAMILIES,
    n=st.integers(2, 6),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    constants=CONSTANTS,
)
def test_probe_rational_bitwise(family, n, data, seed, constants):
    denominator = data.draw(st.integers(n, 32), label="denominator")
    bound = data.draw(st.integers(denominator, 40), label="bound")
    p = rational_point(n, denominator, seed)
    matrix = pair_matrix(family, p, np.eye(n), np.eye(n))
    frozen = frozen_pair_matrix(family, p, np.eye(n), np.eye(n))
    assert outcome(_fit_constants, p.weights, matrix) == outcome(frozen_fit_constants, p.weights, frozen)
    assert outcome(probe_rational, family, p, bound, constants) == outcome(
        frozen_probe_rational, family, p, bound, constants
    )


@settings(max_examples=60, deadline=None)
@given(family=FAMILIES, n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), constants=CONSTANTS)
@example(family=Plugin("cov", _cov), n=3, seed=1, constants=(5.0, 0.0))
@example(family=parse_family("COV"), n=4, seed=2, constants=(5.0, 0.0))
def test_rational_probes_match_the_frozen_step_at_every_point(family, n, seed, constants):
    """A stack of three rational points, read to its end: each point's result and
    witness, whichever side it reads (the lift or, with constants far off, the
    target), is the frozen step's at that point, for a grammar family's one stack
    and for a plugin's stacks of one point."""
    points = [rational_point(n, denominator, seed + k) for k, denominator in enumerate((n, 2 * n + 1, 24))]
    stack = np.array([point.weights for point in points])
    found = outcome(lambda: list(verify._rational_probes(family, stack, 30, constants, verify._Phase(family))))
    assert found == outcome(lambda: [frozen_probe_rational(family, point, 30, constants) for point in points])


@settings(max_examples=60, deadline=None)
@given(family=FAMILIES, n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_continuity_errors_bitwise(family, n, seed):
    weights = 1e-3 + (1.0 - n * 1e-3) * np.random.default_rng(seed).dirichlet(np.ones(n))
    spot = new_distribution(SampleSpace(n), weights)
    bounds = [8, 16, 32]
    assert outcome(lambda: list(_continuity_errors(family, spot.weights, bounds))) == outcome(
        frozen_continuity_errors, family, spot, bounds
    )


@pytest.mark.parametrize("expression", ["PK(2)", "1*L2 + 1*PK(-3)", "1*COV + 2*PK(0)"])
def test_references_find_witnesses(expression):
    """The comparison is not vacuous: grammar families reach the witness paths."""
    family = parse_family(expression)
    assert frozen_probe_consistency(family, 2, 3, uniform_table(family)).witness is not None
    p = rational_point(4, 12, seed=1)
    base, _ = frozen_probe_uniform(family, 4)
    assert frozen_probe_rational(family, p, 12, (4 * base.a, 16 * base.b)).witness is not None


@st.composite
def indicator_cases(draw):
    """A point and indicator rows on its space: the identity rows of an
    n-point space, or the lifts of those rows through a partition
    surjection of at most 240 points, at a uniform or a random point."""
    n = draw(st.integers(2, 6), label="n")
    if draw(st.booleans(), label="lift"):
        counts = draw(st.lists(st.integers(1, 240 // n), min_size=n, max_size=n), label="counts")
        surjection = partition_surjection(np.array(counts))
        space, rows = surjection.domain, np.eye(n)[:, surjection.map0]
    else:
        space, rows = SampleSpace(n), np.eye(n)
    if draw(st.booleans(), label="uniform"):
        return uniform(space), rows
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    flat = np.random.default_rng(seed).dirichlet(np.ones(space.size))
    return new_distribution(space, 0.5 / space.size + 0.5 * flat), rows


@settings(max_examples=300, deadline=None)
@given(family=GRAMMAR, case=indicator_cases())
@example(family=parse_family("PK(-400)"), case=(uniform(SampleSpace(6)), np.eye(6)))
@example(family=parse_family("PK(400)"), case=(uniform(SampleSpace(6)), np.eye(6)))
@example(family=parse_family("1*L2 + -0.75*MM + 2*PK(-400)"), case=(uniform(SampleSpace(4)), np.eye(4)))
def test_indicator_matrix_bitwise(family, case):
    p, rows = case
    expected = outcome(frozen_matrix, family, p, rows, rows)
    assert outcome(family.matrix, p, rows, rows) == expected
    assert outcome(pair_matrix, family, p, rows, rows) == expected


@st.composite
def row_cases(draw):
    """A point and two sets of rows on its space. Each set is Gaussian rows
    (C- or F-ordered, 1 to 4 of them, so A and B may differ in count) or the
    unit rows: the identity of an n-point space or, on the domain of a
    partition surjection, the F-ordered lifts ``np.eye(n)[:, map0]``."""
    n = draw(st.integers(2, 6), label="n")
    if draw(st.booleans(), label="lift"):
        counts = draw(st.lists(st.integers(1, 60 // n), min_size=n, max_size=n), label="counts")
        surjection = partition_surjection(np.array(counts))
        space, units = surjection.domain, np.eye(n)[:, surjection.map0]
    else:
        space, units = SampleSpace(n), np.eye(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="uniform"):
        p = uniform(space)
    else:
        p = new_distribution(space, 0.5 / space.size + 0.5 * rng.dirichlet(np.ones(space.size)))

    def rows(label):
        kind = draw(st.sampled_from(["units", "gaussian", "gaussian F"]), label=label)
        if kind == "units":
            return units
        gaussian = rng.normal(size=(draw(st.integers(1, 4), label=f"{label} count"), space.size))
        return np.asfortranarray(gaussian) if kind == "gaussian F" else gaussian

    return p, rows("A"), rows("B")


GAUSSIAN_6 = np.random.default_rng(6).normal(size=(3, 6))


@settings(max_examples=300, deadline=None)
@given(family=GRAMMAR, case=row_cases())
@example(family=parse_family("PK(-400)"), case=(uniform(SampleSpace(6)), GAUSSIAN_6, np.eye(6)))
@example(family=parse_family("PK(400)"), case=(uniform(SampleSpace(6)), np.eye(6), GAUSSIAN_6))
@example(
    family=parse_family("1*L2 + -0.75*MM + 2*PK(-400)"),
    case=(uniform(SampleSpace(6)), np.asfortranarray(GAUSSIAN_6), GAUSSIAN_6[:1]),
)
def test_matrix_bitwise(family, case):
    """Every entry of ``matrix`` is the per-pair sum on its pair."""
    p, rows_a, rows_b = case
    matrix = family.matrix(p, rows_a, rows_b)
    assert matrix.shape == (len(rows_a), len(rows_b))
    assert bits(matrix) == bits(frozen_matrix(family, p, rows_a, rows_b))
    assert bits(pair_matrix(family, p, rows_a, rows_b)) == bits(matrix)


@settings(max_examples=200, deadline=None)
@given(family=GRAMMAR, case=row_cases())
def test_call_bitwise(family, case):
    p, rows_a, rows_b = case
    a, b = RandomVariable(p.space, rows_a[0]), RandomVariable(p.space, rows_b[-1])
    value = family(p, a, b)
    assert type(value) is float
    assert bits(value) == bits(frozen_call(family, p, a, b))


@settings(max_examples=150, deadline=None)
@given(family=FAMILIES, n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
@example(family=parse_family("PK(-40)"), n=6, seed=0)
@example(family=parse_family("PK(-400)"), n=6, seed=0)
@example(family=PLUGINS[1], n=3, seed=0)
def test_check_bilinearity_bitwise(family, n, seed):
    assert outcome(check_bilinearity, family, n, seed) == outcome(
        frozen_check_bilinearity, family, n, seed
    )


@pytest.mark.parametrize(
    "rows, error",
    [
        pytest.param([[1.0, 0.0], [0.0, 1.0]], SizeMismatch, id="rows3-SizeMismatch"),  # wrong length
        pytest.param([1.0, 0.0, 0.0], SizeMismatch, id="rows4-SizeMismatch"),  # not a matrix
    ],
)
def test_indicator_matrix_rejects_other_rows(rows, error):
    family, p, units = parse_family("COV"), uniform(SampleSpace(3)), np.eye(3)
    with pytest.raises(error):
        family.matrix(p, np.array(rows), units)
    with pytest.raises(error):
        family.matrix(p, units, np.array(rows))


class Doubled(CandidateFamily):
    """A grammar subclass whose call differs from the grammar's matrix."""

    def __call__(self, p, a, b) -> float:
        return 2.0 * super().__call__(p, a, b) + 1.0


def test_subclass_keeps_its_own_call():
    family = Doubled("doubled PK(2)", parse_family("PK(2)").terms)
    p, units = rational_point(4, 12, seed=3), np.eye(4)
    matrix = pair_matrix(family, p, units, units)
    assert bits(matrix) == bits(frozen_pair_matrix(family, p, units, units))
    assert bits(matrix) != bits(parse_family("PK(2)").matrix(p, units, units))


class Logged:
    """A plugin that records every pair it is called on."""

    def __init__(self, family):
        self.family, self.name, self.log = family, family.name, []

    def __call__(self, p, a, b) -> float:
        self.log.append((p.weights.tobytes(), a.values.tobytes(), b.values.tobytes()))
        return self.family(p, a, b)


@pytest.mark.parametrize("n_max, plugin_calls", [(4, 759), (6, 2129)])
def test_characterize_calls_grammar_families_never(monkeypatch, n_max, plugin_calls):
    """A grammar family is evaluated through ``matrix`` only: ``characterize``
    makes no ``__call__``, where per-pair bilinearity and ii1 checks made 84
    (n_max 4) and 140 (n_max 6). A plugin is still called once per pair: 759
    and 2129 calls on a passing run, as with the per-pair checks, and the
    bilinearity check calls it pair for pair in the reference's order."""
    calls = []
    call = CandidateFamily.__call__
    monkeypatch.setattr(
        CandidateFamily, "__call__", lambda self, p, a, b: calls.append(self.name) or call(self, p, a, b)
    )
    assert characterize(parse_family("COV"), n_max=n_max).passed
    assert calls == []

    plugin = Logged(Plugin("cov", _cov))
    assert characterize(plugin, n_max=n_max).passed
    assert len(plugin.log) == plugin_calls
    for family in (Plugin("cov", _cov), *PLUGINS):
        logged, reference = Logged(family), Logged(family)
        check_bilinearity(logged, n_max, seed=n_max)
        frozen_check_bilinearity(reference, n_max, seed=n_max)
        assert logged.log == reference.log and len(logged.log) == 24


def rationalize_outcome(fn, p, bound):
    """The result with its types (int denominator, int-array counts) or the error type."""
    try:
        m, counts = fn(p, bound)
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc).__name__
    return type(m).__name__, m, counts.dtype.str, counts.shape, counts.tolist()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 6),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["rational", "irrational", "below n"]),
)
def test_rationalize_bitwise(n, data, seed, kind):
    if kind == "irrational":
        weights = 1e-3 + (1.0 - n * 1e-3) * np.random.default_rng(seed).dirichlet(np.ones(n))
        p = new_distribution(SampleSpace(n), weights)
        bound = data.draw(st.integers(n, 300), label="bound")
    elif kind == "rational":
        p = rational_point(n, data.draw(st.integers(n, 200), label="denominator"), seed)
        bound = data.draw(st.integers(n, 300), label="bound")
    else:
        p = rational_point(n, data.draw(st.integers(n, 40), label="denominator"), seed)
        bound = data.draw(st.integers(-3, n - 1), label="bound")
    assert rationalize_outcome(rationalize, p, bound) == rationalize_outcome(
        frozen_rationalize, p, bound
    )


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dirichlet", "pushed", "rational"]),
    denominator=st.integers(8, 128),
)
def test_best_rational_approximation_bitwise(n, seed, kind, denominator):
    """The one-pass denominator scan picks the loop's counts at every bound
    its callers pass, each from its prefix of the scan at the largest bound:
    interior points, weights pushed to 1e-6, and exact rationals k/D, whose
    remainders tie."""
    rng = np.random.default_rng(seed)
    if kind == "dirichlet":
        weights = 1e-3 + (1.0 - n * 1e-3) * rng.dirichlet(np.ones(n))
    elif kind == "pushed":
        weights = 1e-6 + (1.0 - n * 1e-6) * rng.dirichlet(np.full(n, 0.05))
    else:
        weights = rational_point(n, denominator, seed).weights
    bounds = [8, 16, 32, 64]
    assert bits(_best_rational_approximations(weights, bounds)) == bits(
        [frozen_best_rational_approximation(weights, bound) for bound in bounds]
    )


def test_rationalize_scans_past_the_first_block():
    """A hit beyond the first block, and a bound that ends inside a block."""
    p = new_distribution(SampleSpace(3), np.array([1, 2, 300]) / 303)
    for bound in (302, 303, 304, 1000):
        assert rationalize_outcome(rationalize, p, bound) == rationalize_outcome(
            frozen_rationalize, p, bound
        )
    assert rationalize(p, 1000)[0] == 303


@pytest.mark.parametrize("n_max, calls", [(6, 8), (5, 7), (4, 5)])
def test_characterize_evaluates_each_uniform_matrix_once(monkeypatch, n_max, calls):
    """Each size 2..n_max and 2n is requested once, as the uniform lift of
    one count per point; an order that probed both sizes of every
    consistency pair again made 23 probes at n_max 6."""
    sizes = []
    lifted = verify._lifted_pair_matrix

    def counted(family, n, counts, phase):
        if np.ndim(counts) == 0 and counts == 1:
            sizes.append(n)
        return lifted(family, n, counts, phase)

    monkeypatch.setattr(verify, "_lifted_pair_matrix", counted)
    assert characterize(parse_family("COV"), n_max=n_max).passed
    expected = sorted({*range(2, n_max + 1), *(2 * n for n in range(2, n_max + 1))})
    assert sorted(sizes) == expected and len(expected) == calls


#: family -> (matrix_rows calls of one characterize call at the probe
#: workload's sizes, n_max 5, bound 32, trials 4, seed 0; why exactly that many).
MATRIX_ROWS_CALLS = {
    "COV": (
        19,
        "phase 1 makes one call per outcome count: 2..5 (the bilinearity points and the uniform "
        "probes) and 6, 8, 10 (the uniform probes at 2n and the lifts); phase 2 one call for each "
        "of 2..5 (the rational, ii1 and continuity points) and one for each of the 8 other "
        "denominators of the rational points' lifts, 7, 11, 15, 19, 21, 26, 28 and 30",
    ),
    "PK(2)": (
        4,
        "the bilinearity checks read the calls at 2..5, which hold the uniform probes at 2..5 and "
        "the lift from 4 to 2 points; its witness ends the run before 6, 8 or 10 are read",
    ),
}


@pytest.mark.parametrize("family", sorted(MATRIX_ROWS_CALLS))
def test_characterize_makes_one_matrix_rows_call_per_outcome_count(monkeypatch, family):
    """A grammar family's phase is evaluated by one ``matrix_rows`` call per
    outcome count it reads; one call per step made 47 for COV and 13 for
    PK(2), so a fall back to stacks per step raises the count."""
    sizes = []
    matrix_rows = CandidateFamily.matrix_rows

    def counted(self, w, rows_a, rows_b):
        sizes.append(w.shape[1])
        return matrix_rows(self, w, rows_a, rows_b)

    monkeypatch.setattr(CandidateFamily, "matrix_rows", counted)
    result = characterize(family, n_max=5, denominator_bound=32, trials=4, seed=0)
    assert result.passed == (family == "COV")
    calls, _ = MATRIX_ROWS_CALLS[family]
    assert len(sizes) == calls
