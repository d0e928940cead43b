"""The pair-matrix probe kernel against the per-pair loops it replaced.

The reference below is the per-pair implementation of probe steps (a)-(d),
of the bilinearity check and of the ii1 check: each evaluates the family on
one pair at a time, lifts indicators with the frozen ``compose_variable`` of
``test_frozen_scalars`` and tracks its worst gap with a strict
``gap > worst`` scan. A grammar family is evaluated
there by ``reference_call``, the per-pair sum that ``CandidateFamily.__call__``
computed before ``CandidateFamily.matrix`` took over the grammar's arithmetic,
so no reference goes through ``matrix``; plugins and subclasses are called.
The kernel reads the same values into matrices and does the same float
operations on them, so every matrix entry, constant, residual, witness and
gap must be the same float, compared through ``float.hex`` (witnesses also
through their JSON text). The denominator loops stay here as the
references of the array ``rationalize`` and ``_best_rational_approximation``,
and ``partition_surjection`` and ``block_surjection`` are the frozen
surjections that the probe built before it lifted through 0-based maps.
``characterize`` evaluates each uniform indicator matrix once per run; its
reference keeps the older step order, in which every consistency probe
recomputes both of its uniform matrices.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fishergeo import verify
from fishergeo.errors import NotRational, SizeMismatch
from fishergeo.families import CandidateFamily, parse_family
from fishergeo.markov import Surjection
from fishergeo.simplex import (
    Distribution,
    RandomVariable,
    SampleSpace,
    new_distribution,
    uniform,
)
from fishergeo.verify import (
    PASS_TOL,
    RATIONAL_TOL,
    VIOLATION_TOL,
    CharacterizeResult,
    ConsistencyProbeResult,
    RationalProbeResult,
    UniformProbeResult,
    Witness,
    _best_rational_approximation,
    _continuity_errors,
    _fit_constants,
    _flatten_dirichlet,
    _floats,
    _format_constant,
    _pair_matrices,
    _witness_result,
    characterize,
    check_bilinearity,
    probe_consistency,
    probe_rational,
    probe_uniform,
    rationalize,
    replay_witness,
)
from test_frozen_scalars import compose_variable


# PK(+-400) overflows and underflows on purpose; both sides warn alike.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)


def indicator(space: SampleSpace, index: int) -> RandomVariable:
    """Indicator variable of one outcome (0-based index)."""
    values = np.zeros(space.size)
    values[index] = 1.0
    return RandomVariable(space, values)


def reference_call(family, p: Distribution, a: RandomVariable, b: RandomVariable) -> float:
    """One pair's value: a grammar family's terms summed one by one, with the
    float operations ``CandidateFamily.matrix`` must match; any other family
    is called."""
    if type(family) is not CandidateFamily:
        return family(p, a, b)
    product = a.values * b.values
    total = 0.0
    for coeff, kind, k in family.terms:
        if kind == "PK":
            total += coeff * float(np.sum(p.weights**k * product))
        else:
            total += coeff * float(np.dot(p.weights, a.values)) * float(
                np.dot(p.weights, b.values)
            )
    return total


def reference_pair_matrix(family, p: Distribution, rows, cols) -> np.ndarray:
    left = [RandomVariable(p.space, row) for row in rows]
    right = [RandomVariable(p.space, col) for col in cols]
    return np.array([[reference_call(family, p, a, b) for b in right] for a in left], dtype=float)


def pair_matrix(family, p: Distribution, rows, cols) -> np.ndarray:
    """``_pair_matrices`` on a batch of one: the family's matrix at p."""
    return next(_pair_matrices(family, p.weights[None], np.asarray(rows)[None], np.asarray(cols)[None]))


def reference_check_bilinearity(family, n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    space = SampleSpace(n)
    worst = 0.0
    for _ in range(verify._BILINEARITY_TRIALS):
        p = new_distribution(space, _flatten_dirichlet(rng, n))
        a1 = RandomVariable(space, rng.normal(size=n))
        a2 = RandomVariable(space, rng.normal(size=n))
        b = RandomVariable(space, rng.normal(size=n))
        s, t = rng.normal(size=2)
        combo = RandomVariable(space, s * a1.values + t * a2.values)
        h = functools.partial(reference_call, family, p)
        left = h(combo, b) - s * h(a1, b) - t * h(a2, b)
        right = h(b, combo) - s * h(b, a1) - t * h(b, a2)
        worst = max(worst, abs(left), abs(right))
    return worst


def reference_rationalize(p: Distribution, denominator_bound: int) -> tuple[int, np.ndarray]:
    w = p.weights
    n = w.shape[0]
    for m in range(n, denominator_bound + 1):
        counts = np.rint(w * m).astype(int)
        if np.all(counts >= 1) and int(counts.sum()) == m:
            if float(np.max(np.abs(w - counts / m))) <= RATIONAL_TOL:
                return m, counts
    raise NotRational(f"no rational representation with denominator <= {denominator_bound}")


def reference_best_rational_approximation(weights: np.ndarray, denominator_bound: int) -> Distribution:
    n = weights.shape[0]
    best: np.ndarray | None = None
    best_err = np.inf
    for m in range(n, denominator_bound + 1):
        floors = np.maximum(np.floor(weights * m).astype(int), 1)
        deficit = m - int(floors.sum())
        counts = floors.copy()
        if deficit > 0:
            remainders = weights * m - floors
            for idx in np.argsort(-remainders)[:deficit]:
                counts[idx] += 1
        elif deficit < 0:
            excess = floors - 1
            order = np.argsort(-(floors - weights * m))
            left = -deficit
            for idx in order:
                take = min(left, int(excess[idx]))
                counts[idx] -= take
                left -= take
                if left == 0:
                    break
            if left:
                continue
        err = float(np.max(np.abs(weights - counts / m)))
        if err < best_err:
            best_err = err
            best = counts / m
    assert best is not None
    return new_distribution(SampleSpace(n), best)


def reference_uniform_matrix(family, n: int) -> np.ndarray:
    space = SampleSpace(n)
    u = uniform(space)
    units = [indicator(space, i) for i in range(n)]
    matrix = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            matrix[i, j] = reference_call(family, u, units[i], units[j])
    return matrix


def reference_probe_uniform(family, n: int) -> UniformProbeResult:
    space = SampleSpace(n)
    u = uniform(space)
    units = [indicator(space, i) for i in range(n)]
    matrix = reference_uniform_matrix(family, n)
    off_mask = ~np.eye(n, dtype=bool)
    b = float(np.mean(matrix[off_mask]))
    a = float(np.mean(np.diag(matrix))) - b
    model = a * np.eye(n) + b
    residuals = np.abs(matrix - model)
    worst = float(np.max(residuals))
    witness = None
    if worst > VIOLATION_TOL:
        i, j = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
        witness = Witness(
            kind="uniform_shape", m=n, n=n,
            lhs=float(matrix[i, j]), rhs=float(model[i, j]), gap=worst,
            point=_floats(u.weights), a=_floats(units[i].values), b=_floats(units[j].values),
            family=family.name,
            detail=f"indicator pair ({i + 1}, {j + 1}) breaks permutation symmetry",
        )
    return UniformProbeResult(n, a, b, worst, witness)


def partition_surjection(counts: np.ndarray) -> Surjection:
    """Surjection collapsing consecutive blocks of the given sizes."""
    total = int(np.sum(counts))
    return Surjection(
        SampleSpace(total),
        SampleSpace(len(counts)),
        tuple(np.repeat(np.arange(len(counts)), counts).tolist()),
    )


def block_surjection(m: int, n: int) -> Surjection:
    """The surjection from an mn-point onto an n-point space by blocks of m."""
    return partition_surjection(np.full(n, m))


def reference_block_surjection(m: int, n: int) -> Surjection:
    return Surjection(SampleSpace(m * n), SampleSpace(n), tuple(i // m for i in range(m * n)))


def reference_probe_consistency(family, m: int, n: int) -> ConsistencyProbeResult:
    small = reference_probe_uniform(family, n)
    if small.witness is not None:
        return ConsistencyProbeResult(m, n, 0.0, 0.0, small.max_residual, small.witness)
    big = reference_probe_uniform(family, m * n)
    if big.witness is not None:
        return ConsistencyProbeResult(m, n, 0.0, 0.0, big.max_residual, big.witness)
    surjection = reference_block_surjection(m, n)
    u_small = uniform(SampleSpace(n))
    u_big = uniform(SampleSpace(m * n))
    worst = 0.0
    witness = None
    for i in range(n):
        for j in range(n):
            e_i = indicator(u_small.space, i)
            e_j = indicator(u_small.space, j)
            lhs = reference_call(family, u_small, e_i, e_j)
            rhs = reference_call(
                family, u_big, compose_variable(surjection, e_i), compose_variable(surjection, e_j)
            )
            gap = abs(lhs - rhs)
            if gap > worst:
                worst = gap
                if gap > VIOLATION_TOL:
                    witness = Witness(
                        kind="cross_dimension", m=n, n=m * n, lhs=lhs, rhs=rhs, gap=gap,
                        surjection=surjection.map0,
                        a=_floats(e_i.values), b=_floats(e_j.values), family=family.name,
                        detail=f"lift of indicator pair ({i + 1}, {j + 1}) "
                        "changes the uniform evaluation",
                    )
    c1_small, c2_small = n * small.a, n * n * small.b
    c1_big, c2_big = m * n * big.a, (m * n) ** 2 * big.b
    worst = max(worst, abs(c1_small - c1_big), abs(c2_small - c2_big))
    return ConsistencyProbeResult(m, n, c1_small, c2_small, worst, witness)


def reference_fit_constants(family, p: Distribution) -> tuple[float, float]:
    n = p.space.size
    units = [indicator(p.space, i) for i in range(n)]
    features = []
    targets = []
    for i in range(n):
        for j in range(n):
            l2 = p.weights[i] if i == j else 0.0
            mm = p.weights[i] * p.weights[j]
            features.append((l2, mm))
            targets.append(reference_call(family, p, units[i], units[j]))
    solution, *_ = np.linalg.lstsq(np.array(features), np.array(targets), rcond=None)
    return float(solution[0]), float(solution[1])


def reference_probe_rational(family, p, denominator_bound, constants) -> RationalProbeResult:
    n = p.space.size
    denominator, counts = rationalize(p, denominator_bound)
    c1, c2 = constants
    surjection = partition_surjection(counts)
    u_big = uniform(surjection.domain)
    units = [indicator(p.space, i) for i in range(n)]
    worst = 0.0
    witness = None
    for i in range(n):
        for j in range(n):
            value = reference_call(family, p, units[i], units[j])
            lifted = reference_call(
                family, u_big,
                compose_variable(surjection, units[i]), compose_variable(surjection, units[j]),
            )
            target = c1 * (p.weights[i] if i == j else 0.0) + c2 * (p.weights[i] * p.weights[j])
            gap = max(abs(value - lifted), abs(value - target))
            if gap > worst:
                worst = gap
                if gap > VIOLATION_TOL:
                    witness = Witness(
                        kind="rational_point", m=n, n=surjection.domain.size, lhs=value,
                        rhs=lifted if abs(value - lifted) >= abs(value - target) else target,
                        gap=gap, surjection=surjection.map0, point=_floats(p.weights),
                        a=_floats(units[i].values), b=_floats(units[j].values),
                        family=family.name, constants=(float(c1), float(c2)),
                        detail=f"D={denominator_bound}",
                    )
    return RationalProbeResult(
        n, denominator, tuple(int(c) for c in counts), float(c1), float(c2), worst, witness
    )


def reference_continuity_errors(family, spot, bounds) -> list[float]:
    spot_fit = np.array(reference_fit_constants(family, spot))
    errors = []
    for bound in bounds:
        approx = reference_best_rational_approximation(spot.weights, bound)
        fit = np.array(reference_fit_constants(family, approx))
        errors.append(float(np.max(np.abs(fit - spot_fit))))
    return errors


def reference_characterize(family, n_max, denominator_bound, trials, seed) -> CharacterizeResult:
    """``characterize`` in its older step order, through the references above."""
    rng = np.random.default_rng(seed)
    for n in range(2, n_max + 1):
        case = {"family": family, "n": n, "seed": int(rng.integers(2**32))}
        defect = reference_check_bilinearity(**case)
        if defect > VIOLATION_TOL:
            return _witness_result(family.name, Witness(
                kind="bilinearity", m=n, n=n, lhs=defect, rhs=0.0, gap=defect,
                family=family.name, detail=f"seed={case['seed']}",
            ))
    constants_by_n = {}
    for n in range(2, n_max + 1):
        result = reference_probe_uniform(family, n)
        if result.witness is not None:
            return _witness_result(family.name, result.witness)
        constants_by_n[n] = (n * result.a, n * n * result.b)
    pairs = [(2, n) for n in range(2, n_max + 1)] + [(n, 2) for n in range(3, n_max + 1)]
    for m, n in pairs:
        result = reference_probe_consistency(family, m, n)
        if result.witness is not None:
            return _witness_result(family.name, result.witness)
    c1, c2 = constants_by_n[2]
    for n in range(2, n_max + 1):
        for _ in range(trials):
            denominator = int(rng.integers(n, denominator_bound + 1))
            counts = rng.multinomial(denominator - n, np.full(n, 1.0 / n)) + 1
            point = new_distribution(SampleSpace(n), counts / denominator)
            result = reference_probe_rational(family, point, denominator_bound, (c1, c2))
            if result.witness is not None:
                return _witness_result(family.name, result.witness)
    ii1_worst = 0.0
    for n in range(2, n_max + 1):
        ones = RandomVariable(SampleSpace(n), np.ones(n))
        for _ in range(max(2, trials // 2)):
            p = new_distribution(SampleSpace(n), _flatten_dirichlet(rng, n))
            a = RandomVariable(SampleSpace(n), rng.normal(size=n))
            ii1_worst = max(ii1_worst, abs(reference_call(family, p, a, ones)))
    ii1_holds = ii1_worst <= PASS_TOL
    n_spot = min(3, n_max)
    irrational = np.sqrt(np.arange(2, 2 + n_spot, dtype=float))
    spot = new_distribution(SampleSpace(n_spot), irrational / irrational.sum())
    bounds = [b for b in (8, 16, 32, 64) if b <= denominator_bound]
    errors = reference_continuity_errors(family, spot, bounds)
    if errors and errors[-1] > VIOLATION_TOL:
        return _witness_result(family.name, Witness(
            kind="continuity", m=n_spot, n=n_spot, lhs=errors[-1], rhs=0.0, gap=errors[-1],
            point=_floats(spot.weights), family=family.name, detail=f"D={bounds[-1]}",
        ))
    if ii1_holds and abs(c1 + c2) <= PASS_TOL:
        verdict = f"c*Cov with c={_format_constant(c1)}"
    else:
        verdict = (
            f"c1*L2 + c2*MM with (c1, c2) = ({_format_constant(c1)}, {_format_constant(c2)})"
        )
    return CharacterizeResult(
        family.name, c1, c2, ii1_holds, verdict, None, constants_by_n, tuple(errors),
        "consistent with the invariant decomposition on all sampled "
        "dimensions and rational points; continuity spot-checked only",
    )


def bits(value):
    """Exact content: floats as float.hex, witnesses also as JSON text."""
    if isinstance(value, Witness):
        return json.dumps(value.to_json()), bits(value.gap)
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


def _cov(w, a, b) -> float:
    return float(np.dot(w, a * b) - np.dot(w, a) * np.dot(w, b))


class Plugin:
    """A plugin family given by a formula on (weights, A values, B values)."""

    def __init__(self, name, form):
        self.name, self.form = name, form

    def __call__(self, p, a, b) -> float:
        return self.form(p.weights, a.values, b.values)


PLUGINS = [
    # not permutation symmetric: uniform_shape witnesses
    Plugin("skewed", lambda w, a, b: float(np.sum(np.arange(1.0, w.size + 1) * w * a * b))),
    # not bilinear
    Plugin("quadratic", lambda w, a, b: float(np.sum(w * (a * b) ** 2))),
    # the covariance at uniform points only: rational_point witnesses
    Plugin(
        "bumpy",
        lambda w, a, b: _cov(w, a, b) * (1.0 + 100.0 * float(np.sum((w - 1.0 / w.size) ** 2))),
    ),
    # PK(2) with a NaN on the last diagonal entry beyond three points: the
    # scans must skip NaN gaps and still find the first largest finite one
    Plugin(
        "holey",
        lambda w, a, b: math.nan if w.size > 3 and a[-1] * b[-1] else float(np.sum(w**2 * a * b)),
    ),
]

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
    matrix = pair_matrix(family, uniform(SampleSpace(n)), np.eye(n), np.eye(n))
    assert bits(matrix) == bits(reference_uniform_matrix(family, n))
    assert outcome(probe_uniform, family, n) == outcome(reference_probe_uniform, family, n)


@settings(max_examples=150, deadline=None)
@given(family=FAMILIES, m=st.integers(2, 3), n=st.integers(2, 6))
@example(family=parse_family("PK(-400)"), m=2, n=6)
@example(family=parse_family("1*L2 + 1*PK(-400)"), m=3, n=3)
@example(family=PLUGINS[3], m=2, n=3)
def test_probe_consistency_bitwise(family, m, n):
    assert block_surjection(m, n).map0 == reference_block_surjection(m, n).map0
    assert outcome(probe_consistency, family, m, n) == outcome(
        reference_probe_consistency, family, m, n
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
    assert outcome(_fit_constants, p.weights, matrix) == outcome(reference_fit_constants, family, p)
    assert outcome(probe_rational, family, p, bound, constants) == outcome(
        reference_probe_rational, family, p, bound, constants
    )


@settings(max_examples=60, deadline=None)
@given(family=FAMILIES, n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_continuity_errors_bitwise(family, n, seed):
    weights = 1e-3 + (1.0 - n * 1e-3) * np.random.default_rng(seed).dirichlet(np.ones(n))
    spot = new_distribution(SampleSpace(n), weights)
    bounds = [8, 16, 32]
    assert outcome(_continuity_errors, family, spot.weights, bounds) == outcome(
        reference_continuity_errors, family, spot, bounds
    )


@pytest.mark.parametrize("expression", ["PK(2)", "1*L2 + 1*PK(-3)", "1*COV + 2*PK(0)"])
def test_references_find_witnesses(expression):
    """The comparison is not vacuous: grammar families reach the witness paths."""
    family = parse_family(expression)
    assert reference_probe_consistency(family, 2, 3).witness is not None
    p = rational_point(4, 12, seed=1)
    base = reference_probe_uniform(family, 4)
    assert reference_probe_rational(family, p, 12, (4 * base.a, 16 * base.b)).witness is not None


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
    expected = outcome(reference_pair_matrix, family, p, rows, rows)
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
    assert bits(matrix) == bits(reference_pair_matrix(family, p, rows_a, rows_b))
    assert bits(pair_matrix(family, p, rows_a, rows_b)) == bits(matrix)


@settings(max_examples=200, deadline=None)
@given(family=GRAMMAR, case=row_cases())
def test_call_bitwise(family, case):
    p, rows_a, rows_b = case
    a, b = RandomVariable(p.space, rows_a[0]), RandomVariable(p.space, rows_b[-1])
    value = family(p, a, b)
    assert type(value) is float
    assert bits(value) == bits(reference_call(family, p, a, b))


@settings(max_examples=150, deadline=None)
@given(family=FAMILIES, n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
@example(family=parse_family("PK(-40)"), n=6, seed=0)
@example(family=parse_family("PK(-400)"), n=6, seed=0)
@example(family=PLUGINS[1], n=3, seed=0)
def test_check_bilinearity_bitwise(family, n, seed):
    assert outcome(check_bilinearity, family, n, seed) == outcome(
        reference_check_bilinearity, family, n, seed
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
    assert bits(matrix) == bits(reference_pair_matrix(family, p, units, units))
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
        reference_check_bilinearity(reference, n_max, seed=n_max)
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
        reference_rationalize, p, bound
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
    its callers pass: interior points, weights pushed to 1e-6, and exact
    rationals k/D, whose remainders tie."""
    rng = np.random.default_rng(seed)
    if kind == "dirichlet":
        weights = 1e-3 + (1.0 - n * 1e-3) * rng.dirichlet(np.ones(n))
    elif kind == "pushed":
        weights = 1e-6 + (1.0 - n * 1e-6) * rng.dirichlet(np.full(n, 0.05))
    else:
        weights = rational_point(n, denominator, seed).weights
    for bound in (8, 16, 32, 64):
        assert bits(_best_rational_approximation(weights, bound)) == bits(
            reference_best_rational_approximation(weights, bound).weights
        )


def test_rationalize_scans_past_the_first_block():
    """A hit beyond the first block, and a bound that ends inside a block."""
    p = new_distribution(SampleSpace(3), np.array([1, 2, 300]) / 303)
    for bound in (302, 303, 304, 1000):
        assert rationalize_outcome(rationalize, p, bound) == rationalize_outcome(
            reference_rationalize, p, bound
        )
    assert rationalize(p, 1000)[0] == 303


def characterize_outcome(fn, family, n_max, bound, trials, seed):
    """The JSON text of the result and, for a grammar witness, its replayed gap."""
    try:
        result = fn(family, n_max, bound, trials, seed)
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc).__name__
    witness = result.witness
    replayed = None
    if witness is not None and isinstance(family, CandidateFamily):
        replayed = outcome(replay_witness, witness)
        assert replayed == bits(witness.gap), (witness.kind, replayed)
    return json.dumps(result.to_json()), replayed


@settings(max_examples=150, deadline=None)
@given(
    family=FAMILIES,
    n_max=st.integers(2, 6),
    bound=st.sampled_from([8, 16, 64]),
    trials=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(family=parse_family("COV"), n_max=6, bound=64, trials=8, seed=0)
@example(family=parse_family("PK(400)"), n_max=6, bound=64, trials=8, seed=0)
@example(family=parse_family("PK(-400)"), n_max=6, bound=64, trials=8, seed=0)
@example(family=parse_family("PK(-40)"), n_max=6, bound=64, trials=8, seed=0)
@example(family=parse_family("PK(2)"), n_max=4, bound=16, trials=2, seed=0)
@example(family=PLUGINS[0], n_max=4, bound=16, trials=2, seed=1)
@example(family=PLUGINS[2], n_max=4, bound=16, trials=2, seed=1)
@example(family=PLUGINS[3], n_max=6, bound=64, trials=8, seed=0)
def test_characterize_matches_its_older_step_order(family, n_max, bound, trials, seed):
    """One uniform table per run changes no result, witness or replay."""
    args = (family, n_max, bound, trials, seed)
    expected = characterize_outcome(reference_characterize, *args)
    assert characterize_outcome(characterize, *args) == expected


@pytest.mark.parametrize("n_max, calls, older_calls", [(6, 8, 23), (5, 7, 18), (4, 5, 13)])
def test_characterize_evaluates_each_uniform_matrix_once(monkeypatch, n_max, calls, older_calls):
    """Each size 2..n_max and 2n is probed once; the older order probed 23 times at n_max 6."""
    sizes, older_sizes = [], []

    def counted(record, probe):
        def wrapper(family, n):
            record.append(n)
            return probe(family, n)
        return wrapper

    monkeypatch.setattr(verify, "_probe_uniform", counted(sizes, verify._probe_uniform))
    monkeypatch.setitem(
        globals(), "reference_probe_uniform", counted(older_sizes, reference_probe_uniform)
    )
    family = parse_family("COV")
    assert characterize(family, n_max=n_max).passed
    assert reference_characterize(family, n_max, 64, 8, 0).passed
    expected = sorted({*range(2, n_max + 1), *(2 * n for n in range(2, n_max + 1))})
    assert sorted(sizes) == expected and len(expected) == calls
    assert len(older_sizes) == older_calls
