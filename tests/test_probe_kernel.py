"""The pair-matrix probe kernel against the per-pair loops it replaced.

The reference below is the per-pair implementation of probe steps (a)-(d):
each step evaluates the family on indicator pairs one call at a time, lifts
indicators with ``compose_variable`` and tracks its worst gap with a strict
``gap > worst`` scan. The kernel reads the same values into matrices and
does the same float operations on them, so every matrix entry, constant,
residual, witness and gap must be the same float, compared through
``float.hex`` (witnesses also through their JSON text).
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fishergeo.families import parse_family
from fishergeo.markov import Surjection
from fishergeo.simplex import Distribution, SampleSpace, indicator, new_distribution, uniform
from fishergeo.verify import (
    VIOLATION_TOL,
    ConsistencyProbeResult,
    RationalProbeResult,
    UniformProbeResult,
    Witness,
    _best_rational_approximation,
    _continuity_errors,
    _fit_constants,
    _floats,
    _pair_matrix,
    block_surjection,
    partition_surjection,
    probe_consistency,
    probe_rational,
    probe_uniform,
    rationalize,
)


# PK(+-400) overflows and underflows on purpose; both sides warn alike.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)


def reference_uniform_matrix(family, n: int) -> np.ndarray:
    space = SampleSpace(n)
    u = uniform(space)
    units = [indicator(space, i) for i in range(n)]
    matrix = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            matrix[i, j] = family(u, units[i], units[j])
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
            lhs = family(u_small, e_i, e_j)
            rhs = family(u_big, surjection.compose_variable(e_i), surjection.compose_variable(e_j))
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
            targets.append(family(p, units[i], units[j]))
    solution, *_ = np.linalg.lstsq(np.array(features), np.array(targets), rcond=None)
    return float(solution[0]), float(solution[1])


def reference_probe_rational(family, p, denominator_bound, constants=None) -> RationalProbeResult:
    n = p.space.size
    denominator, counts = rationalize(p, denominator_bound)
    if constants is None:
        base = reference_probe_uniform(family, n)
        if base.witness is not None:
            return RationalProbeResult(
                n, denominator, tuple(int(c) for c in counts),
                0.0, 0.0, 0.0, 0.0, base.max_residual, base.witness,
            )
        constants = (n * base.a, n * n * base.b)
    c1, c2 = constants
    surjection = partition_surjection(counts)
    u_big = uniform(surjection.domain)
    units = [indicator(p.space, i) for i in range(n)]
    worst = 0.0
    witness = None
    for i in range(n):
        for j in range(n):
            value = family(p, units[i], units[j])
            lifted = family(
                u_big, surjection.compose_variable(units[i]), surjection.compose_variable(units[j])
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
    fitted = reference_fit_constants(family, p)
    return RationalProbeResult(
        n, denominator, tuple(int(c) for c in counts), float(c1), float(c2),
        fitted[0], fitted[1], worst, witness,
    )


def reference_continuity_errors(family, spot, bounds) -> list[float]:
    spot_fit = np.array(reference_fit_constants(family, spot))
    errors = []
    for bound in bounds:
        approx = _best_rational_approximation(spot.weights, bound)
        fit = np.array(reference_fit_constants(family, approx))
        errors.append(float(np.max(np.abs(fit - spot_fit))))
    return errors


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
    st.none(),
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
    matrix = _pair_matrix(family, uniform(SampleSpace(n)), np.eye(n))
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
    matrix = _pair_matrix(family, p, np.eye(n))
    assert outcome(_fit_constants, p, matrix) == outcome(reference_fit_constants, family, p)
    assert outcome(probe_rational, family, p, bound, constants) == outcome(
        reference_probe_rational, family, p, bound, constants
    )


@settings(max_examples=60, deadline=None)
@given(family=FAMILIES, n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_continuity_errors_bitwise(family, n, seed):
    weights = 1e-3 + (1.0 - n * 1e-3) * np.random.default_rng(seed).dirichlet(np.ones(n))
    spot = new_distribution(SampleSpace(n), weights)
    bounds = [8, 16, 32]
    assert outcome(_continuity_errors, family, spot, bounds) == outcome(
        reference_continuity_errors, family, spot, bounds
    )


@pytest.mark.parametrize("expression", ["PK(2)", "1*L2 + 1*PK(-3)", "1*COV + 2*PK(0)"])
def test_references_find_witnesses(expression):
    """The comparison is not vacuous: grammar families reach the witness paths."""
    family = parse_family(expression)
    assert reference_probe_consistency(family, 2, 3).witness is not None
    p = rational_point(4, 12, seed=1)
    assert reference_probe_rational(family, p, 12).witness is not None
