"""The probe's stacked family evaluation and the prop6 kernel against frozen copies.

``CandidateFamily.matrix_rows`` evaluates a family at a stack of points,
``verify.prop6_kernel`` checks a batch of pairing trials, and
``characterize`` evaluates the points of each sampled step as one stack per
size. The functions below are verbatim copies of ``CandidateFamily.matrix``,
``check_prop6_identity`` and the ``characterize`` pipeline as they were
written before the stacks took over, with a grammar family evaluated
through the frozen ``matrix``, witness fields through the frozen
``_floats`` and ``_rows``, ``rationalize`` as its own block scan, and the
lifts through the frozen ``partition_surjection`` and ``block_surjection``
of ``test_probe_kernel``. The tests hold the new code to them through ``float.hex`` or the JSON text, or
to the same error type and message, and hold a plugin family to the same
calls in the same order.
"""
from __future__ import annotations

import json
import tracemalloc
from collections import Counter
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from fishergeo import batteries, families
from fishergeo import verify as verify_module
from fishergeo.errors import FisherGeoError, InvalidParameter, NotCentered, NotRational, SizeMismatch, by_shape
from fishergeo.families import CandidateFamily, parse_family
from fishergeo.geometry import delta
from fishergeo.markov import (
    apply,
    canonical_embedding,
    conditional_expectation,
    random_surjection,
)
from fishergeo.simplex import (
    Distribution,
    RandomVariable,
    SampleSpace,
    expect_rows,
    new_distribution,
    uniform,
)
from fishergeo.verify import (
    PASS_TOL,
    RATIONAL_TOL,
    VIOLATION_TOL,
    CharacterizeResult,
    ConsistencyProbeResult,
    Prop6Report,
    RationalProbeResult,
    UniformProbeResult,
    Witness,
    _best_rational_approximation,
    _first_worst,
    _fit_constants,
    _flatten_dirichlet,
    _format_constant,
    _witness_result,
    characterize,
    check_bilinearity,
    check_prop6_identity,
    classify,
    prop6_kernel,
)
from frozen_pairs import arrays, objects
from test_frozen_scalars import boundary_weights, hexes, values
from test_probe_kernel import PLUGINS, Logged, Plugin, _cov, block_surjection, partition_surjection

# PK(+-400) overflows and underflows on purpose; both sides warn alike.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:divide by zero encountered:RuntimeWarning",
)

_RATIONALIZE_BLOCK = 64
_BILINEARITY_TRIALS = 4


# ---------------------------------------------------------------------------
# Frozen copies
# ---------------------------------------------------------------------------


def frozen_matrix(family, p: Distribution, rows_a, rows_b) -> np.ndarray:
    w = p.weights
    rows_a, rows_b = (np.ascontiguousarray(rows, dtype=float) for rows in (rows_a, rows_b))
    for rows in (rows_a, rows_b):
        if rows.ndim != 2 or rows.shape[1] != w.size:
            raise SizeMismatch(f"expected rows of length {w.size}, got shape {rows.shape}")
    product = rows_a[:, None, :] * rows_b[None, :, :]
    matrix = np.zeros(product.shape[:2])
    for coeff, kind, k in family.terms:
        if kind == "PK":
            matrix += coeff * np.sum(w**k * product, axis=-1)
        else:
            means_a, means_b = (expect_rows(w[None], r[None])[0] for r in (rows_a, rows_b))
            matrix += np.multiply.outer(coeff * means_a, means_b)
    return matrix


def frozen_call(family, p: Distribution, a: RandomVariable, b: RandomVariable) -> float:
    """``family(p, a, b)``: a grammar family's 1x1 frozen matrix, any other family called."""
    if type(family) is not CandidateFamily:
        return family(p, a, b)
    return float(frozen_matrix(family, p, a.values[None], b.values[None])[0, 0])


def frozen_floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in np.asarray(values).reshape(-1))


def frozen_rows(matrix) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in np.asarray(matrix))


def frozen_check_prop6_identity(pair, p, alpha, beta, family) -> Prop6Report:
    phi = pair.embedding_channel
    psi = pair.coembedding_channel
    if p.space != phi.in_space:
        raise SizeMismatch("p must live on the small space of the pair")
    if alpha.base != p:
        raise InvalidParameter("alpha must be based at p")
    q_img = apply(phi, p)
    if beta.base != q_img:
        raise InvalidParameter("beta must be based at the embedded image of p")
    phi_pull = delta(p, conditional_expectation(phi, beta.rep))
    psi_pull = delta(q_img, conditional_expectation(psi, alpha.rep))
    lhs = frozen_call(family, p, alpha.rep, phi_pull.rep)
    rhs = frozen_call(family, q_img, psi_pull.rep, beta.rep)
    residual = abs(lhs - rhs)
    status = classify(residual)
    witness = None
    if status == "violation":
        witness = Witness(
            kind="prop6_identity",
            m=p.space.size,
            n=q_img.space.size,
            lhs=lhs,
            rhs=rhs,
            gap=residual,
            surjection=pair.surjection.map0,
            kernel=frozen_rows(phi.kernel),
            point=frozen_floats(p.weights),
            a=frozen_floats(alpha.rep.values),
            b=frozen_floats(beta.rep.values),
            family=family.name,
        )
    return Prop6Report(lhs, rhs, residual, status, witness)


def frozen_pair_matrix(family, p: Distribution, rows, cols) -> np.ndarray:
    if type(family) is CandidateFamily:
        return frozen_matrix(family, p, rows, cols)
    left = [RandomVariable(p.space, row) for row in rows]
    right = [RandomVariable(p.space, col) for col in cols]
    return np.array([[family(p, a, b) for b in right] for a in left], dtype=float)


def frozen_indicator_witness(kind, family, sizes, pair, sides, gap, detail, **inputs) -> Witness:
    (m, n), (i, j), (lhs, rhs) = sizes, pair, sides
    units = np.eye(m)
    return Witness(
        kind=kind, m=m, n=n, lhs=float(lhs[i, j]), rhs=float(rhs[i, j]), gap=gap,
        a=frozen_floats(units[i]), b=frozen_floats(units[j]), family=family.name, detail=detail,
        **inputs,
    )


def frozen_probe_uniform(family, n: int) -> tuple[UniformProbeResult, np.ndarray]:
    if n < 2:
        raise InvalidParameter("probe needs n >= 2")
    u = uniform(SampleSpace(n))
    units = np.eye(n)
    matrix = frozen_pair_matrix(family, u, units, units)
    off_mask = ~np.eye(n, dtype=bool)
    b = float(np.mean(matrix[off_mask]))
    a = float(np.mean(np.diag(matrix))) - b
    model = a * np.eye(n) + b
    residuals = np.abs(matrix - model)
    worst = float(np.max(residuals))
    witness = None
    if worst > VIOLATION_TOL:
        i, j = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
        witness = frozen_indicator_witness(
            "uniform_shape", family, (n, n), (i, j), (matrix, model), worst,
            f"indicator pair ({i + 1}, {j + 1}) breaks permutation symmetry",
            point=frozen_floats(u.weights),
        )
    return UniformProbeResult(n, a, b, worst, witness), matrix


def frozen_lifted_pair_matrix(family, surjection) -> np.ndarray:
    lifts = np.eye(surjection.codomain.size)[:, surjection.map0]
    return frozen_pair_matrix(family, uniform(surjection.domain), lifts, lifts)


def frozen_probe_consistency(family, m: int, n: int, uniform_at) -> ConsistencyProbeResult:
    if m < 2 or n < 2:
        raise InvalidParameter("probe needs m, n >= 2")
    small, lhs = uniform_at(n)
    if small.witness is not None:
        return ConsistencyProbeResult(m, n, 0.0, 0.0, small.max_residual, small.witness)
    big, _ = uniform_at(m * n)
    if big.witness is not None:
        return ConsistencyProbeResult(m, n, 0.0, 0.0, big.max_residual, big.witness)
    surjection = block_surjection(m, n)
    rhs = frozen_lifted_pair_matrix(family, surjection)
    worst, i, j = _first_worst(np.abs(lhs - rhs))
    witness = None
    if worst > VIOLATION_TOL:
        witness = frozen_indicator_witness(
            "cross_dimension", family, (n, m * n), (i, j), (lhs, rhs), worst,
            f"lift of indicator pair ({i + 1}, {j + 1}) changes the uniform evaluation",
            surjection=surjection.map0,
        )
    c1_small, c2_small = n * small.a, n * n * small.b
    c1_big, c2_big = m * n * big.a, (m * n) ** 2 * big.b
    worst = max(worst, abs(c1_small - c1_big), abs(c2_small - c2_big))
    return ConsistencyProbeResult(m, n, c1_small, c2_small, worst, witness)


def frozen_rationalize(p: Distribution, denominator_bound: int) -> tuple[int, np.ndarray]:
    w = p.weights
    n = w.shape[0]
    for start in range(n, denominator_bound + 1, _RATIONALIZE_BLOCK):
        ms = np.arange(start, min(start + _RATIONALIZE_BLOCK, denominator_bound + 1))[:, None]
        counts = np.rint(w * ms).astype(int)
        hits = (
            np.all(counts >= 1, axis=1)
            & (counts.sum(axis=1) == ms[:, 0])
            & (np.max(np.abs(w - counts / ms), axis=1) <= RATIONAL_TOL)
        )
        if hits.any():
            first = int(np.argmax(hits))
            return int(ms[first, 0]), counts[first]
    raise NotRational(
        f"no rational representation with denominator <= {denominator_bound}"
    )


def frozen_probe_rational(family, p, denominator_bound, constants) -> RationalProbeResult:
    n = p.space.size
    denominator, counts = frozen_rationalize(p, denominator_bound)
    c1, c2 = constants
    surjection = partition_surjection(counts)
    w = p.weights
    units = np.eye(n)
    value = frozen_pair_matrix(family, p, units, units)
    lifted = frozen_lifted_pair_matrix(family, surjection)
    target = c1 * np.diag(w) + c2 * np.outer(w, w)
    to_lift, to_target = np.abs(value - lifted), np.abs(value - target)
    worst, i, j = _first_worst(np.where(to_target > to_lift, to_target, to_lift))
    witness = None
    if worst > VIOLATION_TOL:
        rhs = lifted if to_lift[i, j] >= to_target[i, j] else target
        witness = frozen_indicator_witness(
            "rational_point", family, (n, surjection.domain.size), (i, j), (value, rhs),
            worst, f"D={denominator_bound}",
            surjection=surjection.map0, point=frozen_floats(w), constants=(float(c1), float(c2)),
        )
    return RationalProbeResult(
        n, denominator, tuple(int(c) for c in counts), float(c1), float(c2), worst, witness
    )


def frozen_continuity_errors(family, spot: Distribution, bounds: list[int]) -> list[float]:
    def fit(p: Distribution) -> np.ndarray:
        units = np.eye(p.space.size)
        return np.array(_fit_constants(p.weights, frozen_pair_matrix(family, p, units, units)))

    spot_fit = fit(spot)
    return [
        float(np.max(np.abs(
            fit(new_distribution(spot.space, _best_rational_approximation(spot.weights, bound))) - spot_fit
        )))
        for bound in bounds
    ]


def frozen_check_bilinearity(family, n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    space = SampleSpace(n)
    worst = 0.0
    for _ in range(_BILINEARITY_TRIALS):
        p = new_distribution(space, _flatten_dirichlet(rng, n))
        a1, a2, b = (rng.normal(size=n) for _ in range(3))
        s, t = rng.normal(size=2)
        rows = np.array([s * a1 + t * a2, a1, a2])
        left = frozen_pair_matrix(family, p, rows, [b])[:, 0]
        right = frozen_pair_matrix(family, p, [b], rows)[0]
        for at_combo, at_a1, at_a2 in (left, right):
            worst = max(worst, abs(at_combo - s * at_a1 - t * at_a2))
    return worst


def frozen_characterize(family, n_max=6, denominator_bound=64, trials=8, seed=0) -> CharacterizeResult:
    if isinstance(family, str):
        family = parse_family(family)
    if n_max < 2 or denominator_bound < n_max or trials < 1:
        raise InvalidParameter(
            "characterize needs n_max >= 2, denominator_bound >= n_max and trials >= 1"
        )
    rng = np.random.default_rng(seed)

    for n in range(2, n_max + 1):
        case = {"family": family, "n": n, "seed": int(rng.integers(2**32))}
        defect = frozen_check_bilinearity(**case)
        if defect > VIOLATION_TOL:
            return _witness_result(family.name, Witness(
                kind="bilinearity", m=n, n=n, lhs=defect, rhs=0.0, gap=defect,
                family=family.name, detail=f"seed={case['seed']}",
            ))

    uniform_at = cache(partial(frozen_probe_uniform, family))
    constants_by_n: dict[int, tuple[float, float]] = {}
    for n in range(2, n_max + 1):
        result, _ = uniform_at(n)
        if result.witness is not None:
            return _witness_result(family.name, result.witness)
        constants_by_n[n] = (n * result.a, n * n * result.b)

    for m, n in [(2, n) for n in range(2, n_max + 1)] + [
        (n, 2) for n in range(3, n_max + 1)
    ]:
        result = frozen_probe_consistency(family, m, n, uniform_at)
        if result.witness is not None:
            return _witness_result(family.name, result.witness)
    c1, c2 = constants_by_n[2]

    for n in range(2, n_max + 1):
        space = SampleSpace(n)
        for _ in range(trials):
            denominator = int(rng.integers(n, denominator_bound + 1))
            counts = rng.multinomial(denominator - n, np.full(n, 1.0 / n)) + 1
            point = new_distribution(space, counts / denominator)
            result = frozen_probe_rational(
                family, point, denominator_bound, constants=(c1, c2)
            )
            if result.witness is not None:
                return _witness_result(family.name, result.witness)

    ii1_worst = 0.0
    for n in range(2, n_max + 1):
        space = SampleSpace(n)
        for _ in range(max(2, trials // 2)):
            p = new_distribution(space, _flatten_dirichlet(rng, n))
            a = rng.normal(size=(1, n))
            ii1 = float(frozen_pair_matrix(family, p, a, np.ones((1, n)))[0, 0])
            ii1_worst = max(ii1_worst, abs(ii1))
    ii1_holds = ii1_worst <= PASS_TOL

    n_spot = min(3, n_max)
    irrational = np.sqrt(np.arange(2, 2 + n_spot, dtype=float))
    irrational /= irrational.sum()
    spot = new_distribution(SampleSpace(n_spot), irrational)
    bounds = [b for b in (8, 16, 32, 64) if b <= denominator_bound]
    continuity_errors = frozen_continuity_errors(family, spot, bounds)
    if continuity_errors and continuity_errors[-1] > VIOLATION_TOL:
        error = frozen_continuity_errors(family, spot, [bounds[-1]])[0]
        return _witness_result(family.name, Witness(
            kind="continuity", m=n_spot, n=n_spot, lhs=error, rhs=0.0, gap=error,
            point=frozen_floats(spot.weights), family=family.name, detail=f"D={bounds[-1]}",
        ))

    if ii1_holds and abs(c1 + c2) <= PASS_TOL:
        verdict = f"c*Cov with c={_format_constant(c1)}"
    else:
        verdict = (
            f"c1*L2 + c2*MM with (c1, c2) = "
            f"({_format_constant(c1)}, {_format_constant(c2)})"
        )
    return CharacterizeResult(
        family=family.name,
        c1=c1,
        c2=c2,
        ii1_holds=ii1_holds,
        verdict=verdict,
        witness=None,
        constants_by_n=constants_by_n,
        continuity_errors=tuple(continuity_errors),
        note=(
            "consistent with the invariant decomposition on all sampled "
            "dimensions and rational points; continuity spot-checked only"
        ),
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
    """Weights (T, n) with up to three weights per point pushed near 1e-9, and
    two stacks of rows: scaled Gaussian rows, the unit rows or the lifts
    ``np.eye(m)[:, map0]`` of a surjection onto m points, each stack C- or
    F-ordered as a whole."""
    count = draw(st.integers(1, 4), label="T")
    n = draw(st.integers(2, 12), label="n")
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
    monkeypatch.setitem(globals(), "_flatten_dirichlet", unscaled_floor_dirichlet)
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
    st.sampled_from(["PK(400)", "PK(-400)", "PK(-40)", "1*L2 + -0.75*MM + 2*PK(-400)"]).map(parse_family),
    st.sampled_from(PLUGINS + [Plugin("cov", _cov)]),
)


def characterize_outcome(run, family, n_max, bound, trials, seed):
    return outcome(lambda: json.dumps(run(family, n_max, bound, trials, seed).to_json()))


@settings(max_examples=80, deadline=None)
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
def test_characterize_matches_the_frozen_copy(family, n_max, bound, trials, seed):
    """Decomposing and witnessing families, grammar and plugin: the same
    JSON text, or the same error."""
    args = (family, n_max, bound, trials, seed)
    assert characterize_outcome(characterize, *args) == characterize_outcome(frozen_characterize, *args)


@pytest.mark.parametrize("plugin", [Plugin("cov", _cov), PLUGINS[2], PLUGINS[3]], ids=lambda p: p.name)
def test_characterize_calls_a_plugin_in_the_old_order(plugin):
    """Every sampled step calls a plugin point by point, pair by pair, in
    the frozen copy's order, up to the witness that ends the run."""
    new, old = Logged(plugin), Logged(plugin)
    assert characterize_outcome(characterize, new, 4, 16, 3, 2) == characterize_outcome(
        frozen_characterize, old, 4, 16, 3, 2
    )
    assert new.log == old.log and new.log
