"""The characterization probe and the pairing identity, frozen: the one reference of each.

Verbatim copies of ``CandidateFamily.matrix``, ``check_prop6_identity`` and
the ``characterize`` pipeline as they were written before the stacks took
over, each step on its own: a grammar family is evaluated through the
frozen ``matrix`` (its MM means one ``np.dot`` per row), a witness stores
the arguments of the step that judged it as its case, the lifts go through
``partition_surjection`` and ``block_surjection``, and the largest gap is
found by the per-pair loops' strict scan. The continuity step fits its
constants by the per-pair least-squares system at the points of the
denominator loop that the one-pass scan replaced. The verdict helpers
(``classify``, ``_format_constant``, ``_witness_result``) and the draw of the
random points (``_flatten_dirichlet``) are copies too, so no mutant of the
live ones moves the reference with the code. The plugin families at the end
are the ones the probe suites run.
"""
from __future__ import annotations

import math
from functools import cache, partial

import numpy as np

from fishergeo.errors import InvalidParameter, NotRational, SizeMismatch
from fishergeo.families import CandidateFamily, parse_family
from fishergeo.geometry import delta
from fishergeo.markov import Surjection, apply, conditional_expectation
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace, new_distribution, uniform
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
)

_RATIONALIZE_BLOCK = 64
_BILINEARITY_TRIALS = 4
_DIRICHLET_FLOOR = 1e-3


# ---------------------------------------------------------------------------
# Frozen copies
# ---------------------------------------------------------------------------


def classify(residual: float, pass_tol: float = PASS_TOL) -> str:
    if residual <= pass_tol:
        return "pass"
    if residual <= VIOLATION_TOL:
        return "inconclusive"
    return "violation"


def _format_constant(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _witness_result(family_name: str, witness: Witness) -> CharacterizeResult:
    return CharacterizeResult(
        family=family_name,
        c1=float("nan"),
        c2=float("nan"),
        ii1_holds=False,
        verdict="witness",
        witness=witness,
        constants_by_n={},
        continuity_errors=(),
        note="a counterexample was found before the decomposition completed",
    )


def _flatten_dirichlet(rng: np.random.Generator, n: int) -> np.ndarray:
    """A flat Dirichlet draw with every weight at least ``_DIRICHLET_FLOOR``,
    or ``0.5 / n`` past 500 outcomes, so the floors never take all the mass;
    ``simplex.interior_rows`` written out."""
    floor = min(_DIRICHLET_FLOOR, 0.5 / n)
    return floor + (1.0 - n * floor) * rng.dirichlet(np.ones(n))


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
            means_a, means_b = (np.array([np.dot(w, row) for row in rows]) for rows in (rows_a, rows_b))
            matrix += np.multiply.outer(coeff * means_a, means_b)
    return matrix


def frozen_call(family, p: Distribution, a: RandomVariable, b: RandomVariable) -> float:
    """``family(p, a, b)``: a grammar family's 1x1 frozen matrix, any other family called."""
    if type(family) is not CandidateFamily:
        return family(p, a, b)
    return float(frozen_matrix(family, p, a.values[None], b.values[None])[0, 0])


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
            case={
                "surjection": pair.surjection.map0, "fibers": pair.fiber_distributions, "p": p.weights,
                "a": alpha.rep.values, "b": beta.rep.values, "family": family,
            },
        )
    return Prop6Report(lhs, rhs, residual, status, witness)


def frozen_first_worst(gaps: np.ndarray) -> tuple[float, int, int]:
    """The per-pair loops' scan: the first largest gap in row-major order by
    a strict ``gap > worst`` from 0.0, so NaN gaps are skipped."""
    worst, at = 0.0, (0, 0)
    for (i, j), gap in np.ndenumerate(gaps):
        if gap > worst:
            worst, at = float(gap), (i, j)
    return worst, *at


def frozen_pair_matrix(family, p: Distribution, rows, cols) -> np.ndarray:
    if type(family) is CandidateFamily:
        return frozen_matrix(family, p, rows, cols)
    left = [RandomVariable(p.space, row) for row in rows]
    right = [RandomVariable(p.space, col) for col in cols]
    return np.array([[family(p, a, b) for b in right] for a in left], dtype=float)


def frozen_indicator_witness(kind, sizes, pair, sides, gap, detail, **case) -> Witness:
    (m, n), (i, j), (lhs, rhs) = sizes, pair, sides
    return Witness(
        kind=kind, m=m, n=n, lhs=float(lhs[i, j]), rhs=float(rhs[i, j]), gap=gap, detail=detail, case=case,
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
            "uniform_shape", (n, n), (i, j), (matrix, model), worst,
            f"indicator pair ({i + 1}, {j + 1}) breaks permutation symmetry", family=family, n=n,
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
    worst, i, j = frozen_first_worst(np.abs(lhs - rhs))
    witness = None
    if worst > VIOLATION_TOL:
        witness = frozen_indicator_witness(
            "cross_dimension", (n, m * n), (i, j), (lhs, rhs), worst,
            f"lift of indicator pair ({i + 1}, {j + 1}) changes the uniform evaluation", family=family, m=m, n=n,
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
    worst, i, j = frozen_first_worst(np.where(to_target > to_lift, to_target, to_lift))
    witness = None
    if worst > VIOLATION_TOL:
        rhs = lifted if to_lift[i, j] >= to_target[i, j] else target
        witness = frozen_indicator_witness(
            "rational_point", (n, surjection.domain.size), (i, j), (value, rhs),
            worst, f"D={denominator_bound}", family=family, p=p, denominator_bound=denominator_bound,
            constants=(float(c1), float(c2)),
        )
    return RationalProbeResult(
        n, denominator, tuple(int(c) for c in counts), float(c1), float(c2), worst, witness
    )


def frozen_fit_constants(w: np.ndarray, matrix: np.ndarray) -> tuple[float, float]:
    n = w.size
    features = []
    targets = []
    for i in range(n):
        for j in range(n):
            l2 = w[i] if i == j else 0.0
            mm = w[i] * w[j]
            features.append((l2, mm))
            targets.append(matrix[i, j])
    solution, *_ = np.linalg.lstsq(np.array(features), np.array(targets), rcond=None)
    return float(solution[0]), float(solution[1])


def frozen_best_rational_approximation(weights: np.ndarray, denominator_bound: int) -> np.ndarray:
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
    return best


def frozen_continuity_errors(family, spot: Distribution, bounds: list[int]) -> list[float]:
    def fit(p: Distribution) -> np.ndarray:
        units = np.eye(p.space.size)
        return np.array(frozen_fit_constants(p.weights, frozen_pair_matrix(family, p, units, units)))

    spot_fit = fit(spot)
    return [
        float(np.max(np.abs(
            fit(new_distribution(spot.space, frozen_best_rational_approximation(spot.weights, bound)))
            - spot_fit
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
                kind="bilinearity", m=n, n=n, lhs=defect, rhs=0.0, gap=defect, detail=f"seed={case['seed']}",
                case=case,
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
            kind="continuity", m=n_spot, n=n_spot, lhs=error, rhs=0.0, gap=error, detail=f"D={bounds[-1]}",
            case={"family": family, "spot": spot.weights, "bound": bounds[-1]},
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


# ---------------------------------------------------------------------------
# Plugin families
# ---------------------------------------------------------------------------


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
    # the covariance, but NaN on the pairs of random rows (the bilinearity and
    # ii1 points) whose first values rise: the folds of the bilinearity defect
    # and of ii1 must skip NaN, as Python's max from 0.0 did
    Plugin(
        "nan_folds",
        lambda w, a, b: math.nan if a[0] < b[0] and not np.isin(a, (0.0, 1.0)).all() else _cov(w, a, b),
    ),
]


class Logged:
    """A plugin that records every pair it is called on."""

    def __init__(self, family):
        self.family, self.name, self.log = family, family.name, []

    def __call__(self, p, a, b) -> float:
        self.log.append((p.weights.tobytes(), a.values.tobytes(), b.values.tobytes()))
        return self.family(p, a, b)
