"""The pair batteries' object path, frozen: a reference for their array path.

Until the pair kernels took arrays, each drawn pair existed as validated
objects between the draw and the kernel. This module keeps that path as it
was, for the tests to hold the array path to:

- the checks of ``Surjection`` and ``EmbeddingPair`` and the body of
  ``canonical_embedding``, as the constructors ran them;
- ``_canonical_pair`` and the three draws, ``draw_invariance``,
  ``draw_strong_invariance`` and ``draw_prop6``, with the draw helpers they
  called (the same generator calls in the same order, so the same rows);
- ``_pair_stacks``, ``_invariance_rows`` and ``_strong_invariance_rows``,
  the kernels over object cases, and ``pair_witness`` for the two
  invariance kinds; a ``prop6`` trial is checked by the frozen single case
  of ``frozen_probe``, the one reference of the pairing identity.

``objects`` builds a trial's objects from its arrays in the order the array
kernels check them: the pair, then its points, then its variables (for
``prop6`` the image point between alpha and beta, as the single case builds
it); ``arrays`` takes an object case apart. ``outcome`` is the reference
of a batch of array cases: the error the first trial that fails alone
raises, else every report.
"""
from __future__ import annotations

import numbers
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from fishergeo.errors import (
    BadSize,
    FisherGeoError,
    InvalidChannel,
    InvalidParameter,
    NotNormalized,
    NotSurjective,
    SizeMismatch,
    by_shape,
    in_trial_order,
)
from fishergeo.geometry import CotangentVector, delta, delta_rows, fisher_metric_rows, require_rows_sum_zero
from fishergeo.markov import (
    KERNEL_COLUMN_TOL,
    EmbeddingPair,
    Surjection,
    apply,
    apply_rows,
    coembedding_kernel_rows,
    compose_variable_rows,
    conditional_expectation_rows,
    require_kernel,
)
from fishergeo.simplex import (
    Distribution,
    RandomVariable,
    SampleSpace,
    cov_rows,
    interior_rows,
    require_finite,
    require_weights,
)
from fishergeo.verify import (
    PASS_TOL,
    STRONG_INVARIANCE_TOL,
    InvarianceReport,
    Prop6Report,
    StrongInvarianceReport,
    Witness,
    classify,
)
from frozen_probe import frozen_check_prop6_identity

# ---------------------------------------------------------------------------
# The constructors' checks and the canonical pair
# ---------------------------------------------------------------------------


def surjection(n: int, m: int, map0) -> Surjection:
    """``Surjection(SampleSpace(n), SampleSpace(m), map0)`` after its checks."""
    domain, codomain = SampleSpace(n), SampleSpace(m)
    if codomain.size > domain.size:
        raise BadSize("codomain cannot be larger than the domain")
    if len(map0) != domain.size:
        raise SizeMismatch(f"map length {len(map0)} != domain size {domain.size}")
    for v in map0:
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise InvalidParameter(f"surjection values must be integers, not {v!r}")
    values = tuple(int(v) for v in map0)
    if min(values) < 0 or max(values) >= codomain.size:
        raise BadSize("map values out of codomain range")
    if len(set(values)) != codomain.size:
        raise NotSurjective("map does not attain every codomain value")
    return Surjection(domain, codomain, values)


def embedding_pair(f: Surjection, fibers) -> EmbeddingPair:
    """``EmbeddingPair(f, fibers)`` after its checks."""
    m, n = f.codomain.size, f.domain.size
    r = np.array(fibers, dtype=float)
    if r.shape != (m, n):
        raise SizeMismatch(f"fiber matrix shape {r.shape} != {(m, n)}")
    on_fiber = np.asarray(f.map0) == np.arange(m)[:, None]
    bad = np.where(on_fiber, ~(r > 0.0), r != 0.0)
    if np.count_nonzero(bad):
        x = int(np.argmax(bad.any(axis=1)))
        raise InvalidChannel(f"support of r_{x + 1} must be exactly the fiber of {x + 1}")
    if not abs(r.sum(axis=1) - 1.0).max() <= KERNEL_COLUMN_TOL:
        raise NotNormalized("every r_x must sum to 1")
    return EmbeddingPair(f, r)


def canonical_embedding(f: Surjection, q: Distribution) -> EmbeddingPair:
    if q.space != f.domain:
        raise SizeMismatch("distribution is not on the domain of the surjection")
    marginal = f.marginalize(q)
    fiber_of = np.asarray(f.map0)
    r = np.zeros((f.codomain.size, f.domain.size))
    r[fiber_of, np.arange(f.domain.size)] = q.weights / marginal.weights[fiber_of]
    return embedding_pair(f, r)


def _canonical_pair(shape: tuple[int, int], map0: tuple, w: np.ndarray):
    n, m = shape
    f = surjection(n, m, map0)
    q = Distribution(f.domain, w)
    return canonical_embedding(f, q), q


# ---------------------------------------------------------------------------
# The draws
# ---------------------------------------------------------------------------


def _by_shape_rows(rng: np.random.Generator, shapes: list[tuple[int, ...]], *blocks) -> list[list]:
    rows = [[None] * len(shapes) for _ in blocks]
    for trials in by_shape(shapes):
        for per_trial, block in zip(rows, blocks):
            for t, row in zip(trials, block(rng, shapes[trials[0]], len(trials))):
                per_trial[t] = row
    return rows


def _points_on(axis: int):
    return lambda rng, shape, count: interior_rows(rng.dirichlet(np.ones(shape[axis]), size=count))


def _split(values, sizes: list[int]) -> list:
    return [values[end - size : end] for size, end in zip(sizes, accumulate(sizes))]


def _normal_rows(rng: np.random.Generator, sizes: list[int]) -> list[np.ndarray]:
    return _split(rng.normal(size=sum(sizes)), sizes)


def _surjection_maps(rng: np.random.Generator, n: np.ndarray, m: np.ndarray) -> list[tuple]:
    columns = np.arange(n.max())
    rows = np.where(columns < m[:, None], columns, -1)
    rows[(columns >= m[:, None]) & (columns < n[:, None])] = rng.integers(0, np.repeat(m, n - m))
    shuffled = rng.permuted(rows, axis=1)
    return [tuple(row) for row in _split(shuffled[shuffled >= 0].tolist(), n.tolist())]


def _pair_trials(rng: np.random.Generator, rounds: int, n_max: int, *blocks):
    n = rng.integers(3, n_max + 1, size=rounds)
    m = rng.integers(2, n)
    shapes = list(zip(n.tolist(), m.tolist()))
    rows = _by_shape_rows(rng, shapes, _points_on(0), *blocks)
    return shapes, rows, _surjection_maps(rng, n, m)


def draw_invariance(rng: np.random.Generator, rounds: int, n_max: int, **_) -> list[dict]:
    shapes, (big,), maps = _pair_trials(rng, rounds, n_max)
    values = _normal_rows(rng, [m for _, m in shapes for _ in range(4)])
    cases = []
    for t, shape in enumerate(shapes):
        pair, q = _canonical_pair(shape, maps[t], big[t])
        small = pair.surjection.codomain
        a, b, x, y = values[4 * t : 4 * t + 4]
        cases.append({
            "pair": pair, "q": q, "a": RandomVariable(small, a), "b": RandomVariable(small, b),
            "x_m_rep": x - x.mean(), "y_m_rep": y - y.mean(),
        })
    return cases


def draw_strong_invariance(rng: np.random.Generator, rounds: int, n_max: int, **_) -> list[dict]:
    shapes, (big,), maps = _pair_trials(rng, rounds, n_max)
    values = _normal_rows(rng, [size for n, m in shapes for size in (m, n)])
    cases = []
    for t, shape in enumerate(shapes):
        pair, q = _canonical_pair(shape, maps[t], big[t])
        a = RandomVariable(pair.surjection.codomain, values[2 * t])
        cases.append({"pair": pair, "q": q, "a": a, "b": RandomVariable(q.space, values[2 * t + 1])})
    return cases


def draw_prop6(rng: np.random.Generator, rounds: int, n_max: int, family, **_) -> list[dict]:
    shapes, (big, small), maps = _pair_trials(rng, rounds, n_max, _points_on(1))
    values = _normal_rows(rng, [size for n, m in shapes for size in (m, n)])
    cases = []
    for t, shape in enumerate(shapes):
        pair, _ = _canonical_pair(shape, maps[t], big[t])
        p = Distribution(pair.surjection.codomain, small[t])
        alpha = delta(p, RandomVariable(p.space, values[2 * t]))
        q_img = apply(pair.embedding_channel, p)
        beta = delta(q_img, RandomVariable(q_img.space, values[2 * t + 1]))
        cases.append({"pair": pair, "p": p, "alpha": alpha, "beta": beta, "family": family})
    return cases


DRAWS = {
    "invariance": draw_invariance,
    "strong_invariance": draw_strong_invariance,
    "prop6": draw_prop6,
}

# ---------------------------------------------------------------------------
# The kernels over object cases
# ---------------------------------------------------------------------------


_INVARIANCE_KEYS = ("metric", "cometric", "variance", "covariance")
_STRONG_INVARIANCE_KEYS = (
    "adjoint", "projector_idempotent", "projector_self_adjoint", "projector_fixes_image",
    "section", "isometry", "coisometry", "covariance_identity",
)
_CANONICAL_TOL = 1e-12


def _floats(values) -> tuple[float, ...]:
    return tuple(np.asarray(values, dtype=float).reshape(-1).tolist())


def _relative(lhs: np.ndarray, rhs: np.ndarray, terms: np.ndarray | float = 1.0) -> np.ndarray:
    return abs(lhs - rhs) / np.maximum(np.maximum(np.maximum(1.0, terms), abs(lhs)), abs(rhs))


def _sized_rows(rows: list, size: int, mismatch: str) -> np.ndarray:
    for row in rows:
        if len(row) != size:
            raise SizeMismatch(mismatch.format(len(row)))
    return np.array(rows)


class _PairStack(NamedTuple):
    trials: list[int]
    maps: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    q: np.ndarray
    p: np.ndarray


def _pair_stacks(pair, q) -> list[_PairStack]:
    for one, point in zip(pair, q):
        if point.space != one.surjection.domain:
            raise SizeMismatch("distribution is not on the channel input space")
    stacks = []
    for trials in by_shape((one.surjection.domain.size, one.surjection.codomain.size) for one in pair):
        m = pair[trials[0]].surjection.codomain.size
        fibers = np.array([pair[t].fiber_distributions for t in trials])
        phi = require_kernel(np.ascontiguousarray(fibers.transpose(0, 2, 1)))
        maps = np.array([pair[t].surjection.map0 for t in trials])
        psi = require_kernel(coembedding_kernel_rows(maps, m))
        points = np.array([q[t].weights for t in trials])
        marginals = require_weights(apply_rows(psi, points))
        stacks.append(_PairStack(trials, maps, phi, psi, points, marginals))
    return stacks


def _reports(report: type, keys: tuple[str, ...], residuals: np.ndarray, pass_tol: float) -> list:
    reports = []
    for row in residuals.tolist():
        values = dict(zip(keys, row))
        worst = max(values.values())
        reports.append(report(values, worst, classify(worst, pass_tol)))
    return reports


def invariance_kernel(pair, q, x_m_rep, y_m_rep, a, b) -> list[InvarianceReport]:
    residuals = in_trial_order(_invariance_rows, pair, q, x_m_rep, y_m_rep, a, b)
    return _reports(InvarianceReport, _INVARIANCE_KEYS, residuals, PASS_TOL)


def _invariance_rows(pair, q, x_m_rep, y_m_rep, a, b) -> np.ndarray:
    residuals = np.empty((len(pair), len(_INVARIANCE_KEYS)))
    for s in _pair_stacks(pair, q):
        m = s.p.shape[1]
        x, y = (require_rows_sum_zero(_sized_rows(
            [np.asarray(m_reps[t], dtype=float).reshape(-1) for t in s.trials],
            m, f"m_rep length {{}} != space size {m}",
        )) for m_reps in (x_m_rep, y_m_rep))
        image = require_weights(apply_rows(s.phi, s.p))
        x_up = require_rows_sum_zero(apply_rows(s.phi, x))
        y_up = require_rows_sum_zero(apply_rows(s.phi, y))
        mismatch = "random variable and distribution on different spaces"
        a_values = _sized_rows([a[t].values for t in s.trials], m, mismatch)
        alpha = delta_rows(s.p, a_values)
        b_values = _sized_rows([b[t].values for t in s.trials], m, mismatch)
        beta = delta_rows(s.p, b_values)
        alpha_up = delta_rows(s.q, require_finite(conditional_expectation_rows(s.psi, alpha)))
        beta_up = delta_rows(s.q, require_finite(conditional_expectation_rows(s.psi, beta)))
        a_lift, b_lift = (
            require_finite(compose_variable_rows(v, s.maps)) for v in (a_values, b_values)
        )
        residuals[s.trials] = np.stack([
            _relative(fisher_metric_rows(s.p, x[:, None], y[:, None])[:, 0, 0],
                      fisher_metric_rows(image, x_up[:, None], y_up[:, None])[:, 0, 0]),
            _relative(cov_rows(s.p, alpha, beta), cov_rows(s.q, alpha_up, beta_up)),
            _relative(cov_rows(s.p, a_values, a_values), cov_rows(s.q, a_lift, a_lift)),
            _relative(cov_rows(s.p, a_values, b_values), cov_rows(s.q, a_lift, b_lift)),
        ], axis=-1)
    return residuals


def strong_invariance_kernel(pair, q, a, b) -> list[StrongInvarianceReport]:
    residuals = in_trial_order(_strong_invariance_rows, pair, q, a, b)
    return _reports(
        StrongInvarianceReport, _STRONG_INVARIANCE_KEYS, residuals, STRONG_INVARIANCE_TOL
    )


def _strong_invariance_rows(pair, q, a, b) -> np.ndarray:
    stacks = _pair_stacks(pair, q)
    for s in stacks:
        recovered = require_weights(apply_rows(s.phi, s.p))
        if not abs(recovered - s.q).max() <= _CANONICAL_TOL:
            raise InvalidParameter(
                "pair is not the canonical embedding through q: the embedding "
                "of the marginal does not recover q"
            )
    residuals = np.empty((len(pair), len(_STRONG_INVARIANCE_KEYS)))
    for s in stacks:
        n, m = s.q.shape[1], s.p.shape[1]
        small, big = (np.eye(size)[:-1] - np.eye(size)[-1] for size in (m, n))
        phi, psi = s.phi[:, None], s.psi[:, None]
        up = require_rows_sum_zero(apply_rows(phi, small))
        down = require_rows_sum_zero(apply_rows(psi, big))
        projected = require_rows_sum_zero(apply_rows(phi, down))
        section = apply_rows(psi, up)
        gram = fisher_metric_rows(s.q, projected, big)
        adjoint_terms, gram_terms = (
            fisher_metric_rows(s.q, abs(rows), abs(big)) for rows in (up, projected)
        )
        mismatch = "variable is not on the channel output space"
        b_values = _sized_rows([b[t].values for t in s.trials], n, mismatch)
        expectation = require_finite(conditional_expectation_rows(s.phi, b_values))
        a_values = _sized_rows([a[t].values for t in s.trials], m, f"sample spaces differ: {m} vs {{}}")
        a_lift = require_finite(compose_variable_rows(a_values, s.maps))
        sides = [
            (fisher_metric_rows(s.q, up, big), fisher_metric_rows(s.p, small, down), adjoint_terms),
            (apply_rows(phi, apply_rows(psi, projected)), projected, 1.0),
            (gram, gram.transpose(0, 2, 1), np.maximum(gram_terms, gram_terms.transpose(0, 2, 1))),
            (apply_rows(phi, section), up, 1.0),
            (section, small, 1.0),
            (fisher_metric_rows(s.q, up, up), fisher_metric_rows(s.p, small, small), 1.0),
            (fisher_metric_rows(s.p, down, down), gram, gram_terms),
        ]
        residuals[s.trials] = np.stack(
            [_relative(*identity).max(axis=(1, 2)) for identity in sides]
            + [abs(cov_rows(s.p, a_values, expectation) - cov_rows(s.q, a_lift, b_values))],
            axis=-1,
        )
    return residuals


def prop6_kernel(pair, p, alpha, beta, family) -> list[Prop6Report]:
    """The frozen single-case pairing check of ``frozen_probe``, trial by trial."""
    return [frozen_check_prop6_identity(*case) for case in zip(pair, p, alpha, beta, family)]


def pair_witness(case: dict, detail: str = "") -> Witness:
    """The witness of an invariance or strong-invariance object case."""
    invariance = "x_m_rep" in case
    kernel = invariance_kernel if invariance else strong_invariance_kernel
    report = kernel(**{key: [value] for key, value in case.items()})[0]
    f, q = case["pair"].surjection, case["q"]
    return Witness(
        kind="invariance" if invariance else "strong_invariance",
        m=f.codomain.size, n=q.space.size,
        lhs=report.max_residual, rhs=0.0, gap=report.max_residual,
        surjection=f.map0, point=_floats(q.weights),
        a=_floats(case["a"].values), b=_floats(case["b"].values), detail=detail,
        x=_floats(case["x_m_rep"]) if invariance else None,
        y=_floats(case["y_m_rep"]) if invariance else None,
    )


KERNELS = {
    "invariance": invariance_kernel,
    "strong_invariance": strong_invariance_kernel,
    "prop6": prop6_kernel,
}

# ---------------------------------------------------------------------------
# Between the two forms of a case
# ---------------------------------------------------------------------------


def objects(kind: str, case: dict) -> dict:
    """The object case of an array case, built and checked in the order the
    array kernel checks it."""
    map0 = tuple(np.asarray(case["surjection"]).reshape(-1).tolist())
    fibers = np.asarray(case["fibers"], dtype=float)
    pair = embedding_pair(surjection(len(map0), len(fibers), map0), fibers)
    small, big = pair.surjection.codomain, pair.surjection.domain
    if kind == "prop6":
        p = Distribution(small, case["p"])
        alpha = CotangentVector(p, RandomVariable(small, case["a"]))
        q_img = apply(pair.embedding_channel, p)
        beta = CotangentVector(q_img, RandomVariable(q_img.space, case["b"]))
        return {"pair": pair, "p": p, "alpha": alpha, "beta": beta, "family": case["family"]}
    found = {"pair": pair, "q": Distribution(big, case["q"]), "a": RandomVariable(small, case["a"])}
    if kind == "strong_invariance":
        return {**found, "b": RandomVariable(big, case["b"])}
    return {**found, "b": RandomVariable(small, case["b"]), "x_m_rep": case["x"], "y_m_rep": case["y"]}


def arrays(kind: str, case: dict) -> dict:
    """The array case of an object case."""
    pair = case["pair"]
    found = {"surjection": pair.surjection.map0, "fibers": pair.fiber_distributions}
    if kind == "prop6":
        return {
            **found, "p": case["p"].weights, "a": case["alpha"].rep.values,
            "b": case["beta"].rep.values, "family": case["family"],
        }
    found.update(q=case["q"].weights, a=case["a"].values, b=case["b"].values)
    if kind == "invariance":
        found.update(x=case["x_m_rep"], y=case["y_m_rep"])
    return found


def columns(cases: list[dict]) -> dict[str, list]:
    return {key: [case[key] for case in cases] for key in cases[0]}


def outcome(kind: str, cases: list[dict]):
    """The reference of a batch of array cases: (error type, message) of
    the first trial that fails alone, its objects built and then checked by
    the frozen kernel; else the frozen kernel's reports of all of them."""
    built = []
    for case in cases:
        try:
            one = objects(kind, case)
            KERNELS[kind](**columns([one]))
        except FisherGeoError as exc:
            return type(exc), str(exc)
        built.append(one)
    return KERNELS[kind](**columns(built))
