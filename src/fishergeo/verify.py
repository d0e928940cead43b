"""Property batteries and the constructive characterization probe.

Single-case checks cover monotonicity of the metric/co-metric/variance under
channels, the invariance identities of embedding/co-embedding pairs, the
strong-invariance (adjoint/projector) identities, and the two-sided pairing
identity for candidate bilinear families. Randomized batteries drive them
over seeded trials and aggregate deterministic reports. Every battery check
is an array kernel over a leading trial axis: ``monotonicity_metric_kernel``,
``monotonicity_cometric_kernel``, ``invariance_kernel``,
``strong_invariance_kernel``, ``prop6_kernel`` and
``weak_invariance_residual_kernel``, on the arrays of one case (a channel
kernel, or a 0-based map and fiber matrix or point, then points and vector
or variable rows); their batteries call them once on all their trials, whose
witnesses are built from, and replay to, these arrays. The pair kernels read
pairs through ``markov.pair_stacks``.

The probe decomposes an invariant family into ``c1 * L2 + c2 * MM``:

  (a) evaluate on indicator pairs at the uniform distribution; permutation
      invariance forces the matrix shape a*I + b*ones;
  (b) lift through block maps (0-based, by ``np.repeat``) to larger uniform
      spaces; consistency across dimensions pins c1 = n*a_n, c2 = n^2*b_n;
  (c) extend to rational points via partition maps from a uniform space
      over the common denominator;
  (d) continuity surrogate: fitted constants at rational approximations of
      an irrational spot-check point converge as the denominator bound grows.

The probe runs in two phases, each drawn whole, with the generator calls
of one step at a time, before it is evaluated: a grammar family's pair
matrices come from one ``CandidateFamily.matrix_rows`` call per outcome
count and phase, while a plugin family is called point by point, pair by
pair, in the order of the steps.

Verdicts distinguish the covariance multiple (when the family kills
constants) from a general (c1, c2) decomposition; reports state consistency
with the decomposition on sampled points, never more. Residuals at or below
1e-9 pass, residuals above 1e-6 produce a Witness, and the band between is
reported as "inconclusive". A Witness stores enough of its inputs that
replaying it reproduces the gap bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, lru_cache, partial
from itertools import accumulate, chain
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .connections import ConnectionTag, VectorFieldOnModel, coordinate_field, weak_invariance_kernel
from .errors import (
    PASS_TOL, VIOLATION_TOL, BasePointMismatch, InvalidParameter, NotRational, SizeMismatch, by_shape,
    in_trial_order, require_integer, require_seed,
)
from .families import CandidateFamily, parse_family
from .geometry import (
    CotangentVector, TangentVector, delta_rows, fisher_metric_rows, require_centered, require_rows_sum_zero,
)
from .markov import (
    Channel, EmbeddingPair, apply, apply_rows, canonical_embedding_rows, compose_variable_rows,
    conditional_expectation_rows, pair_stacks, require_kernel, require_maps,
)
from .models import CrbReport, categorical_model, crb_kernel, point_rows
from .simplex import (
    Distribution, RandomVariable, SampleSpace, centered_rows, cov_rows, expect_rows, interior_rows,
    new_distribution, require_finite, require_weights,
)

#: Matrix identities of the strong-invariance check pass at this tolerance.
STRONG_INVARIANCE_TOL = 1e-8
#: Absolute tolerance when matching weights to a rational k/m grid.
RATIONAL_TOL = 1e-9
#: Denominators ``rationalize`` scans per array block.
_RATIONALIZE_BLOCK = 64
#: Random triples per bilinearity spot check.
_BILINEARITY_TRIALS = 4
#: Weight floor of the random points of the bilinearity and kill-constants
#: checks, on at most 500 outcomes.
_DIRICHLET_FLOOR = 1e-3


def classify(residual: float, pass_tol: float = PASS_TOL) -> str:
    if residual <= pass_tol:
        return "pass"
    if residual <= VIOLATION_TOL:
        return "inconclusive"
    return "violation"


def _floats(values) -> tuple[float, ...]:
    return tuple(np.asarray(values, dtype=float).reshape(-1).tolist())


def _rows(matrix) -> tuple[tuple[float, ...], ...]:
    return tuple(map(tuple, np.asarray(matrix, dtype=float).tolist()))


def _lists(value):
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


#: Witness inputs that only some kinds carry; they enter the JSON form only when set.
_KIND_INPUTS = ("x", "y", "estimators", "grid", "step", "alpha")


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample: inputs, both sides, and the gap.

    The fields after ``detail`` hold inputs of single kinds: x/y m-reps
    (invariance), estimators (crb), grid, step and alpha (weak_invariance).
    """

    kind: str
    m: int
    n: int
    lhs: float
    rhs: float
    gap: float
    surjection: tuple[int, ...] | None = None  # 0-based map
    kernel: tuple[tuple[float, ...], ...] | None = None
    point: tuple[float, ...] | None = None
    a: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None
    family: str | None = None
    constants: tuple[float, float] | None = None
    detail: str = ""
    x: tuple[float, ...] | None = None
    y: tuple[float, ...] | None = None
    estimators: tuple[tuple[float, ...], ...] | None = None
    grid: tuple[tuple[float, ...], ...] | None = None
    step: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if not self.gap > VIOLATION_TOL:
            raise InvalidParameter(
                f"witness gap {self.gap!r} does not exceed {VIOLATION_TOL}"
            )

    @classmethod
    def from_case(cls, kind: str, case: dict, report, detail: str = "") -> Witness | None:
        """The witness of ``case`` (its inputs by name) from the ``report`` that judged it, or None."""
        return _KINDS[kind].witness(case, report, detail)

    def to_json(self) -> dict:
        payload = {
            f.name: _lists(getattr(self, f.name))
            for f in fields(self)
            if f.name not in _KIND_INPUTS or getattr(self, f.name) is not None
        }
        if self.surjection is not None:
            payload["surjection"] = [v + 1 for v in self.surjection]
        return payload


def replay_witness(witness: Witness) -> float:
    """Recompute the witness gap from its stored inputs, by one rule for every kind: read the case,
    evaluate it once by the kernel or probe step that judged it, and build the witness from that
    report, so the result is bitwise the stored gap. A malformed witness, or a case that no longer
    gives a witness of its kind, raises InvalidParameter. A family is rebuilt by parsing its stored
    grammar expression, so a witness of a plugin evaluator cannot be replayed and raises.
    """
    kind = _KINDS.get(witness.kind)
    if kind is None:
        raise InvalidParameter(f"no replay rule for witness kind {witness.kind!r}")
    case = kind.case(witness)
    found = kind.witness(case, kind.evaluate(case), witness.detail)
    if found is None or found.kind != witness.kind:
        raise InvalidParameter(f"a {witness.kind} witness's case gives no such witness: gap {witness.gap!r} is gone")
    return found.gap


# ---------------------------------------------------------------------------
# Single-case checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    lhs: float
    rhs: float
    slack: float  # lhs - rhs; nonpositive when the inequality holds
    status: str

    @property
    def passed(self) -> bool:
        return self.slack <= PASS_TOL


def check_monotonicity_metric(
    channel: Channel, p: Distribution, x: TangentVector
) -> MonotonicityReport:
    """Norm non-increase of tangent vectors under a Markov map. Once x is
    found based at p, on the channel's input space, this is
    ``monotonicity_metric_kernel`` on a batch of one."""
    if x.base != p:
        raise BasePointMismatch("tangent vector is not based at p")
    if p.space != channel.in_space:
        raise SizeMismatch("distribution is not on the channel input space")
    return _one(monotonicity_metric_kernel, kernel=channel.kernel, p=p.weights, x=x.m_rep)


def check_monotonicity_cometric(
    channel: Channel, p: Distribution, a: RandomVariable
) -> MonotonicityReport:
    """Variance form of co-metric monotonicity: V_p(E_W(A|.)) <= V_{Wp}(A).
    Once a is found on the channel's output space and p on its input space,
    this is ``monotonicity_cometric_kernel`` on a batch of one."""
    if a.space != channel.out_space:
        raise SizeMismatch("variable is not on the channel output space")
    if p.space != channel.in_space:
        raise SizeMismatch(f"sample spaces differ: {p.space.size} vs {channel.in_space.size}")
    return _one(monotonicity_cometric_kernel, kernel=channel.kernel, p=p.weights, a=a.values)


# ---------------------------------------------------------------------------
# Channel kernels: the monotonicity checks over a leading trial axis. A trial
# is the kernel (n_out, n_in) of its channel, the weights of its point and its
# m-representation or variable row; the trials of one shape and kernel layout
# are stacked and checked once per stack, in the order the single case meets
# the checks.
# ---------------------------------------------------------------------------


def monotonicity_metric_kernel(kernel, p, x) -> list[MonotonicityReport]:
    """``check_monotonicity_metric`` over a leading trial axis: each argument
    is a sequence with one entry per trial, in any mix of sizes and kernel
    layouts. Every report is bitwise the one the trial gives alone, and a
    failed check raises what the first failing trial raises alone."""
    return _monotonicity_reports(kernel, p, x, metric=True)


def monotonicity_cometric_kernel(kernel, p, a) -> list[MonotonicityReport]:
    """``check_monotonicity_cometric`` over a leading trial axis, as
    ``monotonicity_metric_kernel`` is the metric's."""
    return _monotonicity_reports(kernel, p, a, metric=False)


def _monotonicity_reports(kernel, p, values, metric: bool) -> list[MonotonicityReport]:
    sides = in_trial_order(partial(_monotonicity_rows, metric=metric), kernel, p, values)
    return [MonotonicityReport(lhs, rhs, lhs - rhs, classify(lhs - rhs)) for lhs, rhs in sides.tolist()]


def _monotonicity_rows(kernel, p, values, metric: bool) -> np.ndarray:
    """The two sides of each trial: the norms of Wx and x (``metric``), or
    the variances of E_W(A|.) and A. Each stack of kernels keeps the layout
    its ``Channel`` would store: products with a C-ordered and an F-ordered
    copy of one matrix can differ in the last bit. A C- or F-contiguous
    float kernel is read in place, any other copied as its ``Channel`` copies it."""
    sides = np.empty((len(p), 2))
    kernel = [k if type(k) is np.ndarray and k.dtype == float and k.flags.forc else np.array(k, float) for k in kernel]
    shapes = [(k.shape, np.isfortran(k), np.shape(w), np.shape(v)) for k, w, v in zip(kernel, p, values)]
    for trials in by_shape(shapes):
        first = kernel[trials[0]]
        if first.ndim != 2:
            raise SizeMismatch(f"a kernel is a matrix (n_out, n_in), not of shape {first.shape}")
        n_out, n_in = first.shape
        SampleSpace(n_in), SampleSpace(n_out)
        if np.isfortran(first):
            k = require_kernel(np.array([kernel[t].T for t in trials]).swapaxes(1, 2))
        else:
            k = require_kernel(np.array([kernel[t] for t in trials]))
        w, v = (np.array([rows[t] for t in trials], dtype=float).reshape(len(trials), -1) for rows in (p, values))
        w = require_weights(_sized(w, n_in))
        if metric:
            v = require_rows_sum_zero(_sized(v, n_in, "m_rep length {0} != space size {1}"))
            image = require_weights(apply_rows(k, w))
            pushed = require_rows_sum_zero(apply_rows(k, v))
            squares = [fisher_metric_rows(at, u[:, None], u[:, None])[:, 0, 0] for at, u in ((image, pushed), (w, v))]
            sides[trials] = np.sqrt(np.maximum(np.stack(squares, axis=-1), 0.0))
        else:
            v = require_finite(_sized(v, n_out))
            expectation = require_finite(conditional_expectation_rows(k, v))
            image = require_weights(apply_rows(k, w))
            sides[trials] = np.stack([cov_rows(w, expectation, expectation), cov_rows(image, v, v)], axis=-1)
    return sides


@dataclass(frozen=True)
class InvarianceReport:
    residuals: dict[str, float]
    max_residual: float
    status: str

    @property
    def passed(self) -> bool:
        return self.max_residual <= PASS_TOL


@dataclass(frozen=True)
class StrongInvarianceReport(InvarianceReport):
    @property
    def passed(self) -> bool:
        return self.max_residual <= STRONG_INVARIANCE_TOL


def check_invariance(
    pair: EmbeddingPair,
    q: Distribution,
    x_m_rep: np.ndarray,
    y_m_rep: np.ndarray,
    a: RandomVariable,
    b: RandomVariable,
) -> InvarianceReport:
    """Exact norm preservation through an embedding/co-embedding pair.

    With p the marginal of q, verifies the metric identity through the
    embedding, the co-metric identity through the co-embedding, the
    variance/covariance identities under composition with the surjection,
    and g(#A, #B) = Cov(A, B), #A = p o (A - E_p A), at p and at q (sharp).
    ``x_m_rep``/``y_m_rep`` are sum-zero arrays on the small space; ``a``,
    ``b`` random variables there. Residuals are relative. This is
    ``invariance_kernel`` on a batch of one.
    """
    if q.space != pair.surjection.domain:
        raise SizeMismatch("distribution is not on the channel input space")
    if a.space != pair.surjection.codomain or b.space != pair.surjection.codomain:
        raise SizeMismatch("random variable and distribution on different spaces")
    return _one(invariance_kernel, surjection=pair.surjection.map0, fibers=pair.fiber_distributions,
                q=q.weights, x=x_m_rep, y=y_m_rep, a=a.values, b=b.values)


def check_strong_invariance(
    pair: EmbeddingPair, q: Distribution, a: RandomVariable, b: RandomVariable
) -> StrongInvarianceReport:
    """Adjointness of the pair's differentials plus the covariance identity.

    Requires the canonical pair of (F, q): the embedding must pass through
    q. With p = q^F, the differentials Phi of the embedding and Psi of the
    co-embedding are mutually adjoint, g_q(Phi X, Y) = g_p(X, Psi Y); Psi is
    a left inverse of Phi; Phi is an isometry and Psi a co-isometry; and
    Pi = Phi Psi is the g_q-orthogonal projector onto the embedded tangent
    space. Each statement is a rational identity, checked on the spanning
    rows X_i = e_i - e_m and Y_j = e_j - e_n of the two tangent spaces, with
    every product through ``apply_rows`` and every inner product through
    ``fisher_metric_rows``. A residual is the identity's largest entrywise
    gap, relative to the largest of 1, both sides and, where the terms of a
    side may cancel, the sum of their absolute values: so it stays at
    rounding level near the boundary. Finally the mixed covariance identity
    Cov_{q^F}(A, E_V(B|.)) = Cov_q(A o F, B) is evaluated with ``a`` on the
    small space and ``b`` on the large one. This is
    ``strong_invariance_kernel`` on a batch of one.
    """
    if q.space != pair.surjection.domain:
        raise SizeMismatch("distribution is not on the channel input space")
    if b.space != q.space:
        raise SizeMismatch("variable is not on the channel output space")
    if a.space != pair.surjection.codomain:
        raise SizeMismatch(f"sample spaces differ: {pair.surjection.codomain.size} vs {a.space.size}")
    return _one(strong_invariance_kernel, surjection=pair.surjection.map0, fibers=pair.fiber_distributions,
                q=q.weights, a=a.values, b=b.values)


# ---------------------------------------------------------------------------
# Pair kernels: the invariance checks and the pairing identity over a leading
# trial axis
#
# A trial is arrays: the 0-based map of its surjection F (n,), the fiber
# matrix r (m, n) of its pair, its points and its variable rows. Trials whose
# inputs have the same shapes are stacked into C-ordered arrays and go through
# the rows forms of simplex, geometry and markov, whose batches of one are the
# scalar functions the objects use: one BLAS dot or matrix-vector product per
# row, and row sums over the last axis. So every entry is bitwise the trial's
# own. The checks of the objects a trial stands for run once per stack
# through the ``require_*`` helpers of their constructors: the pair's first,
# then its points', its variables' and those of what the check derives.
# ---------------------------------------------------------------------------


#: The residuals of each pair check, in report order.
_INVARIANCE_KEYS = ("metric", "cometric", "variance", "covariance", "sharp")
_STRONG_INVARIANCE_KEYS = (
    "adjoint", "projector_idempotent", "projector_self_adjoint", "projector_fixes_image",
    "section", "isometry", "coisometry", "covariance_identity",
)
#: Largest |embedding of the marginal - q| of a canonical pair.
_CANONICAL_TOL = 1e-12


def _relative(lhs: np.ndarray, rhs: np.ndarray, terms: np.ndarray | float = 1.0) -> np.ndarray:
    """|lhs - rhs| over the largest of 1, |lhs|, |rhs| and ``terms``, the sum
    of the absolute terms of a side whose terms may cancel."""
    return abs(lhs - rhs) / np.maximum(np.maximum(np.maximum(1.0, terms), abs(lhs)), abs(rhs))


def _sized(rows: np.ndarray, size: int, mismatch: str = "expected length {1}, got {0}") -> np.ndarray:
    """Stacked rows of length ``size``, or ``SizeMismatch``: ``mismatch`` of (length, size)."""
    if rows.shape[1] != size:
        raise SizeMismatch(mismatch.format(rows.shape[1], size))
    return rows


def _one(kernel: Callable, /, **case):
    """``kernel`` on a batch of one: the report of one case, its inputs by name."""
    return kernel(**{key: [value] for key, value in case.items()})[0]


def _reports(report: type, keys: tuple[str, ...], residuals: np.ndarray, pass_tol: float) -> list:
    """One report per row of residuals, its worst residual classified at ``pass_tol``."""
    reports = []
    for row in residuals.tolist():
        values = dict(zip(keys, row))
        worst = max(values.values())
        reports.append(report(values, worst, classify(worst, pass_tol)))
    return reports


def invariance_kernel(surjection, fibers, q, x, y, a, b) -> list[InvarianceReport]:
    """``check_invariance`` over a leading trial axis.

    Each argument is a sequence with one entry per trial, in any mix of
    sizes. Every residual is bitwise the one the trial gives alone, and a
    failed check raises what the first failing trial raises alone.
    """
    residuals = in_trial_order(_invariance_rows, surjection, fibers, q, x, y, a, b)
    return _reports(InvarianceReport, _INVARIANCE_KEYS, residuals, PASS_TOL)


def _invariance_rows(surjection, fibers, q, x, y, a, b) -> np.ndarray:
    residuals = np.empty((len(q), len(_INVARIANCE_KEYS)))
    for trials, maps, phi, psi, w, a_values, b_values, *m_reps in pair_stacks(
        surjection, fibers, q, a, b, x, y
    ):
        n, m = phi.shape[1:]
        w = require_weights(_sized(w, n))
        a_values, b_values = (require_finite(_sized(v, m)) for v in (a_values, b_values))
        p = require_weights(apply_rows(psi, w))
        x, y = (require_rows_sum_zero(_sized(v, m, "m_rep length {0} != space size {1}")) for v in m_reps)
        # pushforward through the embedding, to the embedded image of p
        image = require_weights(apply_rows(phi, p))
        x_up, y_up = (require_rows_sum_zero(apply_rows(phi, v)) for v in (x, y))
        alpha, beta = (delta_rows(p, v) for v in (a_values, b_values))
        # pullback through the co-embedding: conditional expectation, then delta at q
        alpha_up, beta_up = (
            delta_rows(w, require_finite(conditional_expectation_rows(psi, v))) for v in (alpha, beta)
        )
        a_lift, b_lift = (
            require_finite(compose_variable_rows(v, maps)) for v in (a_values, b_values)
        )
        small, big = cov_rows(p, a_values, b_values), cov_rows(w, a_lift, b_lift)
        # g(#A, #B) = Cov(A, B), #A = p o (A - E_p A): at p, where A - E_p A is alpha, and at q for A o F
        sharp = [_relative(fisher_metric_rows(at, (at * u)[:, None], (at * v)[:, None])[:, 0, 0], c)
                 for at, u, v, c in ((p, alpha, beta, small),
                                     (w, centered_rows(w, a_lift), centered_rows(w, b_lift), big))]
        residuals[trials] = np.stack([
            _relative(fisher_metric_rows(p, x[:, None], y[:, None])[:, 0, 0],
                      fisher_metric_rows(image, x_up[:, None], y_up[:, None])[:, 0, 0]),
            _relative(cov_rows(p, alpha, beta), cov_rows(w, alpha_up, beta_up)),
            _relative(cov_rows(p, a_values, a_values), cov_rows(w, a_lift, a_lift)),
            _relative(small, big),
            np.maximum(*sharp),
        ], axis=-1)
    return residuals


def strong_invariance_kernel(surjection, fibers, q, a, b) -> list[StrongInvarianceReport]:
    """``check_strong_invariance`` over a leading trial axis.

    Each argument is a sequence with one entry per trial, in any mix of
    sizes; it runs once per shape. Every residual is bitwise the one the
    trial gives alone, and a failed check raises what the first failing
    trial raises alone.
    """
    residuals = in_trial_order(_strong_invariance_rows, surjection, fibers, q, a, b)
    return _reports(
        StrongInvarianceReport, _STRONG_INVARIANCE_KEYS, residuals, STRONG_INVARIANCE_TOL
    )


def _strong_invariance_rows(surjection, fibers, q, a, b) -> np.ndarray:
    residuals = np.empty((len(q), len(_STRONG_INVARIANCE_KEYS)))
    for trials, maps, phi, psi, w, a_values, b_values in pair_stacks(surjection, fibers, q, a, b):
        n, m = phi.shape[1:]
        w = require_weights(_sized(w, n))
        a_values = require_finite(_sized(a_values, m))
        b_values = require_finite(_sized(b_values, n))
        p = require_weights(apply_rows(psi, w))
        if not abs(require_weights(apply_rows(phi, p)) - w).max() <= _CANONICAL_TOL:
            raise InvalidParameter(
                "pair is not the canonical embedding through q: the embedding "
                "of the marginal does not recover q"
            )
        # The spanning rows X_i = e_i - e_m of the small tangent space and
        # Y_j = e_j - e_n of the big one, and their images, one ``kernel @ row``
        # product each; the canonical pair embeds exactly at q, so the images
        # of X and of Pi Y = Phi Psi Y are attached there.
        small, big = (np.eye(size)[:-1] - np.eye(size)[-1] for size in (m, n))
        up = require_rows_sum_zero(apply_rows(phi[:, None], small))
        down = require_rows_sum_zero(apply_rows(psi[:, None], big))
        projected = require_rows_sum_zero(apply_rows(phi[:, None], down))
        section = apply_rows(psi[:, None], up)
        gram = fisher_metric_rows(w, projected, big)
        # Where one fiber holds both outcomes of Y_j, the terms of g_q(Phi X_i, Y_j)
        # and g_q(Pi Y_i, Y_j) cancel to 0 from about 1/p, so their gaps are
        # measured against the sums of the absolute terms; the terms of every
        # other entry share a sign.
        adjoint_terms, gram_terms = (
            fisher_metric_rows(w, abs(rows), abs(big)) for rows in (up, projected)
        )
        expectation = require_finite(conditional_expectation_rows(phi, b_values))
        a_lift = require_finite(compose_variable_rows(a_values, maps))
        # each identity's largest entrywise relative gap, in report order
        sides = [
            (fisher_metric_rows(w, up, big), fisher_metric_rows(p, small, down), adjoint_terms),
            (apply_rows(phi[:, None], apply_rows(psi[:, None], projected)), projected, 1.0),
            (gram, gram.transpose(0, 2, 1), np.maximum(gram_terms, gram_terms.transpose(0, 2, 1))),
            (apply_rows(phi[:, None], section), up, 1.0),
            (section, small, 1.0),
            (fisher_metric_rows(w, up, up), fisher_metric_rows(p, small, small), 1.0),
            (fisher_metric_rows(p, down, down), gram, gram_terms),
        ]
        residuals[trials] = np.stack(
            [_relative(*identity).max(axis=(1, 2)) for identity in sides]
            + [abs(cov_rows(p, a_values, expectation) - cov_rows(w, a_lift, b_values))],
            axis=-1,
        )
    return residuals


@dataclass(frozen=True)
class Prop6Report:
    lhs: float
    rhs: float
    residual: float
    status: str
    witness: Witness | None

    @property
    def passed(self) -> bool:
        return self.residual <= PASS_TOL


def check_prop6_identity(
    pair: EmbeddingPair,
    p: Distribution,
    alpha: CotangentVector,
    beta: CotangentVector,
    family: CandidateFamily,
) -> Prop6Report:
    """Two-sided pullback pairing with ``family`` standing in for the form:

        h_{m,p}(alpha, Phi^* beta)  vs  h_{n,Phi(p)}(Psi^* alpha, beta),

    evaluated on canonical centered representatives. The covariance family
    satisfies the identity; families that do not descend to cotangent
    classes generically produce a witness. Once alpha is found based at p
    and beta at the image of p, this is ``prop6_kernel`` on a batch of one.
    """
    if p.space != pair.surjection.codomain:
        raise SizeMismatch("p must live on the small space of the pair")
    # a base that is p itself is equal to it: valid weights are never NaN
    if alpha.base is not p and alpha.base != p:
        raise InvalidParameter("alpha must be based at p")
    if beta.base != apply(pair.embedding_channel, p):
        raise InvalidParameter("beta must be based at the embedded image of p")
    return _one(prop6_kernel, surjection=pair.surjection.map0, fibers=pair.fiber_distributions,
                p=p.weights, a=alpha.rep.values, b=beta.rep.values, family=family)


def prop6_kernel(surjection, fibers, p, a, b, family) -> list[Prop6Report]:
    """``check_prop6_identity`` over a leading trial axis.

    Each argument is a sequence with one entry per trial, in any mix of
    sizes and families; a and b represent alpha at p and beta at its image.
    The trials of one shape and family go through the stacked kernels and
    the rows forms together, and a grammar family evaluates both sides of
    all of them in one ``CandidateFamily.matrix_rows`` call each; any other
    family is called pair by pair, in trial order. Every report is bitwise
    the one the trial gives alone, a witness is built for a violating trial
    only, and a failed check raises what the first failing trial raises alone.
    """
    return in_trial_order(_prop6_rows, surjection, fibers, p, a, b, family)


def _prop6_rows(surjection, fibers, p, a, b, family) -> list[Prop6Report]:
    # per trial its rows and the two sides of its group, read in trial order from one phase per family
    per_trial: list = [None] * len(p)
    phases: dict = {}
    for trials, maps, phi, psi, w, a_reps, b_reps in pair_stacks(surjection, fibers, p, a, b, key=family):
        n, m = phi.shape[1:]
        w = require_weights(_sized(w, m))
        require_centered(expect_rows(w, require_finite(_sized(a_reps, m))))
        q_img = require_weights(apply_rows(phi, w))
        require_centered(expect_rows(q_img, require_finite(_sized(b_reps, n))))
        phi_pull = delta_rows(w, require_finite(conditional_expectation_rows(phi, b_reps)))
        psi_pull = delta_rows(q_img, require_finite(conditional_expectation_rows(psi, a_reps)))
        one = family[trials[0]]
        phase = phases.setdefault(id(one), _Phase(one))
        lhs = chain.from_iterable(_pair_matrices(one, w, a_reps[:, None], phi_pull[:, None], phase))
        rhs = chain.from_iterable(_pair_matrices(one, q_img, psi_pull[:, None], b_reps[:, None], phase))
        for t, *rows in zip(trials, maps, phi, w, q_img, a_reps, b_reps):
            per_trial[t] = (*rows, lhs, rhs)
    reports = []
    for t, (map0, kernel, w, q_img, a_rep, b_rep, lhs, rhs) in enumerate(per_trial):
        lhs, rhs = float(next(lhs)[0, 0]), float(next(rhs)[0, 0])
        residual = abs(lhs - rhs)
        status = classify(residual)
        witness = Witness(
            kind="prop6_identity", m=len(w), n=len(q_img), lhs=lhs, rhs=rhs, gap=residual,
            surjection=tuple(map0.tolist()), kernel=_rows(kernel), point=_floats(w),
            a=_floats(a_rep), b=_floats(b_rep), family=family[t].name,
        ) if status == "violation" else None
        reports.append(Prop6Report(lhs, rhs, residual, status, witness))
    return reports


def weak_invariance_residual_kernel(surjection, q, alpha, grid, step, mismatched) -> list[float]:
    """Weak invariance of the alpha-connection through the canonical pair of (F, q), per trial: the
    larger residual of ``weak_invariance_check`` with X = d/dxi^1 and Y^i = 0.4 + 0.3 (xi^i)^2 on the
    categorical model of the small space at each grid point. F is a 0-based map onto max + 1 points
    and q its weights, checked first as a Surjection and a Distribution; ``mismatched`` puts the dual
    connection (the e-connection at alpha = 0) on the big simplex. One ``weak_invariance_kernel`` call
    for all trials: each residual is bitwise the trial's alone, a failure the first failing trial's."""
    return in_trial_order(
        _weak_invariance_residual_rows, surjection, q, alpha, grid, step, mismatched
    )


def _quadratic_field(model) -> VectorFieldOnModel:
    """Y^i = 0.4 + 0.3 (xi^i)^2 on ``model``."""
    dim = model.dim
    return VectorFieldOnModel(model, lambda xi: np.full(dim, 0.4) + 0.3 * np.asarray(xi) ** 2)


def _weak_invariance_residual_rows(surjection, q, alpha, grid, step, mismatched) -> list[float]:
    trials = []
    for map_t, q_t, alpha_t, mismatched_t in zip(surjection, q, alpha, mismatched):
        maps, w, m = _map_and_point(map_t, q_t)
        model = categorical_model(m)
        tag_big = ConnectionTag(-alpha_t if alpha_t != 0.0 else 1.0) if mismatched_t else None
        r = canonical_embedding_rows(maps, w, m)
        xy = (coordinate_field(model, 0), _quadratic_field(model))
        trials.append((maps[0], r[0], ConnectionTag(alpha_t), *xy, tag_big))
    maps, fibers, tags, x, y, tag_big = zip(*trials) if trials else ([],) * 6
    reports = weak_invariance_kernel(maps, fibers, tags, x, y, grid, step, tag_big)
    return [max(report.residual_max, report.metric_residual_max) for report in reports]


def _map_and_point(surjection, q, m: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """A 0-based map onto m points (by default its max + 1) and the weights of q on its domain, as
    rows (1, n), and m, after the ``Surjection`` checks of the map and the ``Distribution`` ones of q."""
    maps = np.array(surjection).reshape(1, -1)
    n = SampleSpace(maps.shape[1]).size
    if m is None:  # a map of another dtype is checked onto n points, which require_maps rejects
        m = int(maps.max()) + 1 if maps.dtype.kind in "iu" else n
    require_maps(maps, SampleSpace(m).size)
    return maps, require_weights(_sized(np.array(q, dtype=float).reshape(1, -1), n)), m


# ---------------------------------------------------------------------------
# Characterization probe: a step requests its pair matrices when it is drawn
# and reads them when it is decided
# ---------------------------------------------------------------------------

#: Pair products of one point's matrix up to which a request is zero-padded
#: into the stack of its outcome count: less than one more ``matrix_rows`` call costs.
_PAD_FLOATS = 2**12


class _Phase:
    """The pair matrices a grammar family is asked for in one probe phase. A
    request waits until it is first read; then the waiting requests of its
    outcome count N are evaluated with it by one ``matrix_rows`` call, rows and
    columns zero-padded to the largest, but one of more than ``_PAD_FLOATS``
    pair products per point goes alone, so padding never multiplies the work at
    large n. Each entry keeps its own contiguous length-N sums: no bit moves."""

    def __init__(self, family: CandidateFamily):
        self.family, self.requests, self.keys, self.groups = family, [], [], {}

    def request(self, w: np.ndarray, rows, cols) -> Iterator[np.ndarray]:
        n, r, c = w.shape[1], rows.shape[1], cols.shape[1]
        self.keys.append(n if n * r * c <= _PAD_FLOATS else (len(self.keys),))
        self.requests.append([w, rows, cols])
        return self._read(len(self.keys) - 1)

    def _read(self, index: int) -> Iterator[np.ndarray]:
        if len(self.requests[index]) == 3:
            if len(self.groups) < len(self.keys):
                self.groups = {i: group for group in by_shape(self.keys) for i in group}
            self._evaluate([self.requests[i] for i in self.groups[index] if len(self.requests[i]) == 3])
        yield self.requests[index].pop()

    def _evaluate(self, group: list[list]) -> None:
        shapes = [(rows.shape[1], cols.shape[1]) for _, rows, cols in group]
        ends = list(accumulate(len(w) for w, _, _ in group))
        stacks = group[0]
        if len(group) > 1:
            n, (r, c) = group[0][0].shape[1], map(max, zip(*shapes))
            stacks = np.empty((ends[-1], n)), np.zeros((ends[-1], r, n)), np.zeros((ends[-1], c, n))
            for (w, rows, cols), (r, c), start, end in zip(group, shapes, [0, *ends], ends):
                stacks[0][start:end], stacks[1][start:end, :r], stacks[2][start:end, :c] = w, rows, cols
        values = self.family.matrix_rows(*stacks)
        for request, (r, c), start, end in zip(group, shapes, [0, *ends], ends):
            request[:] = [values[start:end, :r, :c]]


@lru_cache(maxsize=256)
def _uniform_weights(n: int) -> np.ndarray:
    """The checked weights (1, n) of the uniform point on n outcomes, read-only."""
    w = require_weights(np.full((1, n), 1.0 / n))
    w.flags.writeable = False
    return w


def _pair_matrices(family: CandidateFamily, w: np.ndarray, rows, cols, phase: _Phase | None = None):
    """[family(p_t, A_ti, B_tj)] at each point of the stack ``w`` (T, n), for rows (T, r, n)
    and (T, c, n), yielded as stacks (t, r, c) in point order; the caller checks ``w``. The
    only family evaluator: a grammar family's points are one request of ``phase`` (by default
    a phase of their own); a plugin, or a subclass that may override ``__call__``, is called
    pair by pair at one point per ``next``, and its values are read as floats."""
    if type(family) is CandidateFamily:
        return (phase or _Phase(family)).request(w, rows, cols)
    return (_plugin_matrix(family, *point) for point in zip(w, rows, cols))


def _plugin_matrix(family, w: np.ndarray, rows, cols) -> np.ndarray:
    p = new_distribution(SampleSpace(w.size), w)
    left, right = ([RandomVariable(p.space, row) for row in side] for side in (rows, cols))
    return np.array([[[family(p, a, b) for b in right] for a in left]], dtype=float)


def _lifted_pair_matrix(family: CandidateFamily, n: int, counts, phase: _Phase):
    """The uniform indicator pair matrix on n points lifted through the map collapsing blocks of ``counts``
    (one count, or one per point), requested of ``phase`` with boolean rows: an eighth of their floats."""
    lifts = np.repeat(np.eye(n, dtype=bool), counts, axis=1)[None]
    return _pair_matrices(family, _uniform_weights(lifts.shape[2]), lifts, lifts, phase)


def _indicator_witness(kind: str, family: CandidateFamily, sizes: tuple[int, int], pair: tuple[int, int],
                       sides: tuple[np.ndarray, np.ndarray], gap: float, detail: str, **inputs) -> Witness:
    """A probe witness on the indicator pair (i, j) of an m-point space, its
    sides read at (i, j); ``inputs`` are the point, surjection or constants."""
    (m, n), (i, j), (lhs, rhs) = sizes, pair, sides
    units = np.eye(m)
    return Witness(kind=kind, m=m, n=n, lhs=float(lhs[i, j]), rhs=float(rhs[i, j]), gap=gap,
                   a=_floats(units[i]), b=_floats(units[j]), family=family.name, detail=detail, **inputs)


def _first_worst(gaps: np.ndarray) -> tuple[list[float], list[int], list[int]]:
    """The largest gap of each matrix of the stack (T, r, c) and its first
    position in row-major order, as a strict ``gap > worst`` scan from 0.0
    finds them: NaN gaps are skipped."""
    scan = np.where(np.isnan(gaps), 0.0, gaps).reshape(len(gaps), -1)
    i, j = np.divmod(scan.argmax(axis=1), gaps.shape[2])
    return scan.max(axis=1).tolist(), i.tolist(), j.tolist()


def _fold(gaps: np.ndarray) -> float:
    """Python's ``max(worst, gap)`` folded over the gaps from 0.0: the largest, NaN skipped."""
    return float(np.fmax.reduce(gaps, axis=None, initial=0.0))


class _ProbeVerdict:
    """The verdict of every probe step: no witness and a passing residual."""

    @property
    def passed(self) -> bool:
        return self.witness is None and self.max_residual <= PASS_TOL


@dataclass(frozen=True)
class UniformProbeResult(_ProbeVerdict):
    n: int
    a: float
    b: float
    max_residual: float
    witness: Witness | None


def probe_uniform(family: CandidateFamily, n: int) -> UniformProbeResult:
    """Step (a): indicator matrix at the uniform point must be a*I + b*ones."""
    require_integer(n, "n")
    return _uniform_table(family, [n], _Phase(family))(n)[0]


def _uniform_table(family: CandidateFamily, sizes, phase: _Phase) -> Callable[[int], tuple]:
    """``probe_uniform`` at each of ``sizes``, with the indicator matrix it
    evaluated: the matrices are requested of ``phase`` now, and each size is
    probed once, when it is first read."""
    if min(sizes) < 2:
        raise InvalidParameter("probe needs n >= 2")
    requests = {n: _lifted_pair_matrix(family, n, 1, phase) for n in sizes}

    @cache
    def probe(n: int) -> tuple[UniformProbeResult, np.ndarray]:
        matrix = next(requests[n])[0]
        off_mask = ~np.eye(n, dtype=bool)
        b = float(np.mean(matrix[off_mask]))
        a = float(np.mean(np.diag(matrix))) - b
        model = a * np.eye(n) + b
        residuals = np.abs(matrix - model)
        worst = float(np.max(residuals))
        witness = None
        if worst > VIOLATION_TOL:
            i, j = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
            witness = _indicator_witness(
                "uniform_shape", family, (n, n), (i, j), (matrix, model), worst,
                f"indicator pair ({i + 1}, {j + 1}) breaks permutation symmetry",
                point=_floats(np.full(n, 1.0 / n)),
            )
        return UniformProbeResult(n, a, b, worst, witness), matrix

    return probe


@dataclass(frozen=True)
class ConsistencyProbeResult(_ProbeVerdict):
    m: int
    n: int
    c1: float
    c2: float
    max_residual: float
    witness: Witness | None


def probe_consistency(family: CandidateFamily, m: int, n: int) -> ConsistencyProbeResult:
    """Step (b): block-surjection lift must preserve the uniform evaluations.

    Compares the family at the uniform n-point with its lift through the
    block surjection onto the uniform mn-point, and the derived constants
    c1 = n * a_n, c2 = n^2 * b_n across the two dimensions.
    """
    require_integer(m, "m")
    require_integer(n, "n")
    if m < 2 or n < 2:
        raise InvalidParameter("probe needs m, n >= 2")
    phase = _Phase(family)
    lift = _lifted_pair_matrix(family, n, m, phase)
    return _probe_consistency(family, m, n, _uniform_table(family, [n, m * n], phase), lift)


def _probe_consistency(family: CandidateFamily, m: int, n: int, uniform_at: Callable, lift: Iterator):
    """``probe_consistency`` with the uniform probes read from a ``_uniform_table``
    and the lift from a ``_lifted_pair_matrix``."""
    small, lhs = uniform_at(n)
    if small.witness is not None:
        return ConsistencyProbeResult(m, n, 0.0, 0.0, small.max_residual, small.witness)
    big, _ = uniform_at(m * n)
    if big.witness is not None:
        return ConsistencyProbeResult(m, n, 0.0, 0.0, big.max_residual, big.witness)
    rhs = next(lift)[0]
    (worst,), (i,), (j,) = _first_worst(np.abs(lhs - rhs)[None])
    witness = None
    if worst > VIOLATION_TOL:
        witness = _indicator_witness(
            "cross_dimension", family, (n, m * n), (i, j), (lhs, rhs), worst,
            f"lift of indicator pair ({i + 1}, {j + 1}) changes the uniform evaluation",
            surjection=tuple(np.repeat(np.arange(n), m).tolist()),
        )
    c1_small, c2_small = n * small.a, n * n * small.b
    c1_big, c2_big = m * n * big.a, (m * n) ** 2 * big.b
    worst = max(worst, abs(c1_small - c1_big), abs(c2_small - c2_big))
    return ConsistencyProbeResult(m, n, c1_small, c2_small, worst, witness)


def rationalize(p: Distribution, denominator_bound: int) -> tuple[int, np.ndarray]:
    """Smallest common denominator representation p(i) = k_i / m, m <= bound:
    ``_rationalize_rows`` on a batch of one."""
    return _rationalize_rows(p.weights[None], denominator_bound)[0]


def _rationalize_rows(points: np.ndarray, denominator_bound: int) -> list[tuple[int, np.ndarray]]:
    """``rationalize`` at each point of the stack ``points`` (T, n), in point
    order, or ``NotRational`` if a point has no representation.

    Scans the denominators n, n + 1, ... in blocks of ``_RATIONALIZE_BLOCK``,
    each block over every point not matched by an earlier block, and stops
    once every point is matched.
    """
    count, n = points.shape
    denominators = np.zeros(count, dtype=int)
    counts = np.zeros((count, n), dtype=int)
    for start in range(n, denominator_bound + 1, _RATIONALIZE_BLOCK):
        unmatched = np.flatnonzero(denominators == 0)
        if not unmatched.size:
            break
        ms = np.arange(start, min(start + _RATIONALIZE_BLOCK, denominator_bound + 1))[:, None]
        w = points[unmatched, None, :]
        block = np.rint(w * ms).astype(int)
        hits = (
            np.all(block >= 1, axis=2)
            & (block.sum(axis=2) == ms[:, 0])
            & (np.max(np.abs(w - block / ms), axis=2) <= RATIONAL_TOL)
        )
        matched = np.flatnonzero(hits.any(axis=1))
        first = np.argmax(hits[matched], axis=1)
        denominators[unmatched[matched]] = ms[first, 0]
        counts[unmatched[matched]] = block[matched, first]
    if not denominators.all():
        raise NotRational(f"no rational representation with denominator <= {denominator_bound}")
    return list(zip(denominators.tolist(), counts))


def _fit_constants(w: np.ndarray, matrix: np.ndarray) -> tuple[float, float]:
    """Least-squares (c1, c2) fit of the indicator-pair matrix at the point
    of weights ``w`` to c1 diag(w) + c2 w w^T."""
    features = np.column_stack([np.diag(w).ravel(), np.outer(w, w).ravel()])
    solution, *_ = np.linalg.lstsq(features, matrix.ravel(), rcond=None)
    return float(solution[0]), float(solution[1])


@dataclass(frozen=True)
class RationalProbeResult(_ProbeVerdict):
    n: int
    denominator: int
    counts: tuple[int, ...]
    c1: float
    c2: float
    max_residual: float
    witness: Witness | None


def probe_rational(family: CandidateFamily, p: Distribution, denominator_bound: int,
                   constants: tuple[float, float]) -> RationalProbeResult:
    """Step (c): the decomposition extends to rational points.

    Builds the partition surjection from the uniform space over the common
    denominator, lifts indicator pairs, and checks both the lift equality
    and the target decomposition c1 <A|B>_p + c2 <A><B> with
    ``constants = (c1, c2)``. This is ``_rational_probes`` on a batch of one.
    """
    require_integer(denominator_bound, "denominator_bound")
    return next(_rational_probes(family, p.weights[None], denominator_bound, constants, _Phase(family)))


def _rational_probes(family: CandidateFamily, points: np.ndarray, denominator_bound: int,
                     constants: tuple[float, float], phase: _Phase) -> Iterator[RationalProbeResult]:
    """``probe_rational`` at each point of the checked stack ``points`` (T, n), yielded
    in point order. The denominators come from one ``_rationalize_rows`` scan, and the
    value matrices and each point's lifted matrix, over its own denominator, are
    requested of ``phase`` now. The gaps of each stack ``_pair_matrices`` yields are
    found at once, so a plugin family is evaluated at no point past the first witness.
    """
    n = points.shape[1]
    found = _rationalize_rows(points, denominator_bound)
    units = np.broadcast_to(np.eye(n), (len(points), n, n))
    values = _pair_matrices(family, points, units, units, phase)
    lifts = [_lifted_pair_matrix(family, n, counts, phase) for _, counts in found]
    c1, c2 = map(float, constants)
    targets = c1 * (points[:, :, None] * np.eye(n)) + c2 * (points[:, :, None] * points[:, None, :])

    def results(start: int = 0) -> Iterator[RationalProbeResult]:
        for value in values:
            part = range(start, start + len(value))
            lifted = np.concatenate([next(lifts[t]) for t in part])
            to_lift, to_target = np.abs(value - lifted), np.abs(value - targets[part])
            # Python's max(to_lift, to_target): the first unless the second is larger
            # (np.maximum would differ on NaN)
            gaps = np.where(to_target > to_lift, to_target, to_lift)
            for k, (t, worst, i, j) in enumerate(zip(part, *_first_worst(gaps))):
                (denominator, counts), witness = found[t], None
                if worst > VIOLATION_TOL:
                    rhs = lifted[k] if to_lift[k, i, j] >= to_target[k, i, j] else targets[t]
                    witness = _indicator_witness(
                        "rational_point", family, (n, denominator), (i, j), (value[k], rhs), worst,
                        f"D={denominator_bound}", point=_floats(points[t]), constants=(c1, c2),
                        surjection=tuple(np.repeat(np.arange(n), counts).tolist()),
                    )
                yield RationalProbeResult(n, denominator, tuple(counts.tolist()), c1, c2, worst, witness)
            start = part.stop

    return results()


def _best_rational_approximations(weights: np.ndarray, bounds: list[int]) -> np.ndarray:
    """The weights (len(bounds), n) of the closest point with a common
    denominator <= each bound (largest-remainder); the caller checks them.

    Each denominator m starts from floor(w m), at least 1 per weight, gives
    a deficit to the largest remainders and takes an excess greedily from the
    largest floor - w m, down to 1 each; for each bound, the first m of its
    prefix with the smallest error wins. One pass over (max bound - n + 1, n)
    arrays, a row per m: callers pass bounds <= 64."""
    n = weights.shape[0]
    ms = np.arange(n, max(bounds, default=0) + 1)[:, None]
    scaled = weights * ms
    floors = np.maximum(np.floor(scaled).astype(int), 1)
    deficit = ms - floors.sum(axis=1, keepdims=True)
    order = np.argsort(np.where(deficit > 0, -(scaled - floors), -(floors - scaled)), axis=1)
    excess = np.take_along_axis(floors - 1, order, axis=1)
    earlier = np.cumsum(excess, axis=1) - excess
    steps = np.where(deficit > 0, np.arange(n) < deficit, -np.clip(-deficit - earlier, 0, excess))
    counts = np.empty_like(floors)
    np.put_along_axis(counts, order, excess + 1 + steps, axis=1)
    approx = counts / ms
    errors = np.max(np.abs(weights - approx), axis=1)
    return approx[[int(np.argmin(errors[: max(bound - n + 1, 0)])) for bound in bounds]].reshape(-1, n)


def _continuity_errors(family: CandidateFamily, spot: np.ndarray, bounds: list[int], phase=None) -> Iterator:
    """Step (d): distance from the constants fitted at the spot's weights to those fitted at its
    best rational approximation, per denominator bound, yielded in bound order. The spot is checked
    first, then its approximations; the indicator matrices of all the points are one request of
    ``phase``, made now, and each point is fitted on its own when read."""
    in_trial_order(require_weights, spot[None])
    approximations = in_trial_order(require_weights, _best_rational_approximations(spot, bounds))
    points = np.concatenate([spot[None], approximations])
    units = np.broadcast_to(np.eye(spot.size), (len(points), spot.size, spot.size))
    matrices = chain.from_iterable(_pair_matrices(family, points, units, units, phase))
    fits = map(_fit_constants, points, matrices)

    def errors() -> Iterator[float]:
        spot_fit = np.array(next(fits))
        for fit in fits:
            yield float(np.max(np.abs(np.array(fit) - spot_fit)))

    return errors()


def _format_constant(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


@dataclass(frozen=True)
class CharacterizeResult:
    family: str
    c1: float
    c2: float
    ii1_holds: bool
    verdict: str
    witness: Witness | None
    constants_by_n: dict[int, tuple[float, float]]
    continuity_errors: tuple[float, ...]
    note: str

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "witness": None if self.witness is None else self.witness.to_json(),
            "constants_by_n": {str(n): list(c) for n, c in sorted(self.constants_by_n.items())},
            "continuity_errors": list(self.continuity_errors),
        }


def _witness_result(family_name: str, witness: Witness) -> CharacterizeResult:
    return CharacterizeResult(family_name, float("nan"), float("nan"), False, "witness", witness, {}, (),
                              "a counterexample was found before the decomposition completed")


def check_bilinearity(family: CandidateFamily, n: int, seed: int) -> float:
    """Largest bilinearity defect over ``_BILINEARITY_TRIALS`` random triples; grammar families
    satisfy it by construction, plugin evaluators may not. Each trial reads its six values as one
    3x1 and one 1x3 pair matrix; the trials are drawn first, their points checked once, then
    evaluated as one ``_pair_matrices`` stack per side."""
    require_integer(n, "n")
    require_seed(seed)
    return _bilinearity(family, n, seed, _Phase(family))()


def _bilinearity(family: CandidateFamily, n: int, seed: int, phase: _Phase) -> Callable[[], float]:
    """``check_bilinearity``'s draws, both sides requested of ``phase`` now,
    and its defect, read and folded when called."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(_BILINEARITY_TRIALS):
        w = _flatten_dirichlet(rng, n)
        a1, a2, b = (rng.normal(size=n) for _ in range(3))
        s, t = rng.normal(size=2)
        draws.append((w, np.array([s * a1 + t * a2, a1, a2]), b[None], s, t))
    w, rows, b, s, t = (np.array(column) for column in zip(*draws))
    in_trial_order(require_weights, w)
    sides = zip(_pair_matrices(family, w, rows, b, phase), _pair_matrices(family, w, b, rows, phase))

    def defect() -> float:
        left, right = (np.concatenate(side) for side in zip(*sides))
        at = np.stack([left[:, :, 0], right[:, 0]], axis=1)  # (T, side, (s a1 + t a2, a1, a2))
        return _fold(abs(at[..., 0] - s[:, None] * at[..., 1] - t[:, None] * at[..., 2]))

    return defect


def _flatten_dirichlet(rng: np.random.Generator, n: int) -> np.ndarray:
    """A flat Dirichlet draw with every weight at least ``_DIRICHLET_FLOOR``,
    or ``0.5 / n`` past 500 outcomes, so the floors never take all the mass."""
    return interior_rows(rng.dirichlet(np.ones(n)), min(_DIRICHLET_FLOOR, 0.5 / n))


def characterize(family: CandidateFamily | str, n_max: int = 6, denominator_bound: int = 64, trials: int = 8,
                 seed: int = 0) -> CharacterizeResult:
    """Run probe steps (a)-(d) and decide the decomposition of a family.

    Returns the constants (c1, c2) with the kill-constants flag and a
    verdict, or the first witness found. The verdict claims consistency
    with the decomposition on the sampled evidence only: continuity in p
    can be spot-checked, not proved, at desk scale. Phase 1 requests the
    bilinearity checks, the uniform probes and the consistency lifts, phase 2
    the rational points and their lifts, the ii1 and the continuity points;
    each phase decides its steps in order once all are drawn.
    """
    if isinstance(family, str):
        family = parse_family(family)
    for name, value in (("n_max", n_max), ("denominator_bound", denominator_bound), ("trials", trials)):
        require_integer(value, name)
    require_seed(seed)
    # a rational point on n outcomes with positive weights k/D needs D >= n
    if n_max < 2 or denominator_bound < n_max or trials < 1:
        raise InvalidParameter("characterize needs n_max >= 2, denominator_bound >= n_max and trials >= 1")
    rng, sizes, phase = np.random.default_rng(seed), range(2, n_max + 1), _Phase(family)

    # Cross-dimension consistency links every n to 2n, and 2 to 2n, so all the
    # constants are chained to the n = 2 values through block lifts.
    seeds = [int(rng.integers(2**32)) for _ in sizes]
    defects = [_bilinearity(family, n, seed_n, phase) for n, seed_n in zip(sizes, seeds)]
    uniform_at = _uniform_table(family, sorted({*sizes, *(2 * n for n in sizes)}), phase)
    pairs = [(2, n) for n in sizes] + [(n, 2) for n in range(3, n_max + 1)]
    lifts = [_lifted_pair_matrix(family, n, m, phase) for m, n in pairs]
    witness = next(filter(None, chain(
        (_bilinearity_witness({"family": family, "n": n, "seed": seed_n}, defect=value)
         for n, seed_n, value in zip(sizes, seeds, (defect() for defect in defects)) if value > VIOLATION_TOL),
        (uniform_at(n)[0].witness for n in sizes),
        (_probe_consistency(family, m, n, uniform_at, lift).witness for (m, n), lift in zip(pairs, lifts)),
    )), None)
    if witness is not None:
        return _witness_result(family.name, witness)
    constants_by_n = {n: (n * uniform_at(n)[0].a, n * n * uniform_at(n)[0].b) for n in sizes}
    c1, c2 = constants_by_n[2]
    del defects, uniform_at, lifts  # phase 1's matrices go before phase 2 is drawn

    # Steps (c) and ii1 draw the points of one size as one stack; step (d)
    # fits constants at rational approximations of an irrational spot-check
    # point, which converge to the fit at the point itself.
    phase, rational, ii1 = _Phase(family), [], []
    for n in sizes:
        points = []
        for _ in range(trials):
            denominator = int(rng.integers(n, denominator_bound + 1))
            points.append((rng.multinomial(denominator - n, np.full(n, 1.0 / n)) + 1) / denominator)
        points = in_trial_order(require_weights, np.array(points))
        rational.append(_rational_probes(family, points, denominator_bound, (c1, c2), phase))
    for n in sizes:
        count = max(2, trials // 2)
        draws = [(_flatten_dirichlet(rng, n), rng.normal(size=(1, n))) for _ in range(count)]
        w, a = (np.array(column) for column in zip(*draws))
        w = in_trial_order(require_weights, w)
        ii1.append(_pair_matrices(family, w, a, np.ones((count, 1, n)), phase))
    irrational = np.sqrt(np.arange(2, 2 + min(3, n_max), dtype=float))
    spot, bounds = irrational / irrational.sum(), [b for b in (8, 16, 32, 64) if b <= denominator_bound]
    continuity = _continuity_errors(family, spot, bounds, phase)
    witness = next(filter(None, (result.witness for result in chain.from_iterable(rational))), None)
    if witness is not None:
        return _witness_result(family.name, witness)
    ii1_holds = _fold(abs(np.concatenate(list(chain.from_iterable(ii1))))) <= PASS_TOL
    continuity_errors = tuple(continuity)
    if continuity_errors and continuity_errors[-1] > VIOLATION_TOL:
        case = {"family": family, "spot": spot, "bound": bounds[-1]}
        return _witness_result(family.name, _continuity_witness(case, error=continuity_errors[-1]))

    if ii1_holds and abs(c1 + c2) <= PASS_TOL:
        verdict = f"c*Cov with c={_format_constant(c1)}"
    else:
        verdict = f"c1*L2 + c2*MM with (c1, c2) = ({_format_constant(c1)}, {_format_constant(c2)})"
    return CharacterizeResult(
        family.name, c1, c2, ii1_holds, verdict, None, constants_by_n, continuity_errors,
        "consistent with the invariant decomposition on all sampled dimensions and rational points; "
        "continuity spot-checked only",
    )


# ---------------------------------------------------------------------------
# Witness kinds: each evaluates a case once, by the kernel or probe step that
# judges it, named so that it is looked up in this module when it runs; builds
# its witness from the case and that report without evaluating anything; and
# reads the case back from a stored witness
# ---------------------------------------------------------------------------


def _channel_witness(case: dict, report: MonotonicityReport, detail: str = "") -> Witness:
    """The kernel, the point, and x (metric) or a (co-metric)."""
    metric = "x" in case
    n_out, n_in = np.shape(case["kernel"])
    return Witness(
        kind="monotonicity_metric" if metric else "monotonicity_cometric", m=n_in, n=n_out,
        lhs=report.lhs, rhs=report.rhs, gap=report.slack,
        kernel=_rows(case["kernel"]), point=_floats(case["p"]),
        a=_floats(case["x" if metric else "a"]), detail=detail,
    )


def _channel_case(witness: Witness) -> dict:
    # Battery kernels are drawn column by column; products with the kernel
    # differ in the last bit between layouts, so it is rebuilt column-major.
    key = "x" if witness.kind == "monotonicity_metric" else "a"
    kernel = np.array(witness.kernel, dtype=float, order="F")
    return {"kernel": kernel, "p": np.array(witness.point), key: np.array(witness.a)}


def _pair_witness(case: dict, report: InvarianceReport, detail: str = "") -> Witness:
    """The map of F, the big point q, a, b, and for invariance x and y."""
    invariance = "x" in case
    return Witness(
        kind="invariance" if invariance else "strong_invariance",
        m=len(case["fibers"]), n=len(case["q"]),
        lhs=report.max_residual, rhs=0.0, gap=report.max_residual,
        surjection=tuple(np.asarray(case["surjection"]).tolist()), point=_floats(case["q"]),
        a=_floats(case["a"]), b=_floats(case["b"]), detail=detail,
        **({"x": _floats(case["x"]), "y": _floats(case["y"])} if invariance else {}),
    )


def _pair_case(witness: Witness) -> dict:
    maps, q, m = _map_and_point(witness.surjection, witness.point, witness.m)
    rows = "ab" if witness.kind == "strong_invariance" else "abxy"
    return {"surjection": maps[0], "fibers": canonical_embedding_rows(maps, q, m)[0], "q": q[0],
            **{key: np.array(getattr(witness, key)) for key in rows}}


def _prop6_case(witness: Witness) -> dict:
    return {
        "surjection": witness.surjection, "fibers": np.array(witness.kernel).T,
        "p": np.array(witness.point), "a": np.array(witness.a), "b": np.array(witness.b),
        "family": parse_family(witness.family),
    }


def _crb_witness(case: dict, report: CrbReport, detail: str = "") -> Witness:
    """The model point and the estimators' values."""
    n = case["model"].space.size
    weights = point_rows([case["model"]], np.asarray(case["xi"], dtype=float).reshape(1, -1))[0][0]
    return Witness(
        kind="crb", m=n, n=n, lhs=report.min_eigenvalue, rhs=0.0, gap=report.scaled_residual,
        point=_floats(weights), detail=detail, estimators=_rows([e.values for e in case["estimators"]]),
    )


def _crb_case(witness: Witness) -> dict:
    if witness.point is None or witness.estimators is None:
        raise InvalidParameter("a crb witness stores its point and its estimators")
    model = categorical_model(witness.m)
    xi = np.array(witness.point[: witness.m - 1])  # the categorical coordinates
    estimators = [RandomVariable(model.space, np.array(e)) for e in witness.estimators]
    return {"model": model, "xi": xi, "estimators": estimators}


def _weak_invariance_witness(case: dict, residual: float, detail: str = "") -> Witness:
    """The map of F, the big point q, the grid, the step and alpha."""
    map0 = tuple(np.asarray(case["surjection"]).tolist())
    return Witness(
        kind="weak_invariance", m=max(map0) + 1, n=len(case["q"]), lhs=residual, rhs=0.0, gap=residual,
        surjection=map0, point=_floats(case["q"]), detail=detail,
        grid=_rows(case["grid"]), step=float(case["step"]), alpha=float(case["alpha"]),
    )


def _weak_invariance_case(witness: Witness) -> dict:
    maps, q, _ = _map_and_point(witness.surjection, witness.point, witness.m)
    return {"surjection": maps[0], "q": q[0], "alpha": witness.alpha, "grid": witness.grid,
            "step": witness.step, "mismatched": False}


def _bilinearity_witness(case: dict, defect: float, detail: str = "") -> Witness:
    return Witness(kind="bilinearity", m=case["n"], n=case["n"], lhs=defect, rhs=0.0, gap=defect,
                   family=case["family"].name, detail=f"seed={case['seed']}")


def _continuity_witness(case: dict, error: float, detail: str = "") -> Witness:
    n = case["spot"].size
    return Witness(kind="continuity", m=n, n=n, lhs=error, rhs=0.0, gap=error, point=_floats(case["spot"]),
                   family=case["family"].name, detail=f"D={case['bound']}")


def _detail_int(witness: Witness, prefix: str) -> int:
    """The integer the witness's detail holds after ``prefix``, or InvalidParameter naming the kind and the detail."""
    try:
        return int(witness.detail.removeprefix(prefix))
    except (AttributeError, ValueError):
        raise InvalidParameter(
            f"a {witness.kind} witness's detail is {prefix!r} and an integer, not {witness.detail!r}"
        ) from None


def _family_case(witness: Witness, **case) -> dict:
    return {"family": parse_family(witness.family), **case}


def _cross_dimension_case(witness: Witness) -> dict:
    # the witness stores the two dimensions (n, m*n); the probe takes the block factor and the base dimension
    if not witness.m or witness.n % witness.m:
        raise InvalidParameter(f"a cross_dimension witness's n = {witness.n!r} is no multiple of its m = {witness.m!r}")
    return _family_case(witness, m=witness.n // witness.m, n=witness.m)


def _rational_point_case(witness: Witness) -> dict:
    p = new_distribution(SampleSpace(witness.m), np.array(witness.point))
    bound = _detail_int(witness, "D=")
    return _family_case(witness, p=p, denominator_bound=bound, constants=witness.constants)


def _continuity_case(witness: Witness) -> dict:
    spot = _sized(np.array(witness.point, dtype=float).reshape(1, -1), SampleSpace(witness.n).size)[0]
    return _family_case(witness, spot=spot, bound=_detail_int(witness, "D="))


def _reported(case: dict, report, detail: str = "") -> Witness | None:
    return report.witness  # a probe step's or prop6_kernel's own witness, or None


class _Kind(NamedTuple):
    evaluate: Callable[[dict], Any]  # case -> the report of the kernel or probe step that judges it
    witness: Callable[..., Witness | None]  # (case, report, detail) -> its witness; evaluates nothing
    case: Callable[[Witness], dict]  # witness -> the case it stores


_KINDS: dict[str, _Kind] = {
    "monotonicity_metric": _Kind(lambda c: _one(monotonicity_metric_kernel, **c), _channel_witness, _channel_case),
    "monotonicity_cometric": _Kind(lambda c: _one(monotonicity_cometric_kernel, **c), _channel_witness, _channel_case),
    "invariance": _Kind(lambda c: _one(invariance_kernel, **c), _pair_witness, _pair_case),
    "strong_invariance": _Kind(lambda c: _one(strong_invariance_kernel, **c), _pair_witness, _pair_case),
    "prop6_identity": _Kind(lambda c: _one(prop6_kernel, **c), _reported, _prop6_case),
    "crb": _Kind(lambda c: _one(crb_kernel, **c), _crb_witness, _crb_case),
    "weak_invariance": _Kind(lambda c: _one(weak_invariance_residual_kernel, **c), _weak_invariance_witness,
                             _weak_invariance_case),
    "uniform_shape": _Kind(lambda c: probe_uniform(**c), _reported, lambda w: _family_case(w, n=w.n)),
    "cross_dimension": _Kind(lambda c: probe_consistency(**c), _reported, _cross_dimension_case),
    "rational_point": _Kind(lambda c: probe_rational(**c), _reported, _rational_point_case),
    "bilinearity": _Kind(lambda c: check_bilinearity(**c), _bilinearity_witness,
                         lambda w: _family_case(w, n=w.n, seed=_detail_int(w, "seed="))),
    "continuity": _Kind(lambda c: next(_continuity_errors(c["family"], c["spot"], [c["bound"]])),
                        _continuity_witness, _continuity_case),
}
