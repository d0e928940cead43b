"""Property batteries and the constructive characterization probe.

Single-case checks cover monotonicity of the metric/co-metric/variance under
channels, the invariance identities of embedding/co-embedding pairs, the
strong-invariance (adjoint/projector) identities, and the two-sided pairing
identity for candidate bilinear families. Randomized batteries drive them
over seeded trials and aggregate deterministic reports. The two invariance
checks are array kernels over a leading trial axis, ``invariance_kernel``
and ``strong_invariance_kernel``, on a batch of one; their batteries call
the kernels once on all their trials.

The probe decomposes an invariant family into ``c1 * L2 + c2 * MM``:

  (a) evaluate on indicator pairs at the uniform distribution; permutation
      invariance forces the matrix shape a*I + b*ones;
  (b) lift through block surjections to larger uniform spaces; consistency
      across dimensions pins the constants c1 = n*a_n, c2 = n^2*b_n;
  (c) extend to rational points via partition surjections from a uniform
      space over the common denominator;
  (d) continuity surrogate: fitted constants at rational approximations of
      an irrational spot-check point converge as the denominator bound grows.

Verdicts distinguish the covariance multiple (when the family kills
constants) from a general (c1, c2) decomposition; reports state consistency
with the decomposition on sampled points, never more. Residuals at or below
1e-9 pass, residuals above 1e-6 produce a Witness, and the band between is
reported as "inconclusive". A Witness stores enough of its inputs that
replaying it reproduces the gap bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .connections import DEFAULT_STEP, ConnectionTag, VectorFieldOnModel, coordinate_field
from .connections import weak_invariance_check
from .errors import FisherGeoError, InvalidParameter, NotRational, SizeMismatch
from .families import CandidateFamily, parse_family
from .geometry import (
    CotangentVector,
    TangentVector,
    delta,
    fisher_metric_rows,
    norm_tangent,
    orthonormal_basis_rows,
    require_centered,
    require_rows_sum_zero,
)
from .markov import (
    Channel,
    EmbeddingPair,
    Surjection,
    apply,
    canonical_embedding,
    conditional_expectation,
    pushforward,
    require_kernel,
)
from .models import categorical_model, crb_check
from .simplex import (
    Distribution,
    RandomVariable,
    SampleSpace,
    new_distribution,
    require_finite,
    require_weights,
    uniform,
    variance,
)

#: Residuals at or below this pass outright.
PASS_TOL = 1e-9
#: Residuals above this are genuine counterexamples (witness threshold);
#: the band between the two is reported as "inconclusive".
VIOLATION_TOL = 1e-6
#: Matrix identities of the strong-invariance check pass at this tolerance.
STRONG_INVARIANCE_TOL = 1e-8
#: Absolute tolerance when matching weights to a rational k/m grid.
RATIONAL_TOL = 1e-9
#: Denominators ``rationalize`` scans per array block.
_RATIONALIZE_BLOCK = 64
#: Random triples per bilinearity spot check.
_BILINEARITY_TRIALS = 4
#: Weight floor of the random points of the bilinearity and kill-constants checks.
_DIRICHLET_FLOOR = 1e-3


def classify(residual: float, pass_tol: float = PASS_TOL) -> str:
    if residual <= pass_tol:
        return "pass"
    if residual <= VIOLATION_TOL:
        return "inconclusive"
    return "violation"


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in np.asarray(values).reshape(-1))


def _rows(matrix) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in np.asarray(matrix))


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
    def from_case(cls, kind: str, case: dict, detail: str = "") -> Witness:
        """Run the kind's check on ``case`` (its inputs by name) and store them."""
        return _KINDS[kind].witness(case, detail)

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
    """Recompute the witness gap from its stored inputs.

    The kind's entry rebuilds the case and runs the same check or probe on
    it in the same order, so the result is bitwise equal to the stored gap.
    Family-based witnesses are rebuilt by parsing the stored grammar
    expression; witnesses from plugin evaluators cannot be reconstructed
    from their name and raise.
    """
    kind = _KINDS.get(witness.kind)
    if kind is None:
        raise InvalidParameter(f"no replay rule for witness kind {witness.kind!r}")
    return kind.witness(kind.case(witness)).gap


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
    """Norm non-increase of tangent vectors under a Markov map."""
    lhs = norm_tangent(pushforward(channel, p, x))
    rhs = norm_tangent(x)
    slack = lhs - rhs
    return MonotonicityReport(lhs, rhs, slack, classify(slack))


def check_monotonicity_cometric(
    channel: Channel, p: Distribution, a: RandomVariable
) -> MonotonicityReport:
    """Variance form of co-metric monotonicity: V_p(E_W(A|.)) <= V_{Wp}(A)."""
    lhs = variance(p, conditional_expectation(channel, a))
    rhs = variance(apply(channel, p), a)
    slack = lhs - rhs
    return MonotonicityReport(lhs, rhs, slack, classify(slack))


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
    embedding, the co-metric identity through the co-embedding, and the
    variance/covariance identities under composition with the surjection.
    ``x_m_rep``/``y_m_rep`` are sum-zero arrays on the small space; ``a``,
    ``b`` random variables there. Residuals are relative. This is
    ``invariance_kernel`` on a batch of one.
    """
    return invariance_kernel([pair], [q], [x_m_rep], [y_m_rep], [a], [b])[0]


def check_strong_invariance(
    pair: EmbeddingPair, q: Distribution, a: RandomVariable, b: RandomVariable
) -> StrongInvarianceReport:
    """Adjointness of the pair's differentials plus the covariance identity.

    Requires the canonical pair of (F, q): the embedding must pass through
    q. In g-orthonormal bases the matrices of the two differentials are
    mutual transposes; their composition is the orthogonal projector onto
    the embedded tangent space; together with the section identity this is
    exactly the two-isometry statement. Finally the mixed covariance
    identity Cov_{q^F}(A, E_V(B|.)) = Cov_q(A o F, B) is evaluated with
    ``a`` on the small space and ``b`` on the large one. This is
    ``strong_invariance_kernel`` on a batch of one.
    """
    return strong_invariance_kernel([pair], [q], [a], [b])[0]


# ---------------------------------------------------------------------------
# Pair kernels: the two invariance checks over a leading trial axis
#
# Trials of one shape (n, m) are stacked into C-ordered arrays, and every
# product is the one the trial makes alone: one BLAS dot, matrix-vector or
# matrix-matrix product per trial, and row sums over the last axis. So every
# entry is bitwise the trial's own. The checks of the objects the single
# case builds (Channel, Distribution, TangentVector, CotangentVector,
# RandomVariable) run on the stacks, in the order the single case meets them.
# ---------------------------------------------------------------------------


#: The residuals of each pair check, in report order.
_INVARIANCE_KEYS = ("metric", "cometric", "variance", "covariance")
_STRONG_INVARIANCE_KEYS = (
    "adjoint", "projector_idempotent", "projector_self_adjoint", "projector_fixes_image",
    "section", "isometry", "coisometry", "covariance_identity",
)
#: Largest |embedding of the marginal - q| of a canonical pair.
_CANONICAL_TOL = 1e-12


def _relative(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return abs(lhs - rhs) / np.maximum(np.maximum(1.0, abs(lhs)), abs(rhs))


def _apply(kernels: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``kernels[t] @ vectors[t]``, one matrix-vector product per vector."""
    return (kernels @ vectors[..., None])[..., 0]


def _dots(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.dot(w[t], v[t])`` for each trial t: one BLAS dot per row."""
    return (w[:, None, :] @ v[:, :, None])[:, 0, 0]


def _cov_rows(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``simplex.cov`` of each trial's rows."""
    ca = a - _dots(w, a)[:, None]
    cb = b - _dots(w, b)[:, None]
    return _dots(w, ca * cb)


def _delta_rows(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The representatives of ``geometry.delta`` at each trial's point, checked."""
    centered = values - _dots(w, values)[:, None]
    require_finite(centered)
    require_centered(_dots(w, centered))
    return centered


def _conditional_expectation(kernels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``markov.conditional_expectation`` through each trial's kernel, checked."""
    expectation = _apply(kernels.transpose(0, 2, 1), values)
    require_finite(expectation)
    return expectation


def _lift(values: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """``Surjection.compose_variable`` of each trial's values, checked."""
    lifted = np.take_along_axis(values, maps, axis=1)
    require_finite(lifted)
    return lifted


def _sized_rows(rows: list, size: int, mismatch: str) -> np.ndarray:
    """Rows of length ``size``, stacked; a row of another length raises
    ``SizeMismatch`` with ``mismatch`` formatted with that length."""
    for row in rows:
        if len(row) != size:
            raise SizeMismatch(mismatch.format(len(row)))
    return np.array(rows)


class _PairStack(NamedTuple):
    """The trials of one shape (n, m), stacked."""

    trials: list[int]
    maps: np.ndarray  # (k, n) surjections, 0-based
    phi: np.ndarray  # (k, n, m) embedding kernels, each C-ordered as its Channel's
    psi: np.ndarray  # (k, m, n) co-embedding kernels
    q: np.ndarray  # (k, n) big points
    p: np.ndarray  # (k, m) their marginals


def _pair_stacks(pair, q) -> list[_PairStack]:
    """The trials grouped by shape, with the Channel checks of both kernels
    and the Distribution check of each marginal."""
    groups: dict[tuple[int, int], list[int]] = {}
    for t, (one, point) in enumerate(zip(pair, q)):
        if point.space != one.surjection.domain:
            raise SizeMismatch("distribution is not on the channel input space")
        groups.setdefault((one.surjection.domain.size, one.surjection.codomain.size), []).append(t)
    stacks = []
    for (n, m), trials in groups.items():
        maps = np.array([pair[t].surjection.map0 for t in trials])
        fibers = np.array([pair[t].fiber_distributions for t in trials])
        phi = np.ascontiguousarray(fibers.transpose(0, 2, 1))
        psi = np.zeros((len(trials), m, n))
        psi[np.arange(len(trials))[:, None], maps, np.arange(n)] = 1.0
        require_kernel(phi)
        require_kernel(psi)
        points = np.array([q[t].weights for t in trials])
        marginals = _apply(psi, points)
        require_weights(marginals)
        stacks.append(_PairStack(trials, maps, phi, psi, points, marginals))
    return stacks


def _in_trial_order(rows: Callable[..., np.ndarray], *columns) -> np.ndarray:
    """``rows(*columns)``; when a check fails, the error raised is the one the
    first failing trial raises alone."""
    if len({len(column) for column in columns}) != 1:
        raise SizeMismatch("every argument needs one entry per trial")
    try:
        return rows(*columns)
    except FisherGeoError:
        if len(columns[0]) > 1:
            for t in range(len(columns[0])):
                rows(*(column[t : t + 1] for column in columns))
        raise


def _reports(report: type, keys: tuple[str, ...], residuals: np.ndarray, pass_tol: float) -> list:
    """One report per row of residuals, its worst residual classified at ``pass_tol``."""
    reports = []
    for row in residuals.tolist():
        values = dict(zip(keys, row))
        worst = max(values.values())
        reports.append(report(values, worst, classify(worst, pass_tol)))
    return reports


def invariance_kernel(pair, q, x_m_rep, y_m_rep, a, b) -> list[InvarianceReport]:
    """``check_invariance`` over a leading trial axis.

    Each argument is a sequence with one entry per trial, in any mix of
    sizes. Every residual is bitwise the one the trial gives alone, and a
    failed check raises what the first failing trial raises alone.
    """
    residuals = _in_trial_order(_invariance_rows, pair, q, x_m_rep, y_m_rep, a, b)
    return _reports(InvarianceReport, _INVARIANCE_KEYS, residuals, PASS_TOL)


def _invariance_rows(pair, q, x_m_rep, y_m_rep, a, b) -> np.ndarray:
    residuals = np.empty((len(pair), len(_INVARIANCE_KEYS)))
    for s in _pair_stacks(pair, q):
        m = s.p.shape[1]
        tangents = []
        for m_reps in (x_m_rep, y_m_rep):
            rows = [np.asarray(m_reps[t], dtype=float).reshape(-1) for t in s.trials]
            tangents.append(_sized_rows(rows, m, f"m_rep length {{}} != space size {m}"))
            require_rows_sum_zero(tangents[-1])
        x, y = tangents
        # pushforward through the embedding, to the embedded image of p
        image = _apply(s.phi, s.p)
        require_weights(image)
        x_up = _apply(s.phi, x)
        require_rows_sum_zero(x_up)
        y_up = _apply(s.phi, y)
        require_rows_sum_zero(y_up)
        mismatch = "random variable and distribution on different spaces"
        a_values = _sized_rows([a[t].values for t in s.trials], m, mismatch)
        alpha = _delta_rows(s.p, a_values)
        b_values = _sized_rows([b[t].values for t in s.trials], m, mismatch)
        beta = _delta_rows(s.p, b_values)
        # pullback through the co-embedding: conditional expectation, then delta at q
        alpha_up = _delta_rows(s.q, _conditional_expectation(s.psi, alpha))
        beta_up = _delta_rows(s.q, _conditional_expectation(s.psi, beta))
        a_lift, b_lift = _lift(a_values, s.maps), _lift(b_values, s.maps)
        residuals[s.trials] = np.stack([
            _relative((x * y / s.p).sum(axis=-1), (x_up * y_up / image).sum(axis=-1)),
            _relative(_cov_rows(s.p, alpha, beta), _cov_rows(s.q, alpha_up, beta_up)),
            _relative(_cov_rows(s.p, a_values, a_values), _cov_rows(s.q, a_lift, a_lift)),
            _relative(_cov_rows(s.p, a_values, b_values), _cov_rows(s.q, a_lift, b_lift)),
        ], axis=-1)
    return residuals


def strong_invariance_kernel(pair, q, a, b) -> list[StrongInvarianceReport]:
    """``check_strong_invariance`` over a leading trial axis.

    Each argument is a sequence with one entry per trial, in any mix of
    sizes. The Gram-Schmidt bases of every small and big point are built in
    one ``orthonormal_basis_rows`` call per space size; the rest runs once
    per shape. Every residual is bitwise the one the trial gives alone, and
    a failed check raises what the first failing trial raises alone.
    """
    residuals = _in_trial_order(_strong_invariance_rows, pair, q, a, b)
    return _reports(
        StrongInvarianceReport, _STRONG_INVARIANCE_KEYS, residuals, STRONG_INVARIANCE_TOL
    )


def _bases(points: list[np.ndarray]) -> list[np.ndarray]:
    """The orthonormal basis rows of each stack of points, smallest size first,
    with one ``orthonormal_basis_rows`` call per size."""
    by_size: dict[int, list[int]] = {}
    for i, stack in enumerate(points):
        by_size.setdefault(stack.shape[1], []).append(i)
    bases: list = [None] * len(points)
    for size in sorted(by_size):
        members = by_size[size]
        rows = orthonormal_basis_rows(np.concatenate([points[i] for i in members]))
        ends = np.cumsum([len(points[i]) for i in members])
        for i, chunk in zip(members, np.split(rows, ends[:-1])):
            bases[i] = chunk
    return bases


def _max_abs(matrices: np.ndarray) -> np.ndarray:
    return abs(matrices).max(axis=(1, 2))


def _strong_invariance_rows(pair, q, a, b) -> np.ndarray:
    stacks = _pair_stacks(pair, q)
    for s in stacks:
        recovered = _apply(s.phi, s.p)
        require_weights(recovered)
        if not abs(recovered - s.q).max() <= _CANONICAL_TOL:
            raise InvalidParameter(
                "pair is not the canonical embedding through q: the embedding "
                "of the marginal does not recover q"
            )
    bases = _bases([point for s in stacks for point in (s.p, s.q)])
    residuals = np.empty((len(pair), len(_STRONG_INVARIANCE_KEYS)))
    for s, small, big in zip(stacks, bases[0::2], bases[1::2]):
        n, m = s.q.shape[1], s.p.shape[1]
        # Images of the basis rows, one ``kernel @ row`` product each; the
        # canonical pair embeds exactly at q, so images are attached there.
        images_up = _apply(s.phi[:, None], small)
        images_down = _apply(s.psi[:, None], big)
        require_rows_sum_zero(images_up)
        require_rows_sum_zero(images_down)
        # Matrices in the orthonormal bases, kept C-ordered: a matrix product
        # on an F-ordered operand rounds differently in the last bit.
        a_mat = np.ascontiguousarray(fisher_metric_rows(s.q, big, images_up))
        b_mat = np.ascontiguousarray(fisher_metric_rows(s.p, small, images_down))
        a_t = a_mat.transpose(0, 2, 1)
        projector = a_mat @ b_mat
        eye_small = np.eye(m - 1)
        mismatch = "variable is not on the channel output space"
        b_values = _sized_rows([b[t].values for t in s.trials], n, mismatch)
        expectation = _conditional_expectation(s.phi, b_values)
        a_values = _sized_rows([a[t].values for t in s.trials], m, f"sample spaces differ: {m} vs {{}}")
        lhs = _cov_rows(s.p, a_values, expectation)
        rhs = _cov_rows(s.q, _lift(a_values, s.maps), b_values)
        residuals[s.trials] = np.stack([
            _max_abs(b_mat - a_t),
            _max_abs(projector @ projector - projector),
            _max_abs(projector - projector.transpose(0, 2, 1)),
            _max_abs(projector @ a_mat - a_mat),
            _max_abs(b_mat @ a_mat - eye_small),
            _max_abs(a_t @ a_mat - eye_small),
            _max_abs(b_mat @ b_mat.transpose(0, 2, 1) - eye_small),
            abs(lhs - rhs),
        ], axis=-1)
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
    classes generically produce a witness.
    """
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
    lhs = family(p, alpha.rep, phi_pull.rep)
    rhs = family(q_img, psi_pull.rep, beta.rep)
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
            kernel=_rows(phi.kernel),
            point=_floats(p.weights),
            a=_floats(alpha.rep.values),
            b=_floats(beta.rep.values),
            family=family.name,
        )
    return Prop6Report(lhs, rhs, residual, status, witness)


def weak_invariance_residual(
    surjection: Surjection, q: Distribution, alpha: float, grid,
    step: float = DEFAULT_STEP, mismatched: bool = False,
) -> float:
    """Weak invariance of the alpha-connection through the canonical pair of (F, q).

    Runs ``weak_invariance_check`` with the fields X = d/dxi^1 and
    Y^i = 0.4 + 0.3 (xi^i)^2 on the categorical model of the small space at
    each point of ``grid`` and returns the larger of its vector and metric
    residuals. With ``mismatched`` the big simplex carries the dual
    connection (the e-connection when alpha = 0) as a control.
    """
    m = surjection.codomain.size
    model = categorical_model(m)
    y = VectorFieldOnModel(model, lambda xi: np.full(m - 1, 0.4) + 0.3 * np.asarray(xi) ** 2)
    tag_big = ConnectionTag(-alpha if alpha != 0.0 else 1.0) if mismatched else None
    report = weak_invariance_check(
        canonical_embedding(surjection, q), ConnectionTag(alpha),
        coordinate_field(model, 0), y, grid, step=step, tag_big=tag_big,
    )
    return max(report.residual_max, report.metric_residual_max)


# ---------------------------------------------------------------------------
# Characterization probe
# ---------------------------------------------------------------------------


def _pair_matrix(family: CandidateFamily, p: Distribution, rows, cols) -> np.ndarray:
    """[family(p, A_i, B_j)] for the variables A_i and B_j given as rows of
    ``rows`` and ``cols``: the probe's only way of evaluating a family.

    A grammar family computes the matrix itself; a plugin callable, or a
    subclass that may override ``__call__``, is called once per pair.
    """
    if type(family) is CandidateFamily:
        return family.matrix(p, rows, cols)
    left = [RandomVariable(p.space, row) for row in rows]
    right = [RandomVariable(p.space, col) for col in cols]
    return np.array([[family(p, a, b) for b in right] for a in left], dtype=float)


def _indicator_witness(
    kind: str, family: CandidateFamily, sizes: tuple[int, int], pair: tuple[int, int],
    sides: tuple[np.ndarray, np.ndarray], gap: float, detail: str, **inputs,
) -> Witness:
    """A probe witness on the indicator pair (i, j) of an m-point space, its
    sides read at (i, j); ``inputs`` are the point, surjection or constants."""
    (m, n), (i, j), (lhs, rhs) = sizes, pair, sides
    units = np.eye(m)
    return Witness(
        kind=kind, m=m, n=n, lhs=float(lhs[i, j]), rhs=float(rhs[i, j]), gap=gap,
        a=_floats(units[i]), b=_floats(units[j]), family=family.name, detail=detail,
        **inputs,
    )


def _first_worst(gaps: np.ndarray) -> tuple[float, int, int]:
    """The largest gap and its first position in row-major order, as a
    strict ``gap > worst`` scan from 0.0 finds them: NaN gaps are skipped."""
    scan = np.where(np.isnan(gaps), 0.0, gaps)
    i, j = np.unravel_index(int(np.argmax(scan)), scan.shape)
    return float(scan[i, j]), int(i), int(j)


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
    return _probe_uniform(family, n)[0]


def _probe_uniform(family: CandidateFamily, n: int) -> tuple[UniformProbeResult, np.ndarray]:
    """``probe_uniform`` and the indicator matrix it evaluated."""
    if n < 2:
        raise InvalidParameter("probe needs n >= 2")
    u = uniform(SampleSpace(n))
    units = np.eye(n)
    matrix = _pair_matrix(family, u, units, units)
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
            point=_floats(u.weights),
        )
    return UniformProbeResult(n, a, b, worst, witness), matrix


def _lifted_pair_matrix(family: CandidateFamily, surjection: Surjection) -> np.ndarray:
    """The codomain's indicator pair matrix, lifted to the domain's uniform point."""
    lifts = np.eye(surjection.codomain.size)[:, surjection.map0]
    return _pair_matrix(family, uniform(surjection.domain), lifts, lifts)


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
    return _probe_consistency(family, m, n, partial(_probe_uniform, family))


def _probe_consistency(
    family: CandidateFamily, m: int, n: int, uniform_at: Callable[[int], tuple]
) -> ConsistencyProbeResult:
    """``probe_consistency`` with ``_probe_uniform(family, k)`` read from ``uniform_at(k)``."""
    if m < 2 or n < 2:
        raise InvalidParameter("probe needs m, n >= 2")
    small, lhs = uniform_at(n)
    if small.witness is not None:
        return ConsistencyProbeResult(m, n, 0.0, 0.0, small.max_residual, small.witness)
    big, _ = uniform_at(m * n)
    if big.witness is not None:
        return ConsistencyProbeResult(m, n, 0.0, 0.0, big.max_residual, big.witness)
    surjection = block_surjection(m, n)
    rhs = _lifted_pair_matrix(family, surjection)
    worst, i, j = _first_worst(np.abs(lhs - rhs))
    witness = None
    if worst > VIOLATION_TOL:
        witness = _indicator_witness(
            "cross_dimension", family, (n, m * n), (i, j), (lhs, rhs), worst,
            f"lift of indicator pair ({i + 1}, {j + 1}) changes the uniform evaluation",
            surjection=surjection.map0,
        )
    c1_small, c2_small = n * small.a, n * n * small.b
    c1_big, c2_big = m * n * big.a, (m * n) ** 2 * big.b
    worst = max(worst, abs(c1_small - c1_big), abs(c2_small - c2_big))
    return ConsistencyProbeResult(m, n, c1_small, c2_small, worst, witness)


def rationalize(p: Distribution, denominator_bound: int) -> tuple[int, np.ndarray]:
    """Smallest common denominator representation p(i) = k_i / m, m <= bound.

    Scans the denominators n, n + 1, ... in blocks of ``_RATIONALIZE_BLOCK``
    and stops at the first block with a hit.
    """
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


def _fit_constants(p: Distribution, matrix: np.ndarray) -> tuple[float, float]:
    """Least-squares (c1, c2) fit of the indicator-pair matrix at p to
    c1 diag(p) + c2 p p^T."""
    w = p.weights
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


def probe_rational(
    family: CandidateFamily,
    p: Distribution,
    denominator_bound: int,
    constants: tuple[float, float],
) -> RationalProbeResult:
    """Step (c): the decomposition extends to rational points.

    Builds the partition surjection from the uniform space over the common
    denominator, lifts indicator pairs, and checks both the lift equality
    and the target decomposition c1 <A|B>_p + c2 <A><B> with
    ``constants = (c1, c2)``.
    """
    n = p.space.size
    denominator, counts = rationalize(p, denominator_bound)
    c1, c2 = constants
    surjection = partition_surjection(counts)
    w = p.weights
    units = np.eye(n)
    value = _pair_matrix(family, p, units, units)
    lifted = _lifted_pair_matrix(family, surjection)
    target = c1 * np.diag(w) + c2 * np.outer(w, w)
    to_lift, to_target = np.abs(value - lifted), np.abs(value - target)
    # Python's max(to_lift, to_target): the first unless the second is larger
    # (np.maximum would differ on NaN)
    worst, i, j = _first_worst(np.where(to_target > to_lift, to_target, to_lift))
    witness = None
    if worst > VIOLATION_TOL:
        rhs = lifted if to_lift[i, j] >= to_target[i, j] else target
        witness = _indicator_witness(
            "rational_point", family, (n, surjection.domain.size), (i, j), (value, rhs),
            worst, f"D={denominator_bound}",
            surjection=surjection.map0, point=_floats(w), constants=(float(c1), float(c2)),
        )
    return RationalProbeResult(
        n, denominator, tuple(int(c) for c in counts), float(c1), float(c2), worst, witness
    )


def _best_rational_approximation(
    weights: np.ndarray, denominator_bound: int
) -> Distribution:
    """Closest point with a common denominator <= the bound (largest-remainder).

    Each denominator m starts from floor(w m), at least 1 per weight, gives
    a deficit to the largest remainders and takes an excess greedily from the
    largest floor - w m, down to 1 each; the first m with the smallest error
    wins. One pass over (bound - n + 1, n) arrays: callers pass bounds <= 64.
    """
    n = weights.shape[0]
    ms = np.arange(n, denominator_bound + 1)[:, None]
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
    best = approx[np.argmin(np.max(np.abs(weights - approx), axis=1))]
    return new_distribution(SampleSpace(n), best)


def _continuity_errors(
    family: CandidateFamily, spot: Distribution, bounds: list[int]
) -> list[float]:
    """Step (d): distance from the constants fitted at ``spot`` to those
    fitted at its best rational approximation, per denominator bound."""
    def fit(p: Distribution) -> np.ndarray:
        units = np.eye(p.space.size)
        return np.array(_fit_constants(p, _pair_matrix(family, p, units, units)))

    spot_fit = fit(spot)
    return [
        float(np.max(np.abs(fit(_best_rational_approximation(spot.weights, bound)) - spot_fit)))
        for bound in bounds
    ]


def _format_constant(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


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
            "family": self.family,
            "c1": self.c1,
            "c2": self.c2,
            "ii1_holds": self.ii1_holds,
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json(),
            "constants_by_n": {
                str(n): list(c) for n, c in sorted(self.constants_by_n.items())
            },
            "continuity_errors": list(self.continuity_errors),
            "note": self.note,
        }


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


def check_bilinearity(family: CandidateFamily, n: int, seed: int) -> float:
    """Largest bilinearity defect over ``_BILINEARITY_TRIALS`` random triples;
    grammar families satisfy it by construction, plugin evaluators may not.
    Each trial reads its six values as one 3x1 and one 1x3 pair matrix."""
    rng = np.random.default_rng(seed)
    space = SampleSpace(n)
    worst = 0.0
    for _ in range(_BILINEARITY_TRIALS):
        p = new_distribution(space, _flatten_dirichlet(rng, n))
        a1, a2, b = (rng.normal(size=n) for _ in range(3))
        s, t = rng.normal(size=2)
        rows = np.array([s * a1 + t * a2, a1, a2])
        left = _pair_matrix(family, p, rows, [b])[:, 0]
        right = _pair_matrix(family, p, [b], rows)[0]
        for at_combo, at_a1, at_a2 in (left, right):
            worst = max(worst, abs(at_combo - s * at_a1 - t * at_a2))
    return worst


def _flatten_dirichlet(rng: np.random.Generator, n: int) -> np.ndarray:
    """A flat Dirichlet draw with every weight at least ``_DIRICHLET_FLOOR``."""
    draw = rng.dirichlet(np.ones(n))
    return _DIRICHLET_FLOOR + (1.0 - n * _DIRICHLET_FLOOR) * draw


def characterize(
    family: CandidateFamily | str,
    n_max: int = 6,
    denominator_bound: int = 64,
    trials: int = 8,
    seed: int = 0,
) -> CharacterizeResult:
    """Run probe steps (a)-(d) and decide the decomposition of a family.

    Returns the constants (c1, c2) with the kill-constants flag and a
    verdict, or the first witness found. The verdict claims consistency
    with the decomposition on the sampled evidence only: continuity in p
    can be spot-checked, not proved, at desk scale.
    """
    if isinstance(family, str):
        family = parse_family(family)
    # a rational point on n outcomes with positive weights k/D needs D >= n
    if n_max < 2 or denominator_bound < n_max or trials < 1:
        raise InvalidParameter(
            "characterize needs n_max >= 2, denominator_bound >= n_max and trials >= 1"
        )
    rng = np.random.default_rng(seed)

    for n in range(2, n_max + 1):
        case = {"family": family, "n": n, "seed": int(rng.integers(2**32))}
        if check_bilinearity(**case) > VIOLATION_TOL:
            return _witness_result(family.name, _bilinearity_witness(case))

    # steps (a) and (b) evaluate each uniform indicator matrix once per run
    uniform_at = cache(partial(_probe_uniform, family))
    constants_by_n: dict[int, tuple[float, float]] = {}
    for n in range(2, n_max + 1):
        result, _ = uniform_at(n)
        if result.witness is not None:
            return _witness_result(family.name, result.witness)
        constants_by_n[n] = (n * result.a, n * n * result.b)

    # Cross-dimension consistency: link every n to 2n, and 2 to 2n, so all
    # the constants are chained to the n = 2 values through block lifts.
    for m, n in [(2, n) for n in range(2, n_max + 1)] + [
        (n, 2) for n in range(3, n_max + 1)
    ]:
        result = _probe_consistency(family, m, n, uniform_at)
        if result.witness is not None:
            return _witness_result(family.name, result.witness)
    c1, c2 = constants_by_n[2]

    for n in range(2, n_max + 1):
        space = SampleSpace(n)
        for _ in range(trials):
            denominator = int(rng.integers(n, denominator_bound + 1))
            counts = rng.multinomial(denominator - n, np.full(n, 1.0 / n)) + 1
            point = new_distribution(space, counts / denominator)
            result = probe_rational(
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
            ii1 = float(_pair_matrix(family, p, a, np.ones((1, n)))[0, 0])
            ii1_worst = max(ii1_worst, abs(ii1))
    ii1_holds = ii1_worst <= PASS_TOL

    # Step (d) surrogate: fitted constants at rational approximations of an
    # irrational spot-check point converge to the fit at the point itself.
    n_spot = min(3, n_max)
    irrational = np.sqrt(np.arange(2, 2 + n_spot, dtype=float))
    irrational /= irrational.sum()
    spot = new_distribution(SampleSpace(n_spot), irrational)
    bounds = [b for b in (8, 16, 32, 64) if b <= denominator_bound]
    continuity_errors = _continuity_errors(family, spot, bounds)
    if continuity_errors and continuity_errors[-1] > VIOLATION_TOL:
        case = {"family": family, "spot": spot, "bound": bounds[-1]}
        return _witness_result(family.name, _continuity_witness(case))

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
# Witness kinds: each builds its witness from a case by running the check or
# probe that finds it, and rebuilds the case from a stored witness
# ---------------------------------------------------------------------------


def _monotonicity_witness(case: dict, detail: str = "") -> Witness:
    """The channel, the point, and x (metric) or a (co-metric)."""
    metric = "x" in case
    report = (check_monotonicity_metric if metric else check_monotonicity_cometric)(**case)
    channel = case["channel"]
    return Witness(
        kind="monotonicity_metric" if metric else "monotonicity_cometric",
        m=channel.in_space.size, n=channel.out_space.size,
        lhs=report.lhs, rhs=report.rhs, gap=report.slack,
        kernel=_rows(channel.kernel), point=_floats(case["p"].weights),
        a=_floats(case["x"].m_rep if metric else case["a"].values), detail=detail,
    )


def _monotonicity_case(witness: Witness) -> dict:
    # Battery channels are drawn column by column and shrinking keeps that
    # column-major layout; products with the kernel differ in the last bit
    # between layouts, so the kernel is rebuilt in the same layout.
    kernel = np.array(witness.kernel, dtype=float, order="F")
    channel = Channel(SampleSpace(kernel.shape[1]), SampleSpace(kernel.shape[0]), kernel)
    p = new_distribution(channel.in_space, np.array(witness.point))
    values = np.array(witness.a)
    if witness.kind == "monotonicity_metric":
        return {"channel": channel, "p": p, "x": TangentVector(p, values)}
    return {"channel": channel, "p": p, "a": RandomVariable(channel.out_space, values)}


def _pair_witness(case: dict, detail: str = "") -> Witness:
    """The canonical pair of (F, q), a and b, and for invariance x and y."""
    invariance = "x_m_rep" in case
    report = (check_invariance if invariance else check_strong_invariance)(**case)
    surjection, q = case["pair"].surjection, case["q"]
    return Witness(
        kind="invariance" if invariance else "strong_invariance",
        m=surjection.codomain.size, n=q.space.size,
        lhs=report.max_residual, rhs=0.0, gap=report.max_residual,
        surjection=surjection.map0, point=_floats(q.weights),
        a=_floats(case["a"].values), b=_floats(case["b"].values), detail=detail,
        x=_floats(case["x_m_rep"]) if invariance else None,
        y=_floats(case["y_m_rep"]) if invariance else None,
    )


def _surjection_point(witness: Witness) -> tuple[Surjection, Distribution]:
    surjection = Surjection(SampleSpace(witness.n), SampleSpace(witness.m), witness.surjection)
    return surjection, new_distribution(surjection.domain, np.array(witness.point))


def _pair_case(witness: Witness) -> dict:
    surjection, q = _surjection_point(witness)
    a = RandomVariable(surjection.codomain, np.array(witness.a))
    case = {"pair": canonical_embedding(surjection, q), "q": q, "a": a}
    if witness.kind == "strong_invariance":
        return {**case, "b": RandomVariable(q.space, np.array(witness.b))}
    b = RandomVariable(surjection.codomain, np.array(witness.b))
    return {**case, "b": b, "x_m_rep": np.array(witness.x), "y_m_rep": np.array(witness.y)}


def _prop6_case(witness: Witness) -> dict:
    surjection = Surjection(
        SampleSpace(len(witness.surjection)), SampleSpace(witness.m), witness.surjection
    )
    pair = EmbeddingPair(surjection, np.array(witness.kernel).T)
    p = new_distribution(SampleSpace(witness.m), np.array(witness.point))
    alpha = CotangentVector(p, RandomVariable(p.space, np.array(witness.a)))
    q_img = apply(pair.embedding_channel, p)
    beta = CotangentVector(q_img, RandomVariable(q_img.space, np.array(witness.b)))
    family = parse_family(witness.family)
    return {"pair": pair, "p": p, "alpha": alpha, "beta": beta, "family": family}


def _crb_witness(case: dict, detail: str = "") -> Witness:
    """The model point and the estimators' values."""
    report = crb_check(case["model"], case["xi"], case["estimators"])
    n = case["model"].space.size
    return Witness(
        kind="crb", m=n, n=n,
        lhs=report.min_eigenvalue, rhs=0.0, gap=-report.min_eigenvalue,
        point=_floats(case["model"].point(case["xi"]).weights), detail=detail,
        estimators=_rows([e.values for e in case["estimators"]]),
    )


def _crb_case(witness: Witness) -> dict:
    model = categorical_model(witness.m)
    xi = np.array(witness.point[: witness.m - 1])  # the categorical coordinates
    estimators = [RandomVariable(model.space, np.array(e)) for e in witness.estimators]
    return {"model": model, "xi": xi, "estimators": estimators}


def _weak_invariance_witness(case: dict, detail: str = "") -> Witness:
    """The surjection, the big-space point, the grid, the step and alpha."""
    residual = weak_invariance_residual(**case)
    surjection, q = case["surjection"], case["q"]
    return Witness(
        kind="weak_invariance", m=surjection.codomain.size, n=q.space.size,
        lhs=residual, rhs=0.0, gap=residual,
        surjection=surjection.map0, point=_floats(q.weights), detail=detail,
        grid=_rows(case["grid"]), step=float(case["step"]), alpha=float(case["alpha"]),
    )


def _weak_invariance_case(witness: Witness) -> dict:
    surjection, q = _surjection_point(witness)
    return {
        "surjection": surjection, "q": q,
        "alpha": witness.alpha, "grid": witness.grid, "step": witness.step,
    }


def _bilinearity_witness(case: dict) -> Witness:
    defect = check_bilinearity(**case)
    return Witness(
        kind="bilinearity", m=case["n"], n=case["n"], lhs=defect, rhs=0.0, gap=defect,
        family=case["family"].name, detail=f"seed={case['seed']}",
    )


def _continuity_witness(case: dict) -> Witness:
    error = _continuity_errors(case["family"], case["spot"], [case["bound"]])[0]
    n = case["spot"].space.size
    return Witness(
        kind="continuity", m=n, n=n, lhs=error, rhs=0.0, gap=error,
        point=_floats(case["spot"].weights), family=case["family"].name,
        detail=f"D={case['bound']}",
    )


def _family_case(witness: Witness, **case) -> dict:
    return {"family": parse_family(witness.family), **case}


def _rational_point_case(witness: Witness) -> dict:
    p = new_distribution(SampleSpace(witness.m), np.array(witness.point))
    bound = int(witness.detail.removeprefix("D="))
    return _family_case(witness, p=p, denominator_bound=bound, constants=witness.constants)


def _continuity_case(witness: Witness) -> dict:
    spot = new_distribution(SampleSpace(witness.n), np.array(witness.point))
    return _family_case(witness, spot=spot, bound=int(witness.detail.removeprefix("D=")))


class _Kind(NamedTuple):
    witness: Callable[..., Witness]  # case -> the witness its check or probe finds
    case: Callable[[Witness], dict]  # witness -> the case it stores


_KINDS: dict[str, _Kind] = {
    "monotonicity_metric": _Kind(_monotonicity_witness, _monotonicity_case),
    "monotonicity_cometric": _Kind(_monotonicity_witness, _monotonicity_case),
    "invariance": _Kind(_pair_witness, _pair_case),
    "strong_invariance": _Kind(_pair_witness, _pair_case),
    "prop6_identity": _Kind(lambda case: check_prop6_identity(**case).witness, _prop6_case),
    "crb": _Kind(_crb_witness, _crb_case),
    "weak_invariance": _Kind(_weak_invariance_witness, _weak_invariance_case),
    "uniform_shape": _Kind(
        lambda case: probe_uniform(**case).witness, lambda w: _family_case(w, n=w.n)
    ),
    # the witness stores the two dimensions (n, m*n); the probe takes the
    # block factor and the base dimension
    "cross_dimension": _Kind(
        lambda case: probe_consistency(**case).witness,
        lambda w: _family_case(w, m=w.n // w.m, n=w.m),
    ),
    "rational_point": _Kind(lambda case: probe_rational(**case).witness, _rational_point_case),
    "bilinearity": _Kind(
        _bilinearity_witness,
        lambda w: _family_case(w, n=w.n, seed=int(w.detail.removeprefix("seed="))),
    ),
    "continuity": _Kind(_continuity_witness, _continuity_case),
}
