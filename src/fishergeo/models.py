"""Parametric submanifolds of the simplex and the Cramér-Rao checker.

A model is a smooth map ``xi -> p_xi`` with a Jacobian provider (analytic or
central finite differences). Coordinate tangent vectors have m-representation
``d p_xi / d xi_i``; their scores are ``d log p_xi / d xi_i``. The Fisher
information matrix is the score Gram matrix; its inverse is the co-metric
Gram matrix in the ``d xi`` basis.

``lifts`` realizes the minimum-norm ambient extension of model covectors:
among all ambient cotangent vectors restricting to the given coefficients it
is the unique one of smallest co-norm, and that co-norm squared equals
``c^T G^{-1} c``. ``crb_check`` compares the covariance matrix of a locally
unbiased estimator tuple against ``G^{-1}`` and reports the smallest
eigenvalue of the difference.

Model points are evaluated over a leading trial axis, each point once. A
built-in model has one rows form, its weights (T, n) and raw Jacobians (T,
dim, n) at parameters (T, dim); its point map and Jacobian are that form on
a batch of one. The trials of one ``rows_key`` are one stack, so categorical
models of one size share one call; a plugin model is called per point. The
checks of the points, the Jacobians and the objects built from them run on
the stacks in ``point_rows`` and ``jacobian_rows`` (which the connection
checks read too), ``crb_kernel`` and ``unbiased_estimators_kernel``. Each
single-point function reads its point, the weights and the raw Jacobian,
with one ``point_rows`` call and is the kernels' arithmetic on a batch of
one; ``crb_check``'s global mode checks its whole grid as one stack.

The built-in zoo covers Bernoulli, the full categorical family, exponential
families with user-supplied sufficient statistics, and affine (mixture)
families; exactly the families needed for equality cases of the bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BasePointMismatch,
    InvalidParameter,
    NotLocallyUnbiased,
    NotNormalized,
    NonPositiveWeight,
    RankDeficient,
    SingularMatrix,
    SizeMismatch,
    by_shape,
    in_trial_order,
)
from .geometry import CotangentVector, delta, delta_rows, flat_rows, require_rows_sum_zero
from .simplex import Distribution, RandomVariable, SampleSpace, cov_rows, expect_rows, require_weights

#: Relative step for central-difference Jacobians.
FD_STEP_SCALE = 1e-6
#: Rank test: smallest singular value must be >= this times the largest.
RANK_RTOL = 1e-8
#: Absolute tolerance on row sums of a Jacobian (tangency to the simplex).
JACOBIAN_SUM_TOL = 1e-8
#: Symmetry tolerance for Fisher matrices.
SYMMETRY_TOL = 1e-10
#: Tolerance for local/global unbiasedness of estimators.
UNBIASED_TOL = 1e-8
#: Grid points per axis of the global-mode unbiasedness check.
_GLOBAL_GRID_POINTS = 5


@dataclass(frozen=True)
class ParametricModel:
    """Immutable description of a parametric family ``xi -> p_xi``."""

    space: SampleSpace
    dim: int
    point_map: Callable[[np.ndarray], Distribution]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"
    #: The rows form of a ``_BatchOfOne`` point map and its Jacobian; None: called per point.
    _rows: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= self.space.size - 1:
            raise InvalidParameter(f"dim must lie in [1, {self.space.size - 1}], got {self.dim}")
        if isinstance(self.point_map, _BatchOfOne) and self.jacobian == self.point_map.jacobian:
            object.__setattr__(self, "_rows", self.point_map.rows)

    def point(self, xi) -> Distribution:
        """Evaluate the point map, mapping domain errors to InvalidParameter."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.shape[0] != self.dim:
            raise SizeMismatch(f"expected {self.dim} parameters, got {xi.shape[0]}")
        try:
            p = self.point_map(xi)
        except (NonPositiveWeight, NotNormalized, SizeMismatch) as exc:
            raise InvalidParameter(f"xi={xi.tolist()} outside the model: {exc}") from exc
        if p.space != self.space:
            raise SizeMismatch("point map produced a distribution on the wrong space")
        return p


@dataclass(frozen=True)
class _BatchOfOne:
    """A built-in model's point map, and by ``jacobian`` its Jacobian: its rows form on a batch of one."""

    rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    space: SampleSpace

    def __call__(self, xi) -> Distribution:
        return Distribution(self.space, self.rows(np.asarray(xi, dtype=float).reshape(1, -1))[0][0])

    def jacobian(self, xi) -> np.ndarray:
        return self.rows(np.asarray(xi, dtype=float).reshape(1, -1))[1][0]


def rows_key(model: ParametricModel) -> tuple:
    """(dim, n, rows form): the trials whose models share it are evaluated as one stack."""
    return model.dim, model.space.size, model._rows


def point_rows(model, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``ParametricModel.point`` at each row of xi (T, dim) of one ``rows_key``: the weights (T, n) and
    the rows form's raw Jacobians (T, dim, n), or None for a plugin model, called per point. A
    failure names the first row's xi: run it in trial order."""
    one = model[0]
    if xi.shape[1] != one.dim:
        raise SizeMismatch(f"expected {one.dim} parameters, got {xi.shape[1]}")
    if one._rows is None:
        return np.array([m.point(at).weights for m, at in zip(model, xi)]), None
    w, jac = one._rows(xi)
    try:
        return require_weights(w), jac
    except (NonPositiveWeight, NotNormalized) as exc:
        raise InvalidParameter(f"xi={xi[0].tolist()} outside the model: {exc}") from exc


def jacobian_rows(model, xi: np.ndarray, raw: np.ndarray | None = None) -> np.ndarray:
    """``jacobian_at`` at each row of xi (T, dim) of one ``rows_key``, stacked (T, dim, n): ``raw``,
    the Jacobians ``point_rows`` gave, or the rows form's, or each plugin model's, checked."""
    one = model[0]
    if raw is None:
        if xi.shape[1] != one.dim:
            raise SizeMismatch(f"expected {one.dim} parameters, got {xi.shape[1]}")
        raw = one._rows(xi)[1] if one._rows else np.array([_raw_jacobian(m, at) for m, at in zip(model, xi)])
    return checked_jacobians(raw)


def jacobian_at(model: ParametricModel, xi) -> np.ndarray:
    """Rows ``d p_xi / d xi_i`` (dim x n), validated and exactly sum-zero.

    Falls back to central differences with step ``1e-6 * max(1, |xi_i|)``
    when the model carries no analytic Jacobian. Rows are mean-subtracted
    after validation so downstream tangent vectors satisfy their sum-zero
    invariant exactly. ``jacobian_rows`` on a batch of one.
    """
    return jacobian_rows([model], np.asarray(xi, dtype=float).reshape(1, -1))[0]


def _stacks(model, xi) -> list[tuple[list[int], list, np.ndarray]]:
    """The trials of each ``rows_key`` and parameter length, their models and parameters (T, length)."""
    xi = [np.asarray(x, dtype=float).reshape(-1) for x in xi]
    return [(trials, [model[t] for t in trials], np.array([xi[t] for t in trials]))
            for trials in by_shape((*rows_key(one), x.size) for one, x in zip(model, xi))]


def _raw_jacobian(model: ParametricModel, xi: np.ndarray) -> np.ndarray:
    """The model's Jacobian at ``xi`` (a built-in's rows form on a batch of one), or central
    differences; only its shape is checked."""
    if model.jacobian is not None:
        jac = np.array(model.jacobian(xi), dtype=float)
        if jac.shape != (model.dim, model.space.size):
            raise SizeMismatch(f"jacobian shape {jac.shape} != {(model.dim, model.space.size)}")
        return jac
    jac = np.empty((model.dim, model.space.size))
    for i in range(model.dim):
        h = FD_STEP_SCALE * max(1.0, abs(xi[i]))
        up, down = xi.copy(), xi.copy()
        up[i] += h
        down[i] -= h
        jac[i] = (model.point(up).weights - model.point(down).weights) / (2 * h)
    return jac


def checked_jacobians(jac: np.ndarray) -> np.ndarray:
    """``jacobian_at``'s checks on raw Jacobians stacked (T, dim, n): finite
    entries, rows summing to 0, full rank. Returns them mean-subtracted; a
    failing check names the first failing trial."""
    finite = np.isfinite(jac)
    if np.count_nonzero(finite) != finite.size:
        bad = jac[np.argmin(finite.all(axis=(1, 2)))]
        raise InvalidParameter(f"Jacobian entries must be finite, got {bad.tolist()}")
    sums = jac.sum(axis=-1)
    scale = np.maximum(1.0, abs(jac).max(axis=(1, 2)))
    bent = abs(sums).max(axis=-1) > JACOBIAN_SUM_TOL * scale
    if np.count_nonzero(bent):
        raise InvalidParameter(
            f"Jacobian rows must sum to 0 (tangency), got sums {sums[np.argmax(bent)].tolist()}"
        )
    jac = jac - sums[..., None] / jac.shape[-1]
    svals = np.linalg.svd(jac, compute_uv=False)
    deficient = svals[:, -1] < RANK_RTOL * svals[:, 0]
    if np.count_nonzero(deficient):
        raise RankDeficient(
            f"Jacobian singular values {svals[np.argmax(deficient)].tolist()} fail the rank test"
        )
    return jac


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Symmetric positive-definite information matrix at a parameter point."""

    matrix: np.ndarray
    xi: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise SizeMismatch(f"non-empty square matrix required, got shape {m.shape}")
        _require_information(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))

    def inverse(self) -> np.ndarray:
        """G^{-1}, the co-metric Gram matrix in the ``d xi`` basis."""
        return _inverses(self.matrix)


def _require_information(m: np.ndarray) -> np.ndarray:
    """The ``FisherMatrix`` checks on square matrices, stacked along leading
    axes or not: finite, symmetric, positive definite. Returns ``m``."""
    finite = np.isfinite(m)
    if np.count_nonzero(finite) != finite.size:
        raise InvalidParameter("information matrix entries must be finite")
    asymmetry = abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1))
    if np.count_nonzero(asymmetry > SYMMETRY_TOL * np.maximum(1.0, abs(m).max(axis=(-2, -1)))):
        raise RankDeficient("information matrix is not symmetric")
    if np.count_nonzero(np.linalg.eigvalsh(m).min(axis=-1) <= 0.0):
        raise RankDeficient("information matrix is not positive definite")
    return m


def _inverses(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def _score_grams(w: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """The score Gram matrices at stacked points (T, n) from their Jacobian
    rows (T, dim, n), symmetrized; the ``FisherMatrix`` checks come after."""
    scores = jac / w[:, None, :]
    # the transposed view keeps the operand layout of the one-point product
    g = scores @ (scores * w[:, None, :]).transpose(0, 2, 1)
    return 0.5 * (g + g.transpose(0, 2, 1))


def fisher_info(model: ParametricModel, xi) -> FisherMatrix:
    """Fisher information matrix G_ij = <L_i | L_j>_{p_xi}."""
    at = np.asarray(xi, dtype=float).reshape(1, -1)
    w, raw = point_rows([model], at)
    g = _score_grams(w, jacobian_rows([model], at, raw))
    return FisherMatrix(g[0], np.asarray(xi, dtype=float))


def restrict(model: ParametricModel, xi, alpha_ambient: CotangentVector) -> np.ndarray:
    """Coefficients of the restricted covector in the ``d xi`` basis."""
    at = np.asarray(xi, dtype=float).reshape(1, -1)
    w, raw = point_rows([model], at)
    if alpha_ambient.base != Distribution(model.space, w[0]):
        raise BasePointMismatch("ambient covector is not based at p_xi")
    jac = require_rows_sum_zero(jacobian_rows([model], at, raw))  # each row a TangentVector
    return _restricted(jac, alpha_ambient.rep.values[None, None])[0, 0]


def _restricted(jac: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Representatives (T, r, n) restricted through Jacobians (T, dim, n), (T, r, dim): one dot per pairing."""
    return (jac[:, None, :, None, :] @ reps[:, :, None, :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# Model points over a leading trial axis
#
# Trials of one model shape (dim, n) are stacked into C-ordered arrays, and
# every product is the one the trial makes alone: one BLAS dot, matrix-vector
# or matrix-matrix product per slice, and LAPACK per slice. So every entry is
# bitwise the trial's own. The checks of the objects the single point builds
# run on the stacks, in the order the single point meets them.
# ---------------------------------------------------------------------------


def _lifted(w: np.ndarray, jac: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The representatives of flat(X), X = sum_i (G^{-1} c)_i d_i, at stacked
    points (T, n) with Jacobians (T, dim, n), for coefficient rows c stacked
    (T, r, dim), as (T, r, n). Each lift gets the checks of its
    TangentVector, RandomVariable and CotangentVector."""
    g = _require_information(_score_grams(w, jac))
    try:
        # one solve per row, as the vector right-hand side of a single point
        weights = np.linalg.solve(g[:, None], rows[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return flat_rows(w, (weights[..., None, :] @ jac[:, None])[..., 0, :])


def lifts(model: ParametricModel, xi, rows) -> list[CotangentVector]:
    """Minimum-norm ambient extensions of several model covectors at one point.

    For each coefficient row c computes X = sum_i (G^{-1} c)_i d_i in T(M)
    and returns flat(X). Restricting a result reproduces its row and its
    squared co-norm is ``c^T G^{-1} c``, the smallest among all ambient
    extensions. The point, the Jacobian and G are evaluated once for all rows.
    """
    rows = [np.asarray(c, dtype=float).reshape(-1) for c in rows]
    for coeffs in rows:
        if coeffs.shape[0] != model.dim:
            raise SizeMismatch(f"expected {model.dim} coefficients, got {coeffs.shape[0]}")
    at = np.asarray(xi, dtype=float).reshape(1, -1)
    w, raw = point_rows([model], at)
    reps = _lifted(w, jacobian_rows([model], at, raw), np.array(rows).reshape(1, len(rows), model.dim))
    p = Distribution(model.space, w[0])
    return [CotangentVector(p, RandomVariable(p.space, rep)) for rep in reps[0]]


def estimator_noise(model: ParametricModel, rng) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one ``unbiased_estimators`` call, in its order: for each
    estimator ``normal(size=n)``, then ``uniform(0, 2)``. Returns the noise
    rows (dim, n) and the scales (dim,)."""
    if not isinstance(rng, np.random.Generator):
        raise InvalidParameter(f"rng must be a numpy.random.Generator, not {type(rng).__name__}")
    n = model.space.size
    noise, scale = np.empty((model.dim, n)), np.empty(model.dim)
    for i in range(model.dim):
        noise[i] = rng.normal(size=n)
        scale[i] = rng.uniform(0, 2)
    return noise, scale


def unbiased_estimators(model: ParametricModel, xi, rng) -> list[RandomVariable]:
    """Random locally unbiased estimators at ``xi``: each lift of d xi^i plus
    ``normal`` noise in the kernel of restriction, scaled by ``uniform(0, 2)``.
    ``unbiased_estimators_kernel`` on a batch of one."""
    return unbiased_estimators_kernel([model], [xi], [estimator_noise(model, rng)])[0]


def unbiased_estimators_kernel(model, xi, noise) -> list[list[RandomVariable]]:
    """``unbiased_estimators`` over a leading trial axis.

    Each argument is a sequence with one entry per trial, in any mix of
    models; a trial's ``noise`` is what ``estimator_noise`` draws for it.
    The lifts of all trials of one model shape are computed together, and
    their noise z is projected onto the kernel of restriction as z - (zQ)Q^T,
    Q from one stacked reduced QR of the transposed Jacobians (Golub & Van
    Loan, 5.3). Every estimator is bitwise the one the trial gives alone, and
    a failed check raises what the first failing trial raises alone.
    """
    return in_trial_order(_estimator_rows, model, xi, noise)


def _estimator_rows(model, xi, noise) -> list[list[RandomVariable]]:
    estimators: list = [None] * len(model)
    for trials, group, at in _stacks(model, xi):
        w, raw = point_rows(group, at)
        jac = jacobian_rows(group, at, raw)
        k, n = jac.shape[1:]
        reps = _lifted(w, jac, np.broadcast_to(np.eye(k), (len(trials), k, k)))
        parts = []
        for t in trials:
            z, scale = (np.array(part, dtype=float) for part in noise[t])
            if z.shape != (k, n) or scale.shape != (k,):
                raise SizeMismatch(f"noise of shapes {z.shape}, {scale.shape} != {(k, n)}, {(k,)}")
            parts.append((z, scale))
        z, scale = (np.array(column) for column in zip(*parts))
        q = np.linalg.qr(jac.transpose(0, 2, 1))[0]
        for t, values in zip(trials, reps + scale[..., None] * (z - (z @ q) @ q.transpose(0, 2, 1))):
            estimators[t] = [RandomVariable(model[t].space, v) for v in values]
    return estimators


@dataclass(frozen=True)
class CrbReport:
    """Outcome of a Cramér-Rao comparison V >= G^{-1}."""

    xi: tuple[float, ...]
    covariance: np.ndarray
    inverse_information: np.ndarray
    min_eigenvalue: float
    psd_tolerance: float
    verdict: str  # "psd" or "violation"
    equality: bool
    mode: str

    @property
    def passed(self) -> bool:
        return self.verdict == "psd"

    @property
    def scaled_residual(self) -> float:
        """-min eigenvalue / (1 + max |G^{-1}|): the crb battery's residual and its witness gap."""
        return float(-(self.min_eigenvalue / (1.0 + np.max(np.abs(self.inverse_information)))))


def crb_check(
    model: ParametricModel,
    xi,
    estimators: Sequence[RandomVariable],
    mode: str = "local",
    box: Sequence[tuple[float, float]] | None = None,
) -> CrbReport:
    """Verify unbiasedness, then compare V against G^{-1}.

    ``local`` checks the differential condition restrict(delta(A^i)) = e_i
    at xi only. ``global`` additionally checks <A^i>_{p_xi'} = xi'^i on a
    grid of ``_GLOBAL_GRID_POINTS`` per axis over ``box`` (required in that mode:
    unbiasedness over all of M is only desk-checkable on a declared box,
    one finite ``(lo, hi)`` with lo <= hi per parameter, and rejected in
    local mode). ``mode`` and ``box`` are checked before anything is
    evaluated, and the grid is evaluated as one stack.

    Raises NotLocallyUnbiased when the precondition fails; the PSD verdict
    tolerance is ``1e-8 * (1 + spectral norm of G^{-1})``. The local
    comparison is ``crb_kernel`` on a batch of one.
    """
    if mode not in ("local", "global"):
        raise InvalidParameter(f"mode must be 'local' or 'global', got {mode!r}")
    if mode == "global":
        if box is None:
            raise InvalidParameter("global mode needs an explicit parameter box")
        _require_box(box, model.dim)
    elif box is not None:
        raise InvalidParameter(f"a box is read in global mode only, got one in mode {mode!r}")
    report = crb_kernel([model], [xi], [estimators])[0]
    if mode == "local":
        return report
    mesh = np.meshgrid(*(np.linspace(lo, hi, _GLOBAL_GRID_POINTS) for lo, hi in box), indexing="ij")
    grid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    values = np.array([a.values for a in estimators])
    in_trial_order(partial(_require_unbiased, values), [model] * len(grid), grid)
    return replace(report, mode=mode)


def _require_unbiased(values: np.ndarray, model, grid: np.ndarray) -> None:
    """<A^i>_{p_xi} = xi^i at each grid point xi (G, dim), for the estimators' values (dim, n)."""
    errors = abs(expect_rows(point_rows(model, grid)[0], values[None]) - grid)
    biased = errors > UNBIASED_TOL
    if np.count_nonzero(biased):
        at, i = np.unravel_index(np.argmax(biased), biased.shape)
        raise NotLocallyUnbiased(f"<A^{i + 1}> deviates from xi^{i + 1} by {errors[at, i]:.3e} "
                                 f"at grid point {grid[at].tolist()}")


def _require_box(box, dim: int) -> None:
    """One finite ``(lo, hi)`` with lo <= hi per parameter, or InvalidParameter naming the axis."""
    if len(box) != dim:
        raise InvalidParameter(f"box needs one (lo, hi) per parameter: {dim}, got {len(box)}")
    for i, axis in enumerate(box):
        try:
            lo, hi = (float(bound) for bound in axis)
        except (TypeError, ValueError):
            lo = hi = math.nan
        # Written so that NaN, given or from a failed read, fails it.
        if not -math.inf < lo <= hi < math.inf:
            raise InvalidParameter(f"box axis {i + 1} is not a finite (lo, hi) with lo <= hi: {axis!r}")


def crb_kernel(model, xi, estimators) -> list[CrbReport]:
    """``crb_check`` in local mode over a leading trial axis.

    Each argument is a sequence with one entry per trial, in any mix of
    models and sizes. Every report is bitwise the one the trial gives alone,
    and a failed check raises what the first failing trial raises alone.
    """
    return in_trial_order(_crb_rows, model, xi, estimators)


def _estimator_values(space: SampleSpace, w: np.ndarray, estimators) -> list[np.ndarray]:
    if any(a.space != space for a in estimators):
        # the object path checks the estimators before the mismatched one first
        for a in estimators:
            delta(Distribution(space, w), a)
    return [a.values for a in estimators]


def _crb_rows(model, xi, estimators) -> list[CrbReport]:
    for one, tuple_ in zip(model, estimators):
        if len(tuple_) != one.dim:
            raise SizeMismatch(f"need {one.dim} estimators, got {len(tuple_)}")
    reports: list = [None] * len(model)
    for trials, group, at in _stacks(model, xi):
        w, raw = point_rows(group, at)
        values = np.array([_estimator_values(model[t].space, w_t, estimators[t]) for t, w_t in zip(trials, w)])
        centered = delta_rows(w, values)
        jac = require_rows_sum_zero(jacobian_rows(group, at, raw))  # each row a TangentVector
        k = jac.shape[1]
        errors = _restricted(jac, centered) - np.eye(k)  # restrict(delta(A^i)) - e_i
        worst = abs(errors).max(axis=(1, 2))
        biased = worst > UNBIASED_TOL
        if np.count_nonzero(biased):
            first = int(np.argmax(biased))
            raise NotLocallyUnbiased(
                f"restrict(delta(A^i)) deviates from e_i by {worst[first]:.3e} "
                f"at xi={at[first].tolist()}"
            )
        # g(delta A, delta B) = Cov(A, B): V is the covariance matrix.
        v = cov_rows(w, values[:, :, None, :], values[:, None, :, :])
        g_inv = _inverses(_require_information(_score_grams(w, jac)))
        diff = v - g_inv
        diff = 0.5 * (diff + diff.transpose(0, 2, 1))
        min_eig = np.linalg.eigvalsh(diff).min(axis=-1)
        spectral = abs(np.linalg.eigvalsh(0.5 * (g_inv + g_inv.transpose(0, 2, 1)))).max(axis=-1)
        tol = 1e-8 * (1.0 + spectral)
        equality = abs(diff).max(axis=(1, 2)) <= tol
        for row, t in enumerate(trials):
            reports[t] = CrbReport(
                xi=tuple(float(s) for s in at[row]),
                covariance=v[row],
                inverse_information=g_inv[row],
                min_eigenvalue=float(min_eig[row]),
                psd_tolerance=float(tol[row]),
                verdict="psd" if min_eig[row] >= -tol[row] else "violation",
                equality=bool(equality[row]),
                mode="local",
            )
    return reports


# ---------------------------------------------------------------------------
# Model zoo
# ---------------------------------------------------------------------------


def categorical_model(n: int) -> ParametricModel:
    """Full simplex in the coordinates xi^i = p(i), i = 1..n-1."""
    point_map = _BatchOfOne(_categorical_rows, SampleSpace(n))
    return ParametricModel(point_map.space, n - 1, point_map, point_map.jacobian, name="categorical")


def _categorical_rows(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows form of every categorical model: p = (xi, 1 - sum xi) and d_i p = e_i - e_n."""
    jac = np.concatenate([np.eye(xi.shape[1]), np.full((xi.shape[1], 1), -1.0)], axis=1)
    return np.concatenate([xi, 1.0 - xi.sum(axis=-1, keepdims=True)], axis=1), np.repeat(jac[None], len(xi), axis=0)


def bernoulli_model() -> ParametricModel:
    """p_theta = (theta, 1 - theta) on a two-point space."""
    return replace(categorical_model(2), name="bernoulli")


def exponential_family_model(
    stats: np.ndarray, base: Distribution | None = None
) -> ParametricModel:
    """Family p_theta proportional to base * exp(sum_i theta_i T_i).

    ``stats`` holds the sufficient statistics T_i as rows (dim x n).
    Every theta is admissible; the analytic Jacobian is
    d_i p = p * (T_i - <T_i>_p).
    """
    stats = np.array(stats, dtype=float)
    if stats.ndim != 2:
        raise SizeMismatch("sufficient statistics must form a (dim, n) matrix")
    if not np.all(np.isfinite(stats)):
        raise InvalidParameter("sufficient statistics (stats) must be finite")
    dim, n = stats.shape
    space = SampleSpace(n)
    if base is None:
        base_w = np.full(n, 1.0 / n)
    else:
        if base.space != space:
            raise SizeMismatch("base distribution on the wrong space")
        base_w = base.weights
    point_map = _BatchOfOne(partial(_expfam_rows, stats, np.log(base_w)), space)
    return ParametricModel(space, dim, point_map, point_map.jacobian, name="expfam")


def _expfam_rows(stats: np.ndarray, log_base: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p proportional to base * exp(xi . T) and d_i p = p * (T_i - <T_i>_p), each
    product one vector-matrix or matrix-vector product per row of xi (T, dim)."""
    logits = log_base + (xi[:, None] @ stats)[:, 0]
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = w / w.sum(axis=-1, keepdims=True)
    return w, (stats - stats @ w[..., None]) * w[:, None]


def affine_model(anchor: np.ndarray, directions: np.ndarray) -> ParametricModel:
    """Mixture-type family p_xi = anchor + sum_i xi_i v_i.

    ``anchor`` must sum to 1 and each direction to 0; positivity is only
    required where the model is actually evaluated.
    """
    anchor = np.array(anchor, dtype=float).reshape(-1)
    directions = np.array(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != anchor.shape[0]:
        raise SizeMismatch("directions must form a (dim, n) matrix matching anchor")
    # Written so that NaN and +-inf fail every test.
    if not np.all(np.isfinite(anchor)):
        raise InvalidParameter("anchor (p0) must be finite")
    if not np.all(np.isfinite(directions)):
        raise InvalidParameter("directions must be finite")
    if not abs(float(np.sum(anchor)) - 1.0) <= 1e-12:
        raise NotNormalized("anchor must sum to 1")
    if not np.all(np.abs(directions.sum(axis=1)) <= 1e-12):
        raise InvalidParameter("each direction must sum to 0")
    point_map = _BatchOfOne(partial(_affine_rows, anchor, directions), SampleSpace(anchor.shape[0]))
    return ParametricModel(point_map.space, directions.shape[0], point_map, point_map.jacobian, name="affine")


def _affine_rows(anchor: np.ndarray, directions: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = anchor + xi . V, one vector-matrix product per row of xi (T, dim), and d_i p = v_i."""
    return anchor + (xi[:, None] @ directions)[:, 0], np.repeat(directions[None], len(xi), axis=0)
