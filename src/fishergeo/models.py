"""Parametric submanifolds of the simplex and the Cramér-Rao checker.

A model is a smooth map ``xi -> p_xi`` with a Jacobian provider (analytic or
central finite differences). Coordinate tangent vectors have m-representation
``d p_xi / d xi_i``; their scores are ``d log p_xi / d xi_i``. The Fisher
information matrix is the score Gram matrix; its inverse is the co-metric
Gram matrix in the ``d xi`` basis.

Every check evaluates a model once per point: ``p_xi``, the validated
Jacobian and, where it needs it, the information matrix are computed once
and every restriction, lift and covariance at that point reads them.

``lifts`` realizes the minimum-norm ambient extension of model covectors:
among all ambient cotangent vectors restricting to the given coefficients it
is the unique one of smallest co-norm, and that co-norm squared equals
``c^T G^{-1} c``. ``crb_check`` compares the covariance matrix of a locally
unbiased estimator tuple against ``G^{-1}`` and reports the smallest
eigenvalue of the difference. ``lifts`` and ``unbiased_estimators`` read one
Jacobian and one information matrix for all the covectors at a point.

The built-in zoo covers Bernoulli, the full categorical family, exponential
families with user-supplied sufficient statistics, and affine (mixture)
families; exactly the families needed for equality cases of the bound.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
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
)
from .geometry import CotangentVector, TangentVector, delta, flat, pair
from .simplex import Distribution, RandomVariable, SampleSpace, cov_matrix

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

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= self.space.size - 1:
            raise InvalidParameter(
                f"dim must lie in [1, {self.space.size - 1}], got {self.dim}"
            )

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


def jacobian_at(model: ParametricModel, xi) -> np.ndarray:
    """Rows ``d p_xi / d xi_i`` (dim x n), validated and exactly sum-zero.

    Falls back to central differences with step ``1e-6 * max(1, |xi_i|)``
    when the model carries no analytic Jacobian. Rows are mean-subtracted
    after validation so downstream tangent vectors satisfy their sum-zero
    invariant exactly.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != model.dim:
        raise SizeMismatch(f"expected {model.dim} parameters, got {xi.shape[0]}")
    if model.jacobian is not None:
        jac = np.array(model.jacobian(xi), dtype=float)
        if jac.shape != (model.dim, model.space.size):
            raise SizeMismatch(
                f"jacobian shape {jac.shape} != {(model.dim, model.space.size)}"
            )
    else:
        jac = np.empty((model.dim, model.space.size))
        for i in range(model.dim):
            h = FD_STEP_SCALE * max(1.0, abs(xi[i]))
            up, down = xi.copy(), xi.copy()
            up[i] += h
            down[i] -= h
            jac[i] = (model.point(up).weights - model.point(down).weights) / (2 * h)
    if not np.all(np.isfinite(jac)):
        raise InvalidParameter(f"Jacobian entries must be finite, got {jac.tolist()}")
    sums = jac.sum(axis=1)
    scale = max(1.0, float(np.max(np.abs(jac))))
    if np.max(np.abs(sums)) > JACOBIAN_SUM_TOL * scale:
        raise InvalidParameter(
            f"Jacobian rows must sum to 0 (tangency), got sums {sums.tolist()}"
        )
    jac = jac - sums[:, None] / model.space.size
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals[-1] < RANK_RTOL * svals[0]:
        raise RankDeficient(
            f"Jacobian singular values {svals.tolist()} fail the rank test"
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
        if not np.all(np.isfinite(m)):
            raise InvalidParameter("information matrix entries must be finite")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise RankDeficient("information matrix is not symmetric")
        if np.min(np.linalg.eigvalsh(m)) <= 0.0:
            raise RankDeficient("information matrix is not positive definite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))

    def inverse(self) -> np.ndarray:
        """G^{-1}, the co-metric Gram matrix in the ``d xi`` basis."""
        try:
            return np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from exc


def _information(p: Distribution, jac: np.ndarray, xi) -> FisherMatrix:
    """Score Gram matrix at ``p`` from the Jacobian rows evaluated there."""
    scores = jac / p.weights
    g = scores @ (scores * p.weights).T
    return FisherMatrix(0.5 * (g + g.T), np.asarray(xi, dtype=float))


def fisher_info(model: ParametricModel, xi) -> FisherMatrix:
    """Fisher information matrix G_ij = <L_i | L_j>_{p_xi}."""
    return _information(model.point(xi), jacobian_at(model, xi), xi)


def restrict(model: ParametricModel, xi, alpha_ambient: CotangentVector) -> np.ndarray:
    """Coefficients of the restricted covector in the ``d xi`` basis."""
    p = model.point(xi)
    if alpha_ambient.base != p:
        raise BasePointMismatch("ambient covector is not based at p_xi")
    return np.array(
        [pair(alpha_ambient, TangentVector(p, row)) for row in jacobian_at(model, xi)]
    )


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
    return _lifts(model, xi, rows)[1]


def _lifts(model: ParametricModel, xi, rows) -> tuple[np.ndarray, list[CotangentVector]]:
    """The Jacobian at ``xi`` and the lifts of ``rows``, from one evaluation."""
    p = model.point(xi)
    jac = jacobian_at(model, xi)
    g = _information(p, jac, xi).matrix
    lifted = []
    for coeffs in rows:
        try:
            weights = np.linalg.solve(g, coeffs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from exc
        lifted.append(flat(TangentVector(p, weights @ jac)))
    return jac, lifted


def unbiased_estimators(model: ParametricModel, xi, rng) -> list[RandomVariable]:
    """Random locally unbiased estimators at ``xi``: each lift of d xi^i plus
    ``normal`` noise in the kernel of restriction, scaled by ``uniform(0, 2)``."""
    jac, lifted = _lifts(model, xi, np.eye(model.dim))
    estimators = []
    for alpha in lifted:
        noise = rng.normal(size=model.space.size)
        noise -= jac.T @ np.linalg.lstsq(jac.T, noise, rcond=None)[0]
        scale = float(rng.uniform(0, 2))
        estimators.append(RandomVariable(model.space, alpha.rep.values + scale * noise))
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
    unbiasedness over all of M is only desk-checkable on a declared box).

    Raises NotLocallyUnbiased when the precondition fails; the PSD verdict
    tolerance is ``1e-8 * (1 + spectral norm of G^{-1})``.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if len(estimators) != model.dim:
        raise SizeMismatch(f"need {model.dim} estimators, got {len(estimators)}")
    k = model.dim
    p = model.point(xi)
    covectors = [delta(p, a) for a in estimators]
    jac = jacobian_at(model, xi)
    basis = [TangentVector(p, row) for row in jac]
    errors = np.array([[pair(c, v) for v in basis] for c in covectors]) - np.eye(k)
    worst = float(np.max(np.abs(errors)))
    if worst > UNBIASED_TOL:
        raise NotLocallyUnbiased(
            f"restrict(delta(A^i)) deviates from e_i by {worst:.3e} at xi={xi.tolist()}"
        )
    if mode == "global":
        if box is None:
            raise InvalidParameter("global mode needs an explicit parameter box")
        axes = [np.linspace(lo, hi, _GLOBAL_GRID_POINTS) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        for point in grid:
            q = model.point(point)
            for i, a in enumerate(estimators):
                err = abs(float(np.dot(q.weights, a.values)) - point[i])
                if err > UNBIASED_TOL:
                    raise NotLocallyUnbiased(
                        f"<A^{i + 1}> deviates from xi^{i + 1} by {err:.3e} "
                        f"at grid point {point.tolist()}"
                    )
    elif mode != "local":
        raise InvalidParameter(f"mode must be 'local' or 'global', got {mode!r}")

    # g(delta A, delta B) = Cov(A, B): V is the covariance matrix.
    v = cov_matrix(p, estimators)
    g_inv = _information(p, jac, xi).inverse()
    diff = v - g_inv
    diff = 0.5 * (diff + diff.T)
    min_eig = float(np.min(np.linalg.eigvalsh(diff)))
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (g_inv + g_inv.T)))))
    tol = 1e-8 * (1.0 + spectral)
    equality = float(np.max(np.abs(diff))) <= tol
    return CrbReport(
        xi=tuple(float(t) for t in xi),
        covariance=v,
        inverse_information=g_inv,
        min_eigenvalue=min_eig,
        psd_tolerance=tol,
        verdict="psd" if min_eig >= -tol else "violation",
        equality=equality,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Model zoo
# ---------------------------------------------------------------------------


def categorical_model(n: int) -> ParametricModel:
    """Full simplex in the coordinates xi^i = p(i), i = 1..n-1."""
    space = SampleSpace(n)

    def point_map(xi: np.ndarray) -> Distribution:
        return Distribution(space, np.append(xi, 1.0 - float(np.sum(xi))))

    def jac(xi: np.ndarray) -> np.ndarray:
        j = np.zeros((n - 1, n))
        for i in range(n - 1):
            j[i, i] = 1.0
            j[i, n - 1] = -1.0
        return j

    return ParametricModel(space, n - 1, point_map, jac, name="categorical")


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
    log_base = np.log(base_w)

    def weights_at(xi: np.ndarray) -> np.ndarray:
        logits = log_base + xi @ stats
        logits = logits - np.max(logits)
        w = np.exp(logits)
        return w / np.sum(w)

    def point_map(xi: np.ndarray) -> Distribution:
        return Distribution(space, weights_at(xi))

    def jac(xi: np.ndarray) -> np.ndarray:
        w = weights_at(xi)
        centered = stats - (stats @ w)[:, None]
        return centered * w

    return ParametricModel(space, dim, point_map, jac, name="expfam")


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
    space = SampleSpace(anchor.shape[0])
    dim = directions.shape[0]

    def point_map(xi: np.ndarray) -> Distribution:
        return Distribution(space, anchor + xi @ directions)

    def jac(xi: np.ndarray) -> np.ndarray:
        return directions.copy()

    return ParametricModel(space, dim, point_map, jac, name="affine")
