"""An exact oracle for the strong-invariance identities, the co-metric as the
dual of the metric, the family matrix and the pairing identity, in rational
arithmetic.

Every float is a dyadic rational, so ``Fraction(x)`` is exact, and so are
sums, products and quotients of fractions, and integer powers. This module
evaluates the identities of ``verify.check_strong_invariance``, the matrix
of ``CandidateFamily.matrix_rows`` and the two sides of
``verify.check_prop6_identity`` with the standard library only. It imports
nothing from ``fishergeo`` and takes plain floats and ints, so a mistake in
the package's arithmetic cannot hide in a shared helper.

Each quantity is a ``Bounded``: its exact value, and the same expression
evaluated on absolute values, with every difference taken as a sum (Higham
2002, ch. 3). Rounding moves a float evaluation of the expression by at most
a small multiple of ``n * u * bound``, where u is the unit roundoff.

``strong_invariance`` builds the exact canonical pair of a float point q:
the marginal p = q^F summed exactly and the fiber weights r(y) = q(y) / p(F(y)).
On it every identity holds exactly, so every exact residual is 0. It also
returns, for each identity, the scale of the rounding that a float
evaluation of the same point may show:

- for the seven operator identities, which the package reports relative to
  the largest of 1, |lhs|, |rhs| and the absolute terms of a side whose
  terms may cancel, the largest (B_lhs + B_rhs) / max(1, B_lhs, B_rhs) over
  their entries;
- for ``covariance_identity``, an absolute difference, B_lhs + B_rhs.

``sharp_covariance`` evaluates both sides of g_p(#A, #B) = Cov_p(A, B),
the co-metric as the metric it is dual to, with #A = p o (A - E_p A): the
``invariance`` check's ``sharp`` identity at one point, which holds exactly
at every point. The check reports it relative to the largest of 1 and both
sides, with no terms, so its scale is B_lhs + B_rhs over that.

``matrix_rows`` evaluates a grammar family, given by its terms
(coeff, "PK" | "MM", k), at a stack of points: each entry is
sum_k c_k sum_y p(y)^k A_i(y) B_j(y) + c_MM <A_i>_p <B_j>_p, with its
bound. ``rationalize`` finds the smallest common denominator of a point
within a tolerance, as ``verify.rationalize`` must. ``prop6`` evaluates both sides of the pairing identity
h_p(alpha, Phi* beta) = h_q(Psi* alpha, beta) on a trial's inputs, each
with its bound. A float trial's representatives are centered only to
rounding, so ``canonical_trial`` gives its exact canonical counterpart:
each fiber row divided by its exact sum, alpha and beta centered exactly.
There, for c1 L2 + c2 MM, the two sides are equal: Phi* beta is
E(beta | F) centered at p and Psi* alpha is alpha o F centered at q, so both
L2 sides are sum_y q(y) alpha(F(y)) beta(y) and both MM sides are 0.
"""
from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Bounded:
    """An exact value with the bound of its expression on absolute values."""

    __slots__ = ("value", "bound")

    def __init__(self, value: Fraction, bound: Fraction | None = None) -> None:
        self.value = value
        self.bound = abs(value) if bound is None else bound

    def __add__(self, other: Bounded) -> Bounded:
        return Bounded(self.value + other.value, self.bound + other.bound)

    def __sub__(self, other: Bounded) -> Bounded:
        return Bounded(self.value - other.value, self.bound + other.bound)

    def __mul__(self, other: Bounded) -> Bounded:
        return Bounded(self.value * other.value, self.bound * other.bound)

    def __truediv__(self, weight: Bounded) -> Bounded:
        """Division by a positive weight, whose bound is its value."""
        assert weight.value > 0 and weight.bound == weight.value
        return Bounded(self.value / weight.value, self.bound / weight.value)


NOTHING = Bounded(ZERO)


def total(terms) -> Bounded:
    result = NOTHING
    for term in terms:
        result = result + term
    return result


# Sparse vectors are dicts {index: Bounded} of their nonzero entries; a matrix
# is a list of such rows.


def exact(values) -> list[Bounded]:
    return [Bounded(Fraction(v)) for v in values]


def apply(matrix: list[dict], vector: dict) -> dict:
    """The matrix-vector product, over the nonzero entries."""
    product = {}
    for i, row in enumerate(matrix):
        common = row.keys() & vector.keys()
        if common:
            product[i] = total(row[j] * vector[j] for j in sorted(common))
    return product


def transpose(matrix: list[dict], columns: int) -> list[dict]:
    rows: list[dict] = [{} for _ in range(columns)]
    for i, row in enumerate(matrix):
        for j, entry in row.items():
            rows[j][i] = entry
    return rows


def metric(w: list[Bounded], x: dict, y: dict) -> Bounded:
    """The Fisher metric sum(x * y / w) of two m-representations."""
    return total(x[k] * y[k] / w[k] for k in sorted(x.keys() & y.keys()))


def expect(w: list[Bounded], values: list[Bounded]) -> Bounded:
    return total(wk * v for wk, v in zip(w, values))


def cov(w: list[Bounded], a: list[Bounded], b: list[Bounded]) -> Bounded:
    """The expectation of the product of the centered variables."""
    mean_a, mean_b = expect(w, a), expect(w, b)
    return expect(w, [(ak - mean_a) * (bk - mean_b) for ak, bk in zip(a, b)])


def spanning_rows(size: int) -> list[dict]:
    """The m-representations e_i - e_size, i = 1..size-1."""
    return [{i: Bounded(ONE), size - 1: Bounded(-ONE)} for i in range(size - 1)]


def entries(vector: dict, size: int) -> list[Bounded]:
    return [vector.get(k, NOTHING) for k in range(size)]


def relative_scale(pairs) -> Fraction:
    """The largest (B_lhs + B_rhs) / max(1, B_lhs, B_rhs) over pairs of sides."""
    return max((lhs.bound + rhs.bound) / max(ONE, lhs.bound, rhs.bound) for lhs, rhs in pairs)


def strong_invariance(q, map0, a, b) -> dict[str, tuple[Fraction, Fraction]]:
    """For each identity of the strong-invariance check on the canonical pair
    of (F, q): its exact residual, the largest |lhs - rhs| over its entries,
    and the scale of its float rounding (see the module docstring).

    ``q`` holds the weights of the big point (n floats), ``map0`` the
    0-based surjection F onto m points, ``a`` a variable on the small space
    and ``b`` one on the big space.
    """
    n, m = len(q), max(map0) + 1
    big = exact(q)
    small = [total(big[y] for y in range(n) if map0[y] == x) for x in range(m)]
    # the embedding kernel Phi (n x m) and the co-embedding kernel Psi (m x n)
    phi = [{map0[y]: big[y] / small[map0[y]]} for y in range(n)]
    psi = [{y: Bounded(ONE) for y in range(n) if map0[y] == x} for x in range(m)]
    xs, ys = spanning_rows(m), spanning_rows(n)
    up = [apply(phi, x) for x in xs]
    down = [apply(psi, y) for y in ys]
    projected = [apply(phi, v) for v in down]
    section = [apply(psi, v) for v in up]
    gram = [[metric(big, v, y) for y in ys] for v in projected]
    sides = {
        "adjoint": [(metric(big, u, y), metric(small, x, d))
                    for u, x in zip(up, xs) for y, d in zip(ys, down)],
        "projector_idempotent": [
            pair for v in projected
            for pair in zip(entries(apply(phi, apply(psi, v)), n), entries(v, n))
        ],
        "projector_self_adjoint": [(gram[i][j], gram[j][i]) for i in range(n - 1) for j in range(n - 1)],
        "projector_fixes_image": [
            pair for s, u in zip(section, up) for pair in zip(entries(apply(phi, s), n), entries(u, n))
        ],
        "section": [pair for s, x in zip(section, xs) for pair in zip(entries(s, m), entries(x, m))],
        "isometry": [(metric(big, u, v), metric(small, x, z)) for u, x in zip(up, xs) for v, z in zip(up, xs)],
        "coisometry": [(metric(small, d, e), gram[i][j])
                       for i, d in enumerate(down) for j, e in enumerate(down)],
    }
    result = {
        key: (max(abs(lhs.value - rhs.value) for lhs, rhs in pairs), relative_scale(pairs))
        for key, pairs in sides.items()
    }
    a_values, b_values = exact(a), exact(b)
    # E_Phi(B|x), the conditional expectation through the embedding
    expectation = entries(apply(transpose(phi, m), dict(enumerate(b_values))), m)
    lhs = cov(small, a_values, expectation)
    rhs = cov(big, [a_values[x] for x in map0], b_values)
    result["covariance_identity"] = (abs(lhs.value - rhs.value), lhs.bound + rhs.bound)
    return result


def centered(w: list[Bounded], values: list[Bounded]) -> list[Bounded]:
    """The values minus their expectation at w, exactly."""
    mean = expect(w, values)
    return [v - mean for v in values]


def sharp_covariance(w, a, b) -> tuple[Fraction, Fraction]:
    """g_p(#A, #B) against Cov_p(A, B) at the weights ``w`` of a point p, for
    variables ``a`` and ``b`` there, with #A = p o (A - E_p A) the tangent
    vector dual to dA: the exact residual, and the scale of its float
    rounding, B_lhs + B_rhs relative to the largest of 1 and both sides, as
    the check reports it (Cov(A, B) may cancel far below its bound)."""
    w, a, b = exact(w), exact(a), exact(b)
    sharp_a, sharp_b = ({k: wk * v for k, (wk, v) in enumerate(zip(w, centered(w, x)))} for x in (a, b))
    lhs, rhs = metric(w, sharp_a, sharp_b), cov(w, a, b)
    return abs(lhs.value - rhs.value), (lhs.bound + rhs.bound) / max(ONE, abs(lhs.value), abs(rhs.value))


def family_matrix(terms, w: list[Bounded], rows_a, rows_b) -> list[list[Bounded]]:
    """[h(p, A_i, B_j)] of a grammar family at one point, for variables given
    as rows of ``Bounded`` values; each term's c * T added in term order."""
    matrix = [[NOTHING] * len(rows_b) for _ in rows_a]
    for coeff, kind, k in terms:
        c = Bounded(Fraction(coeff))
        if kind == "PK":
            powers = [Bounded(wk.value**k) for wk in w]
            term = [[total(pk * ai * bj for pk, ai, bj in zip(powers, a, b)) for b in rows_b] for a in rows_a]
        else:
            means_b = [expect(w, b) for b in rows_b]
            term = [[expect(w, a) * mean_b for mean_b in means_b] for a in rows_a]
        matrix = [[entry + c * t for entry, t in zip(row, term_row)] for row, term_row in zip(matrix, term)]
    return matrix


def matrix_rows(terms, w, rows_a, rows_b) -> list[list[list[Bounded]]]:
    """``family_matrix`` at each point of a stack: weights (T, n) and rows
    (T, r, n) and (T, c, n) as nested lists of floats."""
    return [
        family_matrix(terms, exact(w_t), [exact(a) for a in a_t], [exact(b) for b in b_t])
        for w_t, a_t, b_t in zip(w, rows_a, rows_b)
    ]


def prop6(map0, fibers, p, a, b, terms) -> tuple[Bounded, Bounded]:
    """The sides h_p(alpha, Phi* beta) and h_q(Psi* alpha, beta) of a pairing
    trial, as the kernel states them: ``map0`` the 0-based surjection F of n
    points onto m, ``fibers`` the m x n fiber matrix, ``p`` the small point,
    ``a`` and ``b`` the representatives of alpha at p and beta at q = Phi p,
    ``terms`` the family's. Phi* beta is E(beta | F) centered at p and
    Psi* alpha is alpha o F centered at q."""
    n, m = len(map0), len(p)
    # the embedding kernel Phi(y, F(y)), its only nonzero entry per y
    phi = [Bounded(Fraction(fibers[map0[y]][y])) for y in range(n)]
    small = exact(p)
    big = [phi[y] * small[map0[y]] for y in range(n)]
    alpha, beta = exact(a), exact(b)
    phi_pull = centered(small, [total(phi[y] * beta[y] for y in range(n) if map0[y] == x) for x in range(m)])
    psi_pull = centered(big, [alpha[map0[y]] for y in range(n)])
    lhs = family_matrix(terms, small, [alpha], [phi_pull])[0][0]
    rhs = family_matrix(terms, big, [psi_pull], [beta])[0][0]
    return lhs, rhs


def canonical_trial(map0, fibers, p, a, b) -> tuple:
    """The exact canonical trial of a float one, as ``prop6`` takes it: each
    fiber row divided by its exact sum, and the representatives centered
    exactly, alpha at p and beta at q = Phi p."""
    rows = [[Fraction(v) / sum(map(Fraction, row)) for v in row] for row in fibers]
    small = [Bounded(Fraction(v)) for v in p]
    big = [Bounded(rows[map0[y]][y]) * small[map0[y]] for y in range(len(map0))]
    alpha, beta = (
        [v.value for v in centered(w, exact(values))] for w, values in ((small, a), (big, b))
    )
    return map0, rows, p, alpha, beta


def rationalize(weights, denominator_bound: int, tol) -> tuple[int, list[int]] | None:
    """The smallest denominator m <= the bound, from len(weights) up, whose
    nearest counts k_i = round(w_i m) (ties to even, as ``np.rint``) are all
    >= 1, sum to m and lie within ``tol``: |w_i - k_i / m| <= tol; with its
    counts, or None."""
    w = [Fraction(v) for v in weights]
    for m in range(len(w), denominator_bound + 1):
        counts = [round(x * m) for x in w]
        near = max(abs(x - Fraction(k, m)) for x, k in zip(w, counts)) <= tol
        if min(counts) >= 1 and sum(counts) == m and near:
            return m, counts
    return None

