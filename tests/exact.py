"""An exact oracle for the strong-invariance identities, in rational arithmetic.

Every float is a dyadic rational, so ``Fraction(x)`` is exact, and so are
sums, products and quotients of fractions. This module evaluates the
identities of ``verify.check_strong_invariance`` with the standard library
only. It imports nothing from ``fishergeo`` and takes plain floats and ints,
so a mistake in the package's arithmetic cannot hide in a shared helper.

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
