"""Grammar of candidate bilinear-form families.

A family assigns to every dimension n and point p a bilinear form on random
variables. The grammar spans linear combinations of three atom types:

    L2      <A|B>_p                      (same as PK(1))
    MM      <A>_p <B>_p
    PK(k)   sum_w p(w)^k A(w) B(w)       (integer k)
    COV     L2 - MM

Expressions look like ``"COV"``, ``"PK(2)"`` or ``"1*L2 + -1*MM"``: terms
joined by ``+``, each an atom with an optional ``coefficient*`` prefix.
Bilinearity in (A, B) holds by construction; the probe still spot-checks it
to guard future plugin evaluators.

On indicator variables with disjoint supports, the only variables the
characterization probe pairs, a family's pair matrix has the closed form

    sum_k c_k diag(R p^k) + c_MM (R p)(R p)^T       (R: the indicator rows)

the matrix form of the invariant decomposition c1 diag(p) + c2 p p^T.
``CandidateFamily.indicator_matrix`` computes it with the float operations
of ``__call__`` on each pair, so every entry is bitwise equal to the call.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import FisherGeoError, InvalidParameter, SizeMismatch
from .simplex import Distribution, RandomVariable

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*\*)?\s*"
    r"(?P<atom>L2|MM|COV|PK\(\s*(?P<k>-?\d+)\s*\))\s*$"
)


class FamilyParseError(FisherGeoError, ValueError):
    """Expression is not in the candidate-family grammar."""


@dataclass(frozen=True)
class CandidateFamily:
    """Bilinear-form family, normalized to PK and MM terms."""

    name: str
    terms: tuple[tuple[float, str, int], ...]  # (coeff, "PK" | "MM", k)

    def __call__(self, p: Distribution, a: RandomVariable, b: RandomVariable) -> float:
        product = a.values * b.values
        total = 0.0
        for coeff, kind, k in self.terms:
            if kind == "PK":
                total += coeff * float(np.sum(p.weights**k * product))
            else:
                total += coeff * float(np.dot(p.weights, a.values)) * float(
                    np.dot(p.weights, b.values)
                )
        return total

    def indicator_matrix(self, p: Distribution, rows) -> np.ndarray:
        """[self(p, A_i, A_j)] for indicator rows A_i: 0/1 values, disjoint supports.

        Entry for entry the float operations of ``__call__``: each term's
        ``coeff * T`` is added to a zeros matrix in term order. A PK(k) term
        sums ``p**k * A_i`` on the diagonal; off it the pair product is all
        zeros, so every entry is ``sum(p**k * 0.0)`` (NaN where ``p**k``
        overflows, as in the call). The MM term is ``(coeff * <A_i>) * <A_j>``
        with each mean a dot product of ``p`` and one row, as in the call.
        """
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != p.space.size:
            raise SizeMismatch(f"expected rows of length {p.space.size}, got shape {rows.shape}")
        if not np.all((rows == 0.0) | (rows == 1.0)):
            raise InvalidParameter("indicator rows must hold only 0 and 1")
        if not np.all(np.sum(rows, axis=0) <= 1.0):
            raise InvalidParameter("indicator rows must have disjoint supports")
        w = p.weights
        size = rows.shape[0]
        matrix = np.zeros((size, size))
        for coeff, kind, k in self.terms:
            if kind == "PK":
                power = w**k
                term = np.full((size, size), np.sum(power * 0.0))
                np.fill_diagonal(term, np.sum(power * rows, axis=1))
                matrix += coeff * term
            else:
                means = np.array([float(np.dot(w, row)) for row in rows])
                matrix += np.multiply.outer(coeff * means, means)
        return matrix


def parse_family(expression: str) -> CandidateFamily:
    """Parse a grammar expression into an evaluatable family."""
    if not expression or not expression.strip():
        raise FamilyParseError("empty family expression")
    terms: list[tuple[float, str, int]] = []
    for raw in expression.split("+"):
        match = _TERM_RE.match(raw)
        if match is None:
            raise FamilyParseError(f"cannot parse term {raw.strip()!r}")
        coeff = float(match.group("coeff")) if match.group("coeff") else 1.0
        atom = match.group("atom")
        if atom == "L2":
            terms.append((coeff, "PK", 1))
        elif atom == "MM":
            terms.append((coeff, "MM", 0))
        elif atom == "COV":
            terms.append((coeff, "PK", 1))
            terms.append((-coeff, "MM", 0))
        else:
            terms.append((coeff, "PK", int(match.group("k"))))
    return CandidateFamily(expression.strip(), tuple(terms))


COV_FAMILY = parse_family("COV")
L2_FAMILY = parse_family("L2")
MM_FAMILY = parse_family("MM")
