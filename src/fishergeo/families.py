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

The grammar's arithmetic is written once, in ``CandidateFamily.matrix``:
the matrix [h(p, A_i, B_j)] for variables given as the rows of A and B,

    sum_k c_k [sum_w p(w)^k A_i(w) B_j(w)]_ij + c_MM (A p)(B p)^T,

and calling a family on one pair reads the 1x1 entry. On the indicator rows
R the characterization probe pairs, it is the closed form
sum_k c_k diag(R p^k) + c_MM (R p)(R p)^T, the matrix form of the invariant
decomposition c1 diag(p) + c2 p p^T.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import FisherGeoError, SizeMismatch
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
        return float(self.matrix(p, a.values[None], b.values[None])[0, 0])

    def matrix(self, p: Distribution, rows_a, rows_b) -> np.ndarray:
        """[self(p, A_i, B_j)] for random variables A_i, B_j given as rows.

        Each term's ``coeff * T`` is added to a zeros matrix in term order. A
        PK(k) term is the row-wise ``sum(p**k * (A_i * B_j))``; the MM term is
        ``(coeff * <A_i>) * <B_j>`` with each mean one dot product of ``p``
        and a row. The rows are made C-contiguous first: the row-wise sum over
        an F-ordered product rounds differently.
        """
        w = p.weights
        rows_a, rows_b = (np.ascontiguousarray(rows, dtype=float) for rows in (rows_a, rows_b))
        for rows in (rows_a, rows_b):
            if rows.ndim != 2 or rows.shape[1] != w.size:
                raise SizeMismatch(f"expected rows of length {w.size}, got shape {rows.shape}")
        product = rows_a[:, None, :] * rows_b[None, :, :]
        matrix = np.zeros(product.shape[:2])
        for coeff, kind, k in self.terms:
            if kind == "PK":
                matrix += coeff * np.sum(w**k * product, axis=-1)
            else:
                means_a, means_b = (
                    np.array([np.dot(w, row) for row in rows]) for rows in (rows_a, rows_b)
                )
                matrix += np.multiply.outer(coeff * means_a, means_b)
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
