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

The grammar's arithmetic is written once, in ``CandidateFamily.matrix_rows``:
the matrix [h(p, A_i, B_j)] for variables given as the rows of A and B,

    sum_k c_k [sum_w p(w)^k A_i(w) B_j(w)]_ij + c_MM (A p)(B p)^T,

at each of a stack of points. ``matrix`` is it on a batch of one, and
calling a family on one pair reads the 1x1 entry. On the indicator rows
R the characterization probe pairs, it is the closed form
sum_k c_k diag(R p^k) + c_MM (R p)(R p)^T, the matrix form of the invariant
decomposition c1 diag(p) + c2 p p^T.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import FisherGeoError, SizeMismatch
from .simplex import Distribution, RandomVariable, expect_rows

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*\*)?\s*"
    r"(?P<atom>L2|MM|COV|PK\(\s*(?P<k>-?\d+)\s*\))\s*$"
)

#: Pair products ``matrix_rows`` holds at once (8 MB): at n = 240 outcomes, the
#: n x n indicator matrix of the probe is evaluated in blocks of 18 rows.
_BLOCK_FLOATS = 2**20


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
        """[self(p, A_i, B_j)] for random variables A_i, B_j given as rows:
        ``matrix_rows`` on a batch of one."""
        rows_a, rows_b = (np.ascontiguousarray(rows, dtype=float)[None] for rows in (rows_a, rows_b))
        return self.matrix_rows(p.weights[None], rows_a, rows_b)[0]

    def matrix_rows(self, w: np.ndarray, rows_a, rows_b) -> np.ndarray:
        """``matrix`` over a leading point axis: [self(p_t, A_ti, B_tj)] as
        (T, r, c), for weights ``w`` (T, n) and rows (T, r, n) and (T, c, n).

        Each term's ``coeff * T`` is added to a zeros stack in term order. A
        PK(k) term is the last-axis ``sum(p**k * (A_i * B_j))``; the MM term
        is ``(coeff * <A_i>) * <B_j>`` with the means from ``expect_rows``.
        The rows are made C-contiguous first: the row-wise sum over an
        F-ordered product rounds differently. The pair products are formed
        for a block of ``rows_a`` at a time, at most about ``_BLOCK_FLOATS``
        of them; each entry keeps its own sums, so the blocks do not move
        its bits. The weights are not checked.
        """
        rows_a, rows_b = (np.ascontiguousarray(rows, dtype=float) for rows in (rows_a, rows_b))
        for rows in (rows_a, rows_b):
            if rows.ndim != 3 or rows.shape[0] != len(w) or rows.shape[2] != w.shape[1]:
                raise SizeMismatch(f"expected rows of length {w.shape[1]}, got shape {rows.shape[1:]}")
        matrix = np.zeros((len(w), rows_a.shape[1], rows_b.shape[1]))
        step = _BLOCK_FLOATS // (rows_b.shape[1] * w.size or 1) or 1
        for start in range(0, rows_a.shape[1], step):
            part = slice(start, start + step)
            block, product = matrix[:, part], rows_a[:, part, None, :] * rows_b[:, None, :, :]
            for coeff, kind, k in self.terms:
                if kind == "PK":
                    block += coeff * (w[:, None, None, :] ** k * product).sum(axis=-1)
                else:
                    means_a, means_b = (expect_rows(w, rows) for rows in (rows_a, rows_b))
                    block += (coeff * means_a[:, part])[:, :, None] * means_b[:, None, :]
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
        if not math.isfinite(coeff):
            raise FamilyParseError(f"coefficient of term {raw.strip()!r} is not a finite number")
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
