from __future__ import annotations

import numpy as np
import pytest

from fishergeo.families import FamilyParseError, parse_family
from fishergeo.simplex import RandomVariable, SampleSpace, cov, new_distribution

COV_FAMILY = parse_family("COV")
L2_FAMILY = parse_family("L2")
MM_FAMILY = parse_family("MM")


def dist(*weights: float):
    return new_distribution(SampleSpace(len(weights)), np.array(weights))


def rv(*values: float) -> RandomVariable:
    return RandomVariable(SampleSpace(len(values)), np.array(values))


def inner_l2(p, a: RandomVariable, b: RandomVariable) -> float:
    """Weighted L2 inner product sum(p(w) * A(w) * B(w))."""
    return float(np.dot(p.weights, a.values * b.values))


class TestParsing:
    def test_atoms(self):
        assert parse_family("COV").terms == ((1.0, "PK", 1), (-1.0, "MM", 0))
        assert parse_family("L2").terms == ((1.0, "PK", 1),)
        assert parse_family("MM").terms == ((1.0, "MM", 0),)
        assert parse_family("PK(2)").terms == ((1.0, "PK", 2),)

    def test_linear_combination(self):
        fam = parse_family("1*L2 + -1*MM")
        assert fam.terms == ((1.0, "PK", 1), (-1.0, "MM", 0))

    def test_coefficients(self):
        fam = parse_family("2*L2 + 5*MM")
        assert fam.terms == ((2.0, "PK", 1), (5.0, "MM", 0))

    def test_scaled_cov(self):
        fam = parse_family("3*COV")
        assert fam.terms == ((3.0, "PK", 1), (-3.0, "MM", 0))

    def test_bad_expressions(self):
        for expr in ("", "L3", "1**L2", "PK(x)", "L2 - MM"):
            with pytest.raises(FamilyParseError):
                parse_family(expr)

    @pytest.mark.parametrize(
        "expr, term",
        [("1e400*L2", "1e400*L2"), ("COV + -1e309*MM", "-1e309*MM"), ("2*L2 + 1E999*PK(2)", "1E999*PK(2)")],
    )
    def test_non_finite_coefficient_is_named(self, expr, term):
        """A coefficient that overflows to inf once parsed to a family whose
        probe constants were inf or NaN."""
        with pytest.raises(FamilyParseError) as raised:
            parse_family(expr)
        assert str(raised.value) == f"coefficient of term {term!r} is not a finite number"

    def test_largest_finite_coefficient_parses(self):
        assert parse_family("1.7976931348623157e308*L2").terms == ((1.7976931348623157e308, "PK", 1),)


class TestEvaluation:
    def test_cov_matches_simplex_cov(self):
        p = dist(0.25, 0.25, 0.5)
        a, b = rv(1, 1, 0), rv(1, 2, 3)
        assert COV_FAMILY(p, a, b) == pytest.approx(cov(p, a, b), abs=1e-15)

    def test_l2_matches_inner(self):
        p = dist(0.25, 0.25, 0.5)
        a, b = rv(1, 1, 0), rv(1, 2, 3)
        assert L2_FAMILY(p, a, b) == pytest.approx(inner_l2(p, a, b), abs=1e-15)

    def test_mm(self):
        p = dist(0.5, 0.5)
        assert MM_FAMILY(p, rv(1, 0), rv(0, 1)) == 0.25

    def test_pk2(self):
        fam = parse_family("PK(2)")
        p = dist(0.5, 0.5)
        assert fam(p, rv(1, 0), rv(1, 0)) == 0.25

    def test_combination_is_linear(self):
        fam = parse_family("2*L2 + 5*MM")
        p = dist(0.3, 0.7)
        a, b = rv(1, -1), rv(2, 0.5)
        expected = 2 * inner_l2(p, a, b) + 5 * (
            np.dot(p.weights, a.values) * np.dot(p.weights, b.values)
        )
        assert fam(p, a, b) == pytest.approx(expected, rel=1e-14)
