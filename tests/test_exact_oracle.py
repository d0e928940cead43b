"""The strong-invariance check, the invariance check's ``sharp`` identity,
the family matrix and the pairing identity against the exact oracle of
``exact.py``.

For each trial, the oracle evaluates the identity on the exact inputs of the
trial in rational arithmetic. Two things must hold:

- **truth:** every exact residual is 0, so the identities the checks state
  are the theorem's;
- **budget:** every float residual the kernel reports is at most
  ``C[key] * n * u * scale``, where n is the size of the big space, u the
  unit roundoff and ``scale`` the oracle's rounding scale of the identity
  (B_lhs + B_rhs relative to the check's denominator; B is the identity's
  expression on absolute values).

Each constant C is a first-order count of the roundings on the longest path
through the identity (the marginal, the fiber weight, the products and
divisions and the sums), in units of n * u. Over the battery's draws and
boundary-pushed points the largest measured ratio is 0.40 (``isometry``).
A kernel whose scale is wrong, or whose metric is wrong, overshoots its
budget by orders of magnitude (``test_the_budget_catches_a_wrong_metric``).

The ``sharp`` residual of ``invariance_kernel``, g(#A, #B) = Cov(A, B) at p
and at q, is exact at every point; its budget is ``SHARP_C`` * n * u times
the oracle's relative scale, and E[AB] for the covariance overshoots it.

The family matrix of ``CandidateFamily.matrix_rows`` and the two sides of the
pairing identity of ``prop6_kernel`` have exact counterparts too, for every
grammar family: PK(k) for k in [-3, 5], L2, MM, COV and their sums. Their
truth is the invariant decomposition: for c1 L2 + c2 MM the indicator
matrix at a rational point p = counts / D, the matrix at the uniform point
of D outcomes on the lifted indicators and c1 diag(p) + c2 p p^T are equal,
and the two sides of the pairing are equal. Their budget holds each float
entry or side to its exact value within ``MATRIX_C`` or ``PROP6_C`` times
n * u * B, B the entry's or side's expression on absolute values.

The trials run at n <= 8, where ``Fraction`` arithmetic stays fast: the
battery's own draws at ``n_max`` 3 to 8, and points whose smallest weights
are pushed down to the ``Distribution`` floor of 1e-12.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from fishergeo import geometry, simplex, verify
from fishergeo.batteries import _draw_invariance, _draw_prop6, _draw_strong_invariance
from fishergeo.families import CandidateFamily, parse_family
from fishergeo.markov import apply_rows, canonical_embedding, pair_stacks, random_surjection
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace
from fishergeo.verify import invariance_kernel, strong_invariance_kernel
from frozen_pairs import arrays
from test_frozen_scalars import boundary_weights, values
from test_negative_controls import metric_over_p_power
from test_probe_stacks import COEFFS, prop6_case
from test_probe_stacks import FAMILIES as GRAMMAR
from test_strong_invariance_kernel import boundary_point, columns

#: The unit roundoff of IEEE double precision.
U = 2.0**-53

#: The budget constant of each identity, in units of n * u * scale.
C = {
    "adjoint": 2,
    "projector_idempotent": 5,
    "projector_self_adjoint": 2,
    "projector_fixes_image": 5,
    "section": 2,
    "isometry": 4,
    "coisometry": 2,
    "covariance_identity": 6,
}


def oracle(case: dict) -> dict:
    """The oracle's (exact residual, scale) of each identity at an array case."""
    return exact.strong_invariance(*(
        np.asarray(case[key]).tolist() for key in ("q", "surjection", "a", "b")
    ))


def overshoots(cases: list[dict]) -> dict[str, float]:
    """The largest float residual over its budget, per identity, after
    requiring every exact residual to be 0."""
    worst = dict.fromkeys(C, 0.0)
    for case, report in zip(cases, strong_invariance_kernel(**columns(cases))):
        n = len(case["q"])
        for key, (residual, scale) in oracle(case).items():
            assert residual == 0, key
            budget, value = C[key] * n * U * float(scale), report.residuals[key]
            worst[key] = max(worst[key], value / budget if budget else np.inf if value else 0.0)
    return worst


def within_budget(cases: list[dict]) -> None:
    worst = overshoots(cases)
    assert max(worst.values()) <= 1.0, worst


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(3, 8))
def test_battery_draws_are_exact_and_within_budget(seed, n_max):
    within_budget(_draw_strong_invariance(np.random.default_rng(seed), 20, n_max))


@st.composite
def boundary_cases(draw) -> dict:
    """A canonical pair at a point with up to three weights pushed down to
    10**-exponent, as low as 1.26e-12, and variables scaled by 1e-3..1e3."""
    n = draw(st.integers(2, 8), label="n")
    m = draw(st.integers(2, n), label="m")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    q = boundary_point(n, seed, draw(st.floats(1.0, 11.9), label="exponent"), draw(st.integers(0, 3)))
    rng = np.random.default_rng(seed + 1)
    a, b = (rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3) for size in (m, n))
    return arrays("strong_invariance", {
        "pair": canonical_embedding(random_surjection(n, m, seed=seed), q), "q": q,
        "a": RandomVariable(SampleSpace(m), a), "b": RandomVariable(SampleSpace(n), b),
    })


@settings(max_examples=100, deadline=None)
@given(st.lists(boundary_cases(), min_size=1, max_size=4))
def test_boundary_points_are_exact_and_within_budget(cases):
    within_budget(cases)


@pytest.mark.parametrize("power", [0, 2])
def test_the_budget_catches_a_wrong_metric(monkeypatch, power):
    """Under either metric mutant of the negative controls, the oracle's
    budget is overshot by more than a factor 1e6 on a battery draw."""
    mutant = metric_over_p_power(power)
    monkeypatch.setattr(geometry, "fisher_metric_rows", mutant)
    monkeypatch.setattr(verify, "fisher_metric_rows", mutant)
    worst = overshoots(_draw_strong_invariance(np.random.default_rng(0), 20, 8))
    assert max(worst.values()) > 1e6


def test_boundary_residuals_do_not_grow_with_one_over_min_p():
    """200 canonical pairs per size and floor, each with one weight pinned at
    the floor: the worst residual stays at rounding level down to 2e-12.
    With Gram-Schmidt bases it grew like 1/min p, to 8.8e-11 at n = 8."""
    for n in (8, 16):
        for pin in (1e-4, 1e-8, 2e-12):
            rng = np.random.default_rng(0)
            cases = []
            for _ in range(200):
                w = rng.dirichlet(np.ones(n))
                low = rng.integers(n)
                w[low] = 0.0
                w *= (1.0 - pin) / w.sum()
                w[low] = pin
                m = int(rng.integers(2, n))
                q = Distribution(SampleSpace(n), w)
                cases.append(arrays("strong_invariance", {
                    "pair": canonical_embedding(random_surjection(n, m, seed=int(rng.integers(2**31))), q),
                    "q": q, "a": RandomVariable(SampleSpace(m), rng.normal(size=m)),
                    "b": RandomVariable(SampleSpace(n), rng.normal(size=n)),
                }))
            worst = max(r.max_residual for r in strong_invariance_kernel(**columns(cases)))
            assert worst <= 1e-13, (n, pin, worst)


# ---------------------------------------------------------------------------
# The co-metric as the dual of the metric: the invariance check's ``sharp``
# ---------------------------------------------------------------------------

#: The budget constant of g(#A, #B) = Cov(A, B), in units of n * u * scale:
#: each side centers, multiplies and sums over n outcomes twice.
SHARP_C = 4


def sharp_budget(case: dict) -> float:
    """The budget of an invariance case's ``sharp`` residual, the larger of
    its two points', after requiring the exact residual to be 0 at both: p,
    the marginal as the kernel computes it, with a and b, and q with a o F
    and b o F."""
    ((_, maps, _, psi, q),) = pair_stacks([case["surjection"]], [case["fibers"]], [case["q"]])
    a, b = (np.asarray(case[key], dtype=float) for key in "ab")
    budgets = []
    for w, sides in ((apply_rows(psi, q)[0], (a, b)), (q[0], (a[maps[0]], b[maps[0]]))):
        residual, scale = exact.sharp_covariance(w.tolist(), *(v.tolist() for v in sides))
        assert residual == 0
        budgets.append(SHARP_C * len(w) * U * float(scale))
    return max(budgets)


def sharp_overshoot(cases: list[dict]) -> float:
    """The largest ``sharp`` residual of ``invariance_kernel`` over its budget."""
    return max(report.residuals["sharp"] / sharp_budget(case)
               for case, report in zip(cases, invariance_kernel(**columns(cases))))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(3, 8), scaled=st.booleans())
def test_the_sharp_identity_is_exact_and_within_budget(seed, n_max, scaled):
    """The battery's draws, with a and b scaled by 1e-3..1e3 when ``scaled``:
    the largest ratio measured was 0.062 (README headroom table)."""
    rng = np.random.default_rng(seed)
    cases = _draw_invariance(rng, 20, n_max)
    if scaled:
        for case in cases:
            case["a"], case["b"] = (case[key] * 10.0 ** rng.uniform(-3, 3) for key in "ab")
    assert sharp_overshoot(cases) <= 1.0


def test_the_sharp_budget_catches_the_uncentered_covariance(monkeypatch):
    """With E[AB] for Cov(A, B) in the kernel, the budget is overshot by more
    than a factor 1e6 on a battery draw."""
    monkeypatch.setattr(verify, "cov_rows", lambda w, a, b: simplex.expect_rows(w, a * b))
    assert sharp_overshoot(_draw_invariance(np.random.default_rng(0), 20, 8)) > 1e6


# ---------------------------------------------------------------------------
# The family matrix and the pairing identity
# ---------------------------------------------------------------------------


#: The budget constant of a family-matrix entry: a PK(k) term rounds its
#: power, its two products, its n-term sum, its coefficient and its addition,
#: n + 5 times, and up to six terms are added: at most 7n for n >= 2.
MATRIX_C = 7
#: The budget constant of each side of the pairing: the conditional
#: expectation (n), the centering (m + 1) and the family matrix (n + 5), at
#: most 4n roundings for n >= 3 > m.
PROP6_C = 4

#: The invariant families c1 L2 + c2 MM, written with COV and repeated atoms too.
INVARIANT = st.lists(
    st.tuples(COEFFS, st.sampled_from(["L2", "MM", "COV", "PK(1)"])), min_size=1, max_size=3
).map(lambda terms: parse_family(" + ".join(c + a for c, a in terms)))


def budget_ratio(residual: exact.Fraction, bound: exact.Fraction, constant: int, n: int) -> float:
    budget = constant * n * U * bound
    return float(residual / budget) if budget else (np.inf if residual else 0.0)


def matrix_overshoot(family: CandidateFamily, w: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray,
                     terms=None) -> float:
    """The largest |float - exact| over its budget, over the entries of
    ``matrix_rows`` at a stack; the exact entries are those of ``terms``,
    by default the family's."""
    floats = family.matrix_rows(w, rows_a, rows_b)
    entries = exact.matrix_rows(terms or family.terms, w.tolist(), rows_a.tolist(), rows_b.tolist())
    return max(
        budget_ratio(abs(exact.Fraction(float(value)) - entry.value), entry.bound, MATRIX_C, w.shape[1])
        for matrix, exact_matrix in zip(floats, entries)
        for row, exact_row in zip(matrix, exact_matrix)
        for value, entry in zip(row, exact_row)
    )


@st.composite
def probe_stacks(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack as the probe evaluates it: the unit rows at rational points
    counts / D with D <= 64, the unit rows of m <= 6 points lifted through a
    partition of at most 12 outcomes at its uniform point, or Gaussian rows
    at flat Dirichlet points (the bilinearity and ii1 checks)."""
    n = draw(st.integers(2, 8), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    count = draw(st.integers(1, 3), label="T")
    kind = draw(st.sampled_from(["units", "lifts", "gaussian"]), label="kind")
    if kind == "units":
        w = np.array([rational_weights(rng, n, int(rng.integers(n, 65))) for _ in range(count)])
        rows = np.broadcast_to(np.eye(n), (count, n, n)).copy()
        return w, rows, rows
    if kind == "lifts":
        m = min(n, 6)
        map0 = np.repeat(np.arange(m), rng.multinomial(int(rng.integers(m, 13)) - m, np.full(m, 1.0 / m)) + 1)
        rows = np.eye(m)[None, :, map0]
        return np.full((1, map0.size), 1.0 / map0.size), rows, rows
    w = np.array([verify._flatten_dirichlet(rng, n) for _ in range(count)])
    return w, rng.normal(size=(count, 3, n)), rng.normal(size=(count, 1, n))


def rational_weights(rng: np.random.Generator, n: int, denominator: int) -> np.ndarray:
    """A rational point counts / D on n outcomes, drawn as ``characterize`` draws it."""
    return (rng.multinomial(denominator - n, np.full(n, 1.0 / n)) + 1) / denominator


@st.composite
def boundary_stacks(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1 to 3 points of 2 to 8 outcomes with up to three weights pushed down
    to about 1e-9, and Gaussian rows scaled by 1e-5..1e5 or the unit rows."""
    n = draw(st.integers(2, 8), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    count, pushed = draw(st.integers(1, 3), label="T"), draw(st.integers(0, 3), label="pushed")
    w = np.array([boundary_weights(rng, n, pushed) for _ in range(count)])
    rows_a = values(rng, (count * 3, n)).reshape(count, 3, n)
    if draw(st.booleans(), label="units"):
        return w, rows_a, np.broadcast_to(np.eye(n), (count, n, n)).copy()
    return w, rows_a, values(rng, (count * 2, n)).reshape(count, 2, n)


@settings(max_examples=100, deadline=None)
@given(family=GRAMMAR, stack=st.one_of(probe_stacks(), boundary_stacks()))
def test_family_matrix_is_within_budget(family, stack):
    assert matrix_overshoot(family, *stack) <= 1.0


@settings(max_examples=40, deadline=None)
@given(family=INVARIANT, n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_the_invariant_decomposition_is_exact(family, n, seed):
    """For c1 L2 + c2 MM at a rational point p = counts / D, D <= 64: the
    indicator matrix, the uniform D-point's matrix on the indicators lifted
    through the partition by counts, and c1 diag(p) + c2 p p^T are equal."""
    rng = np.random.default_rng(seed)
    denominator = int(rng.integers(n, 65))
    counts = rng.multinomial(denominator - n, np.full(n, 1.0 / n)) + 1
    p = [exact.Fraction(int(c), denominator) for c in counts]
    lifts = np.eye(n)[:, np.repeat(np.arange(n), counts)].tolist()
    uniform = [exact.Fraction(1, denominator)] * denominator
    (at_p,), (lifted,) = (
        exact.matrix_rows(family.terms, [point], [rows], [rows])
        for point, rows in ((p, np.eye(n).tolist()), (uniform, lifts))
    )
    c1 = sum(exact.Fraction(c) for c, kind, _ in family.terms if kind == "PK")
    c2 = sum(exact.Fraction(c) for c, kind, _ in family.terms if kind == "MM")
    closed = [[c1 * p[i] * (i == j) + c2 * p[i] * p[j] for j in range(n)] for i in range(n)]
    assert [[entry.value for entry in row] for row in at_p] == closed
    assert [[entry.value for entry in row] for row in lifted] == closed


@pytest.mark.parametrize("mutate", [
    lambda c, kind, k: (c, kind, k + 1 if kind == "PK" else k),
    lambda c, kind, k: (c * (1.0 + 2.0**-30), kind, k),
], ids=["exponent", "coefficient"])
def test_the_budget_catches_a_mutated_family_term(mutate):
    """A term evaluated with its exponent one too high, or its coefficient
    off by 2**-30, overshoots the budget of the probe's indicator matrices
    by more than a factor 1e3."""
    family = parse_family("2*PK(-2) + MM")
    mutant = CandidateFamily("mutant", tuple(mutate(*term) for term in family.terms))
    rng = np.random.default_rng(0)
    w = np.array([rational_weights(rng, 6, 60) for _ in range(3)])
    units = np.broadcast_to(np.eye(6), (3, 6, 6)).copy()
    assert matrix_overshoot(mutant, w, units, units, family.terms) > 1e3


def invariant(family: CandidateFamily) -> bool:
    """Whether the family is c1 L2 + c2 MM: every PK(k) with k != 1 has total coefficient 0."""
    totals: dict[int, exact.Fraction] = {}
    for c, kind, k in family.terms:
        if kind == "PK" and k != 1:
            totals[k] = totals.get(k, 0) + exact.Fraction(c)
    return not any(totals.values())


def pairing_overshoot(cases: list[dict]) -> float:
    """The largest float side over its budget. For an invariant family, the
    exact canonical trial's sides must be equal and the float residual is
    held to the budget of both sides."""
    worst = 0.0
    for case, report in zip(cases, verify.prop6_kernel(**columns(cases))):
        inputs = [np.asarray(case[key]).tolist() for key in ("surjection", "fibers", "p", "a", "b")]
        terms, n = case["family"].terms, len(inputs[0])
        lhs, rhs = exact.prop6(*inputs, terms)
        for value, side in ((report.lhs, lhs), (report.rhs, rhs)):
            worst = max(worst, budget_ratio(abs(exact.Fraction(value) - side.value), side.bound, PROP6_C, n))
        if invariant(case["family"]):
            canonical_lhs, canonical_rhs = exact.prop6(*exact.canonical_trial(*inputs), terms)
            assert canonical_lhs.value == canonical_rhs.value
            gap = exact.Fraction(report.residual)
            worst = max(worst, budget_ratio(gap, lhs.bound + rhs.bound, PROP6_C, n))
    return worst


@settings(max_examples=30, deadline=None)
@given(family=st.one_of(GRAMMAR, INVARIANT), seed=st.integers(0, 2**32 - 1), n_max=st.integers(3, 8))
def test_pairing_draws_are_exact_and_within_budget(family, seed, n_max):
    cases = _draw_prop6(np.random.default_rng(seed), rounds=10, n_max=n_max, family=family)
    assert pairing_overshoot(cases) <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    family=st.one_of(GRAMMAR, INVARIANT),
    trials=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(1, 3)), min_size=1, max_size=4
    ),
)
def test_pairing_boundary_points_are_exact_and_within_budget(family, trials):
    """Canonical pairs, points and variables with up to three weights pushed
    near 1e-9 and values scaled by 1e-5..1e5."""
    cases = [prop6_case(seed, n_max, pushed, family) for seed, n_max, pushed in trials]
    assert pairing_overshoot(cases) <= 1.0


def test_the_budget_catches_a_mutated_pairing(monkeypatch):
    """With the conditional expectations 1e-9 too large, both sides of the
    covariance scale alike, so every trial still passes the identity, but
    each side overshoots its budget by more than a factor 1e3."""
    rows = verify.conditional_expectation_rows
    monkeypatch.setattr(verify, "conditional_expectation_rows", lambda k, v: rows(k, v) * (1.0 + 1e-9))
    cases = _draw_prop6(np.random.default_rng(0), rounds=20, n_max=8, family=parse_family("COV"))
    assert all(report.passed for report in verify.prop6_kernel(**columns(cases)))
    assert pairing_overshoot(cases) > 1e3


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["rational", "irrational"]), bound=st.integers(-3, 300),
)
def test_rationalize_finds_the_exact_smallest_denominator(n, seed, kind, bound):
    """At rational points counts / D with D <= 200 and at flat Dirichlet
    points: the denominator and counts of the exact search, or NotRational
    when it finds none."""
    rng = np.random.default_rng(seed)
    if kind == "rational":
        w = rational_weights(rng, n, int(rng.integers(n, 201)))
    else:
        w = verify._flatten_dirichlet(rng, n)
    found = exact.rationalize(w.tolist(), bound, exact.Fraction(verify.RATIONAL_TOL))
    try:
        denominator, counts = verify.rationalize(Distribution(SampleSpace(n), w), bound)
    except verify.NotRational:
        assert found is None
    else:
        assert (denominator, counts.tolist()) == found


def test_the_exact_search_catches_a_loose_tolerance(monkeypatch):
    """With ``RATIONAL_TOL`` at 1e-2, ``rationalize`` takes a denominator (219)
    for an interior point that has none within 1e-9."""
    monkeypatch.setattr(verify, "RATIONAL_TOL", 1e-2)
    w = verify._flatten_dirichlet(np.random.default_rng(0), 4)
    assert exact.rationalize(w.tolist(), 300, exact.Fraction(1e-9)) is None
    assert verify.rationalize(Distribution(SampleSpace(4), w), 300)[0] == 219

