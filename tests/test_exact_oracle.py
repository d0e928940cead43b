"""The strong-invariance check against the exact oracle of ``exact.py``.

For each trial, the oracle evaluates the eight identities on the exact
canonical pair of the trial's point in rational arithmetic. Two things must
hold:

- **truth:** every exact residual is 0, so the identities the check states
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
from fishergeo import geometry, verify
from fishergeo.batteries import _draw_strong_invariance
from fishergeo.markov import canonical_embedding, random_surjection
from fishergeo.simplex import Distribution, RandomVariable, SampleSpace
from fishergeo.verify import strong_invariance_kernel
from frozen_pairs import arrays
from test_negative_controls import metric_over_p_power
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
