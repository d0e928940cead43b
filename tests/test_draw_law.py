"""The batched draws of the batteries against the per-trial draws they
replaced, in law.

Every battery but ``characterize`` draws all its trials at once from the
battery's generator, so its stream differs from the old one, which seeded
one generator per drawn object. What must not differ is the law of each
trial. The old draws are kept here, frozen, and compared with the new ones:

- exactly, where the law is a rule: the size ranges, the floors of the
  points (1e-6), of the weak-invariance grids (0.02) and of the channel
  columns (``RANDOM_CHANNEL_FLOOR``), the column-major kernels, the shapes
  of the CRB noise, the weak-invariance order of alphas and size pairs, and
  the supports of the sizes drawn;
- by a two-sample Kolmogorov-Smirnov statistic, numpy only, on the rest: the
  sizes, the smallest weight, the surjections' fibers and orders, the CRB
  noise and scales, and one residual per battery, at fixed seeds.

Both CRB draws make their estimators through the same kernel, so that the
residuals, which are rounding in the equality case V = G^{-1}, compare the
draws and not two projections.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeo import batteries
from fishergeo.batteries import (
    _draw_channel_cases,
    _draw_crb,
    _draw_invariance,
    _draw_prop6,
    _draw_strong_invariance,
    _draw_weak_invariance,
    _size_pairs,
)
from fishergeo.families import parse_family
from fishergeo.geometry import TangentVector, delta
from fishergeo.markov import (
    RANDOM_CHANNEL_FLOOR,
    apply,
    canonical_embedding,
    random_channel,
    random_surjection,
    random_surjection_map,
)
from fishergeo.models import categorical_model, crb_kernel, unbiased_estimators_kernel
from fishergeo.simplex import RandomVariable, SampleSpace, sample_interior, sample_interior_weights
from fishergeo.verify import (
    invariance_kernel,
    monotonicity_cometric_kernel,
    monotonicity_metric_kernel,
    prop6_kernel,
    strong_invariance_kernel,
    weak_invariance_residual_kernel,
)
from frozen_pairs import arrays

#: The floor of ``sample_interior``, which the drawn points keep.
POINT_FLOOR = 1e-6
#: The floor of a weak-invariance grid point.
GRID_FLOOR = 0.02
#: Trials per side of each comparison in law.
TRIALS = 2000
#: Significance of each KS comparison at its fixed seed.
KS_ALPHA = 1e-4

# ---------------------------------------------------------------------------
# The per-trial draws, frozen: one generator seeded per drawn object
# ---------------------------------------------------------------------------


def frozen_random_sum_zero(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=n)
    return m - m.mean()


def frozen_random_variable(rng: np.random.Generator, space: SampleSpace) -> RandomVariable:
    return RandomVariable(space, rng.normal(size=space.size))


def frozen_channel_case(rng: np.random.Generator, n_max: int, key: str) -> dict:
    n_in = int(rng.integers(2, n_max + 1))
    n_out = int(rng.integers(2, n_max + 1))
    channel = random_channel(n_in, n_out, seed=int(rng.integers(2**32)))
    p = sample_interior(channel.in_space, seed=int(rng.integers(2**32)))
    if key == "x":
        return {"channel": channel, "p": p, "x": TangentVector(p, frozen_random_sum_zero(rng, n_in))}
    return {"channel": channel, "p": p, "a": frozen_random_variable(rng, channel.out_space)}


def channel_arrays(case: dict) -> dict:
    """A channel case of objects taken apart into the arrays the new draws yield."""
    vector = {"x": case["x"].m_rep} if "x" in case else {"a": case["a"].values}
    return {"kernel": case["channel"].kernel, "p": case["p"].weights, **vector}


def frozen_random_pair(rng: np.random.Generator, n_max: int):
    n_big = int(rng.integers(3, n_max + 1))
    n_small = int(rng.integers(2, n_big))
    surjection = random_surjection(n_big, n_small, seed=int(rng.integers(2**32)))
    q = sample_interior(SampleSpace(n_big), seed=int(rng.integers(2**32)))
    return canonical_embedding(surjection, q), q


def frozen_invariance(rng: np.random.Generator, n_max: int) -> dict:
    pair, q = frozen_random_pair(rng, n_max)
    small = pair.surjection.codomain
    return {
        "pair": pair, "q": q,
        "a": frozen_random_variable(rng, small), "b": frozen_random_variable(rng, small),
        "x_m_rep": frozen_random_sum_zero(rng, small.size),
        "y_m_rep": frozen_random_sum_zero(rng, small.size),
    }


def frozen_strong_invariance(rng: np.random.Generator, n_max: int) -> dict:
    pair, q = frozen_random_pair(rng, n_max)
    a = frozen_random_variable(rng, pair.surjection.codomain)
    return {"pair": pair, "q": q, "a": a, "b": frozen_random_variable(rng, q.space)}


def frozen_prop6(rng: np.random.Generator, n_max: int, family) -> dict:
    pair, _ = frozen_random_pair(rng, n_max)
    p = sample_interior(pair.surjection.codomain, seed=int(rng.integers(2**32)))
    alpha = delta(p, frozen_random_variable(rng, p.space))
    q_img = apply(pair.embedding_channel, p)
    beta = delta(q_img, frozen_random_variable(rng, q_img.space))
    return {"pair": pair, "p": p, "alpha": alpha, "beta": beta, "family": family}


# ---------------------------------------------------------------------------
# The batteries: their draws, old and new, and what each case reads
# ---------------------------------------------------------------------------


def columns(cases: list[dict]) -> dict[str, list]:
    return {key: [case[key] for case in cases] for key in cases[0]}


def residuals(kernel, field: str, cases: list[dict]) -> list[float]:
    return [getattr(report, field) for report in kernel(**columns(cases))]


def channel_sizes(case: dict) -> tuple[int, int]:
    n_out, n_in = case["kernel"].shape
    return n_in, n_out


def pair_sizes(case: dict) -> tuple[int, int]:
    return len(case["surjection"]), len(case["fibers"])


def channel_points(case: dict) -> list[np.ndarray]:
    return [case["p"]]


def pair_points(case: dict) -> list[np.ndarray]:
    return [case[key] for key in ("q", "p") if key in case]


PK2 = parse_family("PK(2)")

#: name: (n_max, old draw of one trial, new draw of a batch, sizes of a case,
#: points of a case, residuals of the cases)
BATTERIES = {
    "monotonicity_metric": (
        6, partial(frozen_channel_case, key="x"), partial(_draw_channel_cases, key="x"),
        channel_sizes, channel_points, partial(residuals, monotonicity_metric_kernel, "slack"),
    ),
    "monotonicity_cometric": (
        6, partial(frozen_channel_case, key="a"), partial(_draw_channel_cases, key="a"),
        channel_sizes, channel_points, partial(residuals, monotonicity_cometric_kernel, "slack"),
    ),
    "invariance": (
        8, frozen_invariance, _draw_invariance, pair_sizes, pair_points,
        partial(residuals, invariance_kernel, "max_residual"),
    ),
    "strong_invariance": (
        8, frozen_strong_invariance, _draw_strong_invariance, pair_sizes, pair_points,
        partial(residuals, strong_invariance_kernel, "max_residual"),
    ),
    "prop6": (
        6, partial(frozen_prop6, family=PK2), partial(_draw_prop6, family=PK2),
        pair_sizes, pair_points, partial(residuals, prop6_kernel, "residual"),
    ),
}


def frozen_cases(name: str, seed: int, trials: int) -> list[dict]:
    """The old draws, each case taken apart into the arrays the new draws yield."""
    n_max, old, *_ = BATTERIES[name]
    rng = np.random.default_rng(seed)
    cases = [old(rng, n_max) for _ in range(trials)]
    return [channel_arrays(case) if name.startswith("monotonicity") else arrays(name, case) for case in cases]


def batched_cases(name: str, seed: int, trials: int) -> list[dict]:
    n_max, _, new, *_ = BATTERIES[name]
    return new(np.random.default_rng(seed), rounds=trials, n_max=n_max)


# ---------------------------------------------------------------------------
# Exact: sizes and floors
# ---------------------------------------------------------------------------


class BoundaryDirichlet:
    """A generator whose flat Dirichlet draws sit on the boundary of their
    support: the smallest entry of each row (the first, with ``first``) is
    set to 0 and the others are scaled to keep the sum. Every other draw is
    the wrapped generator's."""

    def __init__(self, rng: np.random.Generator, first: bool = False):
        self._rng = rng
        self._first = first

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def dirichlet(self, alpha, size=None):
        rows = self._rng.dirichlet(alpha, size=size)
        flat = rows.reshape(-1, rows.shape[-1])
        smallest = np.zeros(len(flat), dtype=int) if self._first else flat.argmin(axis=1)
        flat[np.arange(len(flat)), smallest] = 0.0
        flat /= flat.sum(axis=1, keepdims=True)
        return rows


def check_sizes_and_floors(name: str, cases: list[dict], n_max: int) -> None:
    for case in cases:
        if name.startswith("monotonicity"):
            n_in, n_out = channel_sizes(case)
            assert 2 <= n_in <= n_max and 2 <= n_out <= n_max
            kernel = case["kernel"]
            assert kernel.flags.f_contiguous
            # each column is flattened from the boundary: its smallest entry is the floor
            assert kernel.min(axis=0).tolist() == [RANDOM_CHANNEL_FLOOR] * n_in
            assert case["p"].min() == POINT_FLOOR
        else:
            n, m = pair_sizes(case)
            assert 3 <= n <= n_max and 2 <= m < n
            # prop6 keeps its small point p, the others their big point q
            for w in pair_points(case):
                assert w.min() == POINT_FLOOR


@pytest.mark.parametrize("name", sorted(BATTERIES))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(3, 9), trials=st.integers(1, 40))
def test_sizes_and_floors_exactly(name, seed, n_max, trials):
    """Every trial's sizes lie in the battery's range, and a Dirichlet draw
    on the boundary of its support is flattened onto the floor exactly, as
    ``sample_interior`` and ``random_channel`` flatten theirs."""
    new = BATTERIES[name][2]
    cases = new(BoundaryDirichlet(np.random.default_rng(seed)), rounds=trials, n_max=n_max)
    assert len(cases) == trials
    check_sizes_and_floors(name, cases, n_max)


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_sizes_drawn_are_the_old_ones(name):
    """At a fixed seed, the old and the new draws give the same set of sizes:
    every size pair of the range, and no other."""
    sizes = BATTERIES[name][3]
    old = {sizes(case) for case in frozen_cases(name, 11, 600)}
    new = {sizes(case) for case in batched_cases(name, 11, 600)}
    assert old == new


# ---------------------------------------------------------------------------
# In law: two-sample Kolmogorov-Smirnov statistics
# ---------------------------------------------------------------------------


def ks_statistic(x, y) -> float:
    """sup |F_x - F_y| of the two empirical distribution functions."""
    x, y = np.sort(np.asarray(x, dtype=float)), np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def ks_bound(n: int, m: int, alpha: float = KS_ALPHA) -> float:
    """The asymptotic critical value of the statistic at level ``alpha``
    (conservative for samples with ties)."""
    return float(np.sqrt(-np.log(alpha / 2.0) / 2.0) * np.sqrt((n + m) / (n * m)))


def test_ks_statistic_tells_laws_apart():
    rng = np.random.default_rng(0)
    same = ks_statistic(rng.normal(size=TRIALS), rng.normal(size=TRIALS))
    shifted = ks_statistic(rng.normal(size=TRIALS), rng.normal(0.2, size=TRIALS))
    assert same < ks_bound(TRIALS, TRIALS) < shifted
    assert ks_statistic([0, 1, 1, 2], [0, 1, 1, 2]) == 0.0
    assert ks_statistic([0, 0], [1, 1]) == 1.0


def statistics(name: str, cases: list[dict]) -> dict[str, list[float]]:
    _, _, _, sizes, points, read = BATTERIES[name]
    stats = {
        "first_size": [sizes(case)[0] for case in cases],
        "second_size": [sizes(case)[1] for case in cases],
        "smallest_weight": [min(w.min() for w in points(case)) for case in cases],
        "residual": read(cases),
    }
    if name.startswith("monotonicity"):
        stats["smallest_kernel_entry"] = [case["kernel"].min() for case in cases]
    else:
        maps = [np.asarray(case["surjection"]).tolist() for case in cases]
        stats["first_fiber"] = [row.count(0) for row in maps]
        stats["first_position_of_0"] = [row.index(0) for row in maps]
    return stats


@pytest.mark.parametrize("name, seed", [(name, 101 + i) for i, name in enumerate(sorted(BATTERIES))])
def test_draws_agree_in_law(name, seed):
    """At a fixed seed, every statistic of the new draw is within the KS bound
    of the old draw's."""
    old = statistics(name, frozen_cases(name, seed, TRIALS))
    new = statistics(name, batched_cases(name, seed, TRIALS))
    bound = ks_bound(TRIALS, TRIALS)
    distances = {key: ks_statistic(old[key], new[key]) for key in old}
    assert {key: d for key, d in distances.items() if d > bound} == {}


# ---------------------------------------------------------------------------
# crb and weak_invariance: the per-object draws, frozen, and the block draws
# ---------------------------------------------------------------------------


def frozen_crb_case(rng: np.random.Generator, n_max: int) -> dict:
    """One crb trial of the draw that seeded a generator per point: its size,
    its point from ``sample_interior`` and, per estimator, a ``normal`` noise
    row and a ``uniform(0, 2)`` scale."""
    n = int(rng.integers(2, n_max + 1))
    model = categorical_model(n)
    xi = sample_interior(model.space, seed=int(rng.integers(2**32))).weights[: n - 1]
    rows, scales = [], []
    for _ in range(n - 1):
        rows.append(rng.normal(size=n))
        scales.append(rng.uniform(0, 2))
    return {"model": model, "xi": xi, "noise": np.array(rows), "scale": np.array(scales)}


def frozen_crb(rng: np.random.Generator, rounds: int, n_max: int) -> list[dict]:
    cases = [frozen_crb_case(rng, n_max) for _ in range(rounds)]
    estimators = unbiased_estimators_kernel(
        [case["model"] for case in cases], [case["xi"] for case in cases],
        [(case["noise"], case["scale"]) for case in cases],
    )
    return [{**case, "estimators": e} for case, e in zip(cases, estimators)]


def batched_crb(rng, rounds: int, n_max: int) -> list[dict]:
    """The battery's crb draw, each case with the noise rows and scales that
    the draw hands to the estimator kernel."""
    noise = []

    def kernel(models, xis, trial_noise):
        noise.extend(trial_noise)
        return unbiased_estimators_kernel(models, xis, trial_noise)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batteries, "unbiased_estimators_kernel", kernel)
        cases = _draw_crb(rng, rounds, n_max)
    return [{**case, "noise": z, "scale": scale} for case, (z, scale) in zip(cases, noise)]


def frozen_weak_invariance(rng: np.random.Generator, n_max: int, alphas, grid_count: int, step: float,
                           mismatched: bool) -> list[dict]:
    """The weak-invariance draw that seeded a generator per object: trial t
    runs the t-th (alpha, size pair), alpha-major, on a map from
    ``random_surjection_map``, q from ``sample_interior_weights`` and each
    grid point at the floor 0.02."""
    sizes, cases = _size_pairs(n_max), []
    for t in range(len(sizes) * len(alphas)):
        m, n = sizes[t % len(sizes)]
        surjection = random_surjection_map(n, m, seed=int(rng.integers(2**32)))
        q = sample_interior_weights(n, seed=int(rng.integers(2**32)))
        grid = [sample_interior_weights(m, int(rng.integers(2**32)), GRID_FLOOR)[: m - 1] for _ in range(grid_count)]
        cases.append({"surjection": surjection, "q": q, "alpha": alphas[t // len(sizes)], "grid": grid,
                      "step": step, "mismatched": mismatched})
    return cases


def weak_keys(case: dict) -> tuple:
    """What a weak-invariance trial runs on besides its draws: alpha, (m, n), step and polarity."""
    return (case["alpha"], int(np.max(case["surjection"])) + 1, len(case["q"]), case["step"], case["mismatched"])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 12), n_max=st.integers(2, 6))
def test_crb_draws_are_the_object_draws_in_rule(seed, rounds, n_max):
    """The block draw's sizes lie in [2, n_max], its noise rows and scales
    have the old shapes (n - 1, n) and (n - 1,), its scales lie in [0, 2),
    its estimators are the kernel's on that noise, and a Dirichlet draw on
    the boundary of its support is flattened onto the floor exactly."""
    cases = batched_crb(BoundaryDirichlet(np.random.default_rng(seed), first=True), rounds, n_max)
    assert len(cases) == rounds
    for case in cases:
        n = case["model"].space.size
        assert 2 <= n <= n_max and case["model"].dim == n - 1
        assert case["noise"].shape == (n - 1, n) and case["scale"].shape == (n - 1,)
        assert 0.0 <= case["scale"].min() and case["scale"].max() < 2.0
        assert case["xi"][0] == POINT_FLOOR and case["xi"].min() == POINT_FLOOR
    estimators = unbiased_estimators_kernel(
        [case["model"] for case in cases], [case["xi"] for case in cases],
        [(case["noise"], case["scale"]) for case in cases],
    )
    for case, expected in zip(cases, estimators):
        assert [a.values.tobytes() for a in case["estimators"]] == [a.values.tobytes() for a in expected]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n_max=st.integers(3, 7),
    alphas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3), grid_count=st.integers(1, 3),
    mismatched=st.booleans(),
)
def test_weak_invariance_draws_are_the_object_draws_in_rule(seed, n_max, alphas, grid_count, mismatched):
    """The block draw runs the old draw's alphas and size pairs in the old
    order, on integer surjections onto m, with q on n points and grid_count
    grid points on m - 1 coordinates, each flattened onto its floor exactly
    from the boundary of the Dirichlet support."""
    params = {"n_max": n_max, "alphas": alphas, "grid_count": grid_count, "step": 1e-4, "mismatched": mismatched}
    new = _draw_weak_invariance(BoundaryDirichlet(np.random.default_rng(seed), first=True), **params)
    old = frozen_weak_invariance(np.random.default_rng(seed), **params)
    assert [weak_keys(case) for case in new] == [weak_keys(case) for case in old]
    for case in new:
        _, m, n, _, _ = weak_keys(case)
        assert case.keys() == old[0].keys()
        assert np.asarray(case["surjection"]).dtype.kind == "i"
        assert sorted(set(np.asarray(case["surjection"]).tolist())) == list(range(m))
        assert case["q"][0] == POINT_FLOOR and case["q"].min() == POINT_FLOOR
        grid = np.asarray(case["grid"])
        assert grid.shape == (grid_count, m - 1)
        assert (grid[:, 0] == GRID_FLOOR).all() and grid.min() == GRID_FLOOR


def test_crb_sizes_drawn_are_the_old_ones():
    old = {case["model"].space.size for case in frozen_crb(np.random.default_rng(11), 200, 4)}
    new = {case["model"].space.size for case in batched_crb(np.random.default_rng(11), 200, 4)}
    assert old == new == {2, 3, 4}


#: The weak-invariance config of the comparison in law: the 6 size pairs of
#: n_max 5, each under 334 alphas, 2004 trials; the draw does not read alpha.
WEAK = {
    "n_max": 5, "alphas": tuple(np.linspace(-1.0, 1.0, 334)), "grid_count": 1, "step": 1e-4,
    "mismatched": False,
}


def crb_statistics(cases: list[dict]) -> dict[str, list[float]]:
    reports = crb_kernel(*([case[key] for case in cases] for key in ("model", "xi", "estimators")))
    return {
        "size": [case["model"].space.size for case in cases],
        "smallest_weight": [case["xi"].min() for case in cases],
        "first_noise": [case["noise"][0, 0] for case in cases],
        "last_noise": [case["noise"][-1, -1] for case in cases],
        "first_scale": [case["scale"][0] for case in cases],
        "last_scale": [case["scale"][-1] for case in cases],
        "residual": [report.scaled_residual for report in reports],
    }


def weak_statistics(cases: list[dict]) -> dict[str, list[float]]:
    maps = [np.asarray(case["surjection"]).tolist() for case in cases]
    residuals = weak_invariance_residual_kernel(**columns(cases))
    return {
        "smallest_weight": [case["q"].min() for case in cases],
        "smallest_grid_entry": [np.min(case["grid"]) for case in cases],
        "first_fiber": [row.count(0) for row in maps],
        "first_position_of_0": [row.index(0) for row in maps],
        "residual": residuals,
    }


@pytest.mark.parametrize("name, seed", [("crb", 201), ("weak_invariance", 202)])
def test_the_block_draws_agree_with_the_object_draws_in_law(name, seed):
    """At a fixed seed, every statistic of the block draw is within the KS
    bound of the per-object draw's."""
    if name == "crb":
        old = crb_statistics(frozen_crb(np.random.default_rng(seed), TRIALS, 4))
        new = crb_statistics(batched_crb(np.random.default_rng(seed), TRIALS, 4))
    else:
        old = weak_statistics(frozen_weak_invariance(np.random.default_rng(seed), **WEAK))
        new = weak_statistics(_draw_weak_invariance(np.random.default_rng(seed), **WEAK))
    bound = ks_bound(len(old["residual"]), len(new["residual"]))
    distances = {key: ks_statistic(old[key], new[key]) for key in old}
    assert {key: d for key, d in distances.items() if d > bound} == {}
