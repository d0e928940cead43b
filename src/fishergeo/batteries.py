"""Randomized verification batteries with deterministic aggregation.

Every battery is a draw function run through one trial driver. The driver
draws each case from a single seeded generator, evaluates it with a
single-case check from :mod:`fishergeo.verify`, and tracks the worst residual
in trial order. Violations are first minimized by greedy shrinking (reduce
the sample space, then the vector support) and then recorded as witnesses,
each tagged with (seed, trial) so the exact case can be regenerated.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .errors import FisherGeoError, InvalidParameter
from .families import CandidateFamily, parse_family
from .geometry import TangentVector, delta
from .markov import Channel, apply, canonical_embedding, random_channel, random_surjection
from .models import categorical_model, crb_check, unbiased_estimators
from .simplex import RandomVariable, SampleSpace, new_distribution, sample_interior
from .verify import (
    PASS_TOL,
    STRONG_INVARIANCE_TOL,
    VIOLATION_TOL,
    Witness,
    characterize,
    check_invariance,
    check_monotonicity_cometric,
    check_monotonicity_metric,
    check_prop6_identity,
    check_strong_invariance,
    classify,
    weak_invariance_residual,
)

#: CRB battery verdicts tolerate eigenvalues of V - G^{-1} down to this.
CRB_EIG_TOL = -1e-8


@dataclass(frozen=True)
class BatteryReport:
    battery: str
    trials: int
    n_max: int
    seed: int
    max_residual: float
    status: str
    witnesses: tuple[Witness, ...]
    extras: dict

    @property
    def passed(self) -> bool:
        return not self.witnesses and self.status == "pass"

    def to_json(self) -> dict:
        payload = {
            "battery": self.battery,
            "pass": self.passed,
            "status": self.status,
            "trials": self.trials,
            "n_max": self.n_max,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "tolerances": {
                "pass": PASS_TOL,
                "violation": VIOLATION_TOL,
                "strong_invariance": STRONG_INVARIANCE_TOL,
            },
            "witnesses": [w.to_json() for w in self.witnesses],
        }
        payload.update(self.extras)
        return payload


# ---------------------------------------------------------------------------
# Greedy shrinking
# ---------------------------------------------------------------------------


def shrink_case(
    case: dict,
    still_fails: Callable[[dict], bool],
    reducers: Iterable[Callable[[dict], Iterator[dict]]],
) -> dict:
    """Greedy minimization: apply reducers in order while the case fails.

    Each reducer yields candidate reductions; the first candidate that still
    fails replaces the case and the reducer list restarts. Stops at a fixed
    point. ``still_fails`` must be deterministic; a candidate it rejects
    with a ``FisherGeoError`` is skipped, any other exception propagates.
    """

    def fails(candidate: dict) -> bool:
        try:
            return still_fails(candidate)
        except FisherGeoError:
            return False

    current = case
    while True:
        for reducer in reducers:
            smaller = next((c for c in reducer(current) if fails(c)), None)
            if smaller is not None:
                current = smaller
                break
        else:
            return current


def _merge_inputs(case: dict) -> Iterator[dict]:
    """Merge two adjacent input points of a channel case (shrinks n)."""
    channel, w = case["channel"], case["p"].weights
    kernel = channel.kernel
    if w.shape[0] <= 2:
        return
    space = SampleSpace(w.shape[0] - 1)
    for i in range(w.shape[0] - 1):
        j = i + 1
        new_w = np.delete(w, j)
        new_w[i] = w[i] + w[j]
        new_kernel = np.delete(kernel, j, axis=1)
        new_kernel[:, i] = (kernel[:, i] * w[i] + kernel[:, j] * w[j]) / new_w[i]
        p = new_distribution(space, new_w)
        merged = dict(case, channel=Channel(space, channel.out_space, new_kernel), p=p)
        if "x" in case:
            x = case["x"].m_rep
            new_x = np.delete(x, j)
            new_x[i] = x[i] + x[j]
            merged["x"] = TangentVector(p, new_x)
        yield merged


def _merge_outputs(case: dict) -> Iterator[dict]:
    """Merge two adjacent output points of a channel case."""
    channel = case["channel"]
    kernel = channel.kernel
    if kernel.shape[0] <= 2:
        return
    space = SampleSpace(kernel.shape[0] - 1)
    for i in range(kernel.shape[0] - 1):
        j = i + 1
        new_kernel = np.delete(kernel, j, axis=0)
        new_kernel[i] = kernel[i] + kernel[j]
        merged = dict(case, channel=Channel(channel.in_space, space, new_kernel))
        if "a" in case:
            a = case["a"].values
            new_a = np.delete(a, j)
            new_a[i] = 0.5 * (a[i] + a[j])
            merged["a"] = RandomVariable(space, new_a)
        yield merged


def _zero_entry(key: str) -> Callable[[dict], Iterator[dict]]:
    """Zero one entry of the case's vector (re-centering tangent vectors)."""

    def reducer(case: dict) -> Iterator[dict]:
        vector = case[key]
        tangent = isinstance(vector, TangentVector)
        values = vector.m_rep if tangent else vector.values
        for i in np.flatnonzero(values):
            reduced = values.copy()
            reduced[i] = 0.0
            if tangent:
                reduced = TangentVector(vector.base, reduced - reduced.mean())
            else:
                reduced = RandomVariable(vector.space, reduced)
            yield dict(case, **{key: reduced})

    return reducer


# ---------------------------------------------------------------------------
# The trial driver
# ---------------------------------------------------------------------------


def _require_run(battery: str, trials: int, n_max: int, min_n: int) -> None:
    if trials < 1:
        raise InvalidParameter(f"battery {battery!r} needs trials >= 1, got {trials!r}")
    if n_max < min_n:
        raise InvalidParameter(f"battery {battery!r} needs n_max >= {min_n}, got {n_max!r}")


def _drive(
    battery: str, trials: int, n_max: int, seed: int,
    draw: Callable[[np.random.Generator, int], dict],
    check: Callable[..., Any],
    residual: Callable[[Any], float],
    *,
    min_n: int = 2, pass_tol: float = PASS_TOL, violation_tol: float = VIOLATION_TOL,
    shrinkers: tuple = (),
    extras: Callable[[float], dict] = lambda worst: {},
) -> BatteryReport:
    """Run ``trials`` seeded cases through ``check`` and aggregate them.

    ``draw(rng, n_max)`` returns a case: the check's inputs keyed by
    parameter name, already built. ``residual`` reads the signed residual
    from the check's report. Above ``violation_tol`` the case is shrunk and
    recorded as a witness of the kind named ``battery``, unless the report
    carries its own witness.
    """
    _require_run(battery, trials, n_max, min_n)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    witnesses: list[Witness] = []
    for trial in range(trials):
        case = draw(rng, n_max)
        report = check(**case)
        value = residual(report)
        worst = max(worst, value)
        if value > violation_tol:
            witness = getattr(report, "witness", None)
            if witness is None:
                case = shrink_case(
                    case, lambda c: residual(check(**c)) > violation_tol, shrinkers
                )
                witness = Witness.from_case(battery, case, f"seed={seed} trial={trial}")
            witnesses.append(witness)
    status = "violation" if witnesses else classify(max(worst, 0.0), pass_tol)
    return BatteryReport(
        battery, trials, n_max, seed, float(worst), status, tuple(witnesses), extras(worst)
    )


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


def _random_sum_zero(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=n)
    return m - m.mean()


def _random_variable(rng: np.random.Generator, space: SampleSpace) -> RandomVariable:
    return RandomVariable(space, rng.normal(size=space.size))


def _draw_channel_case(rng: np.random.Generator, n_max: int, key: str) -> dict:
    """A random channel, an input point, and a tangent vector ``x`` at it or
    a variable ``a`` on the output space."""
    n_in = int(rng.integers(2, n_max + 1))
    n_out = int(rng.integers(2, n_max + 1))
    channel = random_channel(n_in, n_out, seed=int(rng.integers(2**32)))
    p = sample_interior(channel.in_space, seed=int(rng.integers(2**32)))
    if key == "x":
        return {"channel": channel, "p": p, "x": TangentVector(p, _random_sum_zero(rng, n_in))}
    return {"channel": channel, "p": p, "a": _random_variable(rng, channel.out_space)}


def _random_pair(rng: np.random.Generator, n_max: int):
    n_big = int(rng.integers(3, n_max + 1))
    n_small = int(rng.integers(2, n_big))
    surjection = random_surjection(n_big, n_small, seed=int(rng.integers(2**32)))
    q = sample_interior(SampleSpace(n_big), seed=int(rng.integers(2**32)))
    return canonical_embedding(surjection, q), q


def _draw_invariance(rng: np.random.Generator, n_max: int) -> dict:
    pair, q = _random_pair(rng, n_max)
    small = pair.surjection.codomain
    return {
        "pair": pair, "q": q,
        "a": _random_variable(rng, small), "b": _random_variable(rng, small),
        "x_m_rep": _random_sum_zero(rng, small.size),
        "y_m_rep": _random_sum_zero(rng, small.size),
    }


def _draw_strong_invariance(rng: np.random.Generator, n_max: int) -> dict:
    pair, q = _random_pair(rng, n_max)
    a = _random_variable(rng, pair.surjection.codomain)
    return {"pair": pair, "q": q, "a": a, "b": _random_variable(rng, q.space)}


def _draw_prop6(rng: np.random.Generator, n_max: int, family: CandidateFamily) -> dict:
    pair, _ = _random_pair(rng, n_max)
    p = sample_interior(pair.surjection.codomain, seed=int(rng.integers(2**32)))
    alpha = delta(p, _random_variable(rng, p.space))
    q_img = apply(pair.embedding_channel, p)
    beta = delta(q_img, _random_variable(rng, q_img.space))
    return {"pair": pair, "p": p, "alpha": alpha, "beta": beta, "family": family}


def _draw_crb(rng: np.random.Generator, n_max: int) -> dict:
    """Locally unbiased estimators on a random categorical model point."""
    n = int(rng.integers(2, n_max + 1))
    model = categorical_model(n)
    xi = sample_interior(model.space, seed=int(rng.integers(2**32))).weights[: n - 1]
    return {"model": model, "xi": xi, "estimators": unbiased_estimators(model, xi, rng)}


def _family(family) -> CandidateFamily:
    if isinstance(family, str):
        return parse_family(family)
    if not isinstance(family, CandidateFamily):
        raise InvalidParameter(
            f"family must be a grammar expression or a CandidateFamily, got {family!r}"
        )
    return family


# ---------------------------------------------------------------------------
# Batteries
# ---------------------------------------------------------------------------


def battery_monotonicity_metric(
    trials: int = 1000, n_max: int = 6, seed: int = 0
) -> BatteryReport:
    """Metric norms never grow under random channels."""
    return _drive(
        "monotonicity_metric", trials, n_max, seed,
        partial(_draw_channel_case, key="x"), check_monotonicity_metric, attrgetter("slack"),
        shrinkers=(_merge_inputs, _merge_outputs, _zero_entry("x")),
    )


def battery_monotonicity_cometric(
    trials: int = 1000, n_max: int = 6, seed: int = 0
) -> BatteryReport:
    """Variance of conditional expectations never exceeds the variance."""
    return _drive(
        "monotonicity_cometric", trials, n_max, seed,
        partial(_draw_channel_case, key="a"), check_monotonicity_cometric, attrgetter("slack"),
        shrinkers=(_merge_inputs, _merge_outputs, _zero_entry("a")),
    )


def battery_invariance(trials: int = 500, n_max: int = 8, seed: int = 0) -> BatteryReport:
    """Metric/co-metric/covariance invariance through canonical pairs."""
    return _drive(
        "invariance", trials, n_max, seed,
        _draw_invariance, check_invariance, attrgetter("max_residual"), min_n=3,
    )


def battery_strong_invariance(
    trials: int = 500, n_max: int = 8, seed: int = 0
) -> BatteryReport:
    """Adjoint/projector identities and the mixed covariance identity."""
    return _drive(
        "strong_invariance", trials, n_max, seed,
        _draw_strong_invariance, check_strong_invariance, attrgetter("max_residual"),
        min_n=3, pass_tol=STRONG_INVARIANCE_TOL,
    )


def battery_prop6(
    trials: int = 200,
    n_max: int = 6,
    seed: int = 0,
    family: CandidateFamily | str = "COV",
) -> BatteryReport:
    """Two-sided pairing identity with a candidate family in place of g."""
    family = _family(family)
    return _drive(
        "prop6", trials, n_max, seed,
        partial(_draw_prop6, family=family), check_prop6_identity, attrgetter("residual"),
        min_n=3, extras=lambda worst: {"family": family.name},
    )


def battery_crb(trials: int = 1000, n_max: int = 4, seed: int = 0) -> BatteryReport:
    """Randomized locally unbiased estimators never beat the bound.

    Estimators come from ``unbiased_estimators``. The models are full
    categorical families, where the kernel of restriction holds only the
    constants, so every trial samples the equality case V = G^{-1}.
    """
    return _drive(
        "crb", trials, n_max, seed, _draw_crb, crb_check,
        # the minimum eigenvalue of V - G^{-1}, negated and scaled by G^{-1}
        lambda r: -(r.min_eigenvalue / (1.0 + np.max(np.abs(r.inverse_information)))),
        pass_tol=-CRB_EIG_TOL, violation_tol=-CRB_EIG_TOL,
        extras=lambda worst: {"min_scaled_eigenvalue": float(-worst)},
    )


def battery_weak_invariance(
    n_max: int = 5,
    seed: int = 0,
    step: float = 1e-4,
    alphas: tuple[float, ...] = (-1.0, 0.0, 1.0),
    grid_count: int = 3,
    mismatched: bool = False,
) -> BatteryReport:
    """Connection invariance through canonical pairs on a parameter grid.

    With ``mismatched`` the big simplex carries the dual connection instead;
    the battery then passes only if the residual is large, confirming the
    check can detect non-invariance.
    """
    if not alphas or grid_count < 1:
        raise InvalidParameter(
            f"weak_invariance needs alphas and grid_count >= 1, got {alphas!r}, {grid_count!r}"
        )
    sizes = [(m, n) for m in range(2, n_max) for n in range(m + 1, n_max + 1)]
    cases = iter(product(alphas, sizes))
    grids: list[list[list[float]]] = []

    def draw(rng: np.random.Generator, _n_max: int) -> dict:
        alpha, (m, n) = next(cases)
        surjection = random_surjection(n, m, seed=int(rng.integers(2**32)))
        q = sample_interior(SampleSpace(n), seed=int(rng.integers(2**32)))
        # keep grid points well inside the simplex: the finite-difference
        # step (default 1e-4) must not push any weight negative
        grid = [
            sample_interior(SampleSpace(m), seed=int(rng.integers(2**32)), floor=0.02)
            .weights[: m - 1]
            for _ in range(grid_count)
        ]
        grids.append([[float(v) for v in g] for g in grid])
        return {
            "surjection": surjection, "q": q, "alpha": alpha,
            "grid": grid, "step": step, "mismatched": mismatched,
        }

    trials = len(sizes) * len(alphas)
    if not mismatched:
        # Finite differences dominate here: pass at the violation tolerance.
        return _drive(
            "weak_invariance", trials, n_max, seed, draw, weak_invariance_residual, float,
            min_n=3, pass_tol=VIOLATION_TOL,
            extras=lambda worst: {
                "residual_max": worst, "step": step, "alphas": list(alphas), "grids": grids,
            },
        )
    # The control tracks its smallest residual as the largest negated one
    # and records no witnesses.
    control = _drive(
        "weak_invariance_control", trials, n_max, seed, draw, weak_invariance_residual,
        lambda r: -r, min_n=3, violation_tol=np.inf,
    )
    detected = -control.max_residual > 1e-3
    return replace(
        control,
        max_residual=-control.max_residual,
        status="pass" if detected else "violation",
        extras={"step": step, "alphas": list(alphas), "mismatch_detected": detected},
    )


def battery_characterize(
    family: CandidateFamily | str,
    n_max: int = 6,
    denominator_bound: int = 64,
    trials: int = 8,
    seed: int = 0,
) -> BatteryReport:
    """Wrap the characterization probe as a battery."""
    family = _family(family)
    _require_run("characterize", trials, n_max, 2)
    result = characterize(family, n_max, denominator_bound, trials, seed)
    witnesses = () if result.witness is None else (result.witness,)
    return BatteryReport(
        "characterize",
        trials,
        n_max,
        seed,
        0.0 if result.passed else result.witness.gap,
        "pass" if result.passed else "violation",
        witnesses,
        {"characterize": result.to_json()},
    )


_BATTERIES: dict[str, Callable[..., BatteryReport]] = {
    "monotonicity_metric": battery_monotonicity_metric,
    "monotonicity_cometric": battery_monotonicity_cometric,
    "invariance": battery_invariance,
    "strong_invariance": battery_strong_invariance,
    "prop6": battery_prop6,
    "crb": battery_crb,
    "weak_invariance": battery_weak_invariance,
    "characterize": battery_characterize,
}


def run_battery(config: dict) -> BatteryReport:
    """Dispatch a battery-config object to its runner.

    Recognized keys per battery: ``battery`` (required), ``trials``,
    ``n_max``, ``seed``, ``family``, ``denominator_bound``, ``step``,
    ``alphas``, ``grid_count``, ``mismatched``. The keys are bound to the
    runner's parameters before it starts, so an unknown or missing key
    raises InvalidParameter naming it; errors inside the run propagate.
    """
    if not isinstance(config, dict):
        raise InvalidParameter(f"a battery config is a JSON object, not {type(config).__name__}")
    if "battery" not in config:
        raise InvalidParameter("config needs a 'battery' key")
    name = config["battery"]
    if not isinstance(name, str):
        raise InvalidParameter(f"battery must be a name (a string), not {name!r}")
    runner = _BATTERIES.get(name)
    if runner is None:
        raise InvalidParameter(
            f"unknown battery {name!r}; known: {sorted(_BATTERIES)}"
        )
    kwargs = {k: v for k, v in config.items() if k != "battery"}
    try:
        inspect.signature(runner).bind(**kwargs)
    except TypeError as exc:
        raise InvalidParameter(f"bad config for battery {name!r}: {exc}") from exc
    return runner(**kwargs)
